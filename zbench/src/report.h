// Minimal JSON writer and order statistics for the raw report.
#ifndef ZBENCH_REPORT_H_
#define ZBENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace zbench {

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline int64_t Quantile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t idx = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

/// Median (mean of the middle two for an even count); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

/// \brief Streaming JSON writer; commas are inserted automatically.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(std::string_view key) {
    Separate();
    AppendString(key);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& Value(std::string_view v) {
    Separate();
    AppendString(v);
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(bool v) { return Raw(v ? "true" : "false"); }
  JsonWriter& Value(uint64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Value(int64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Value(int v) { return Raw(std::to_string(v)); }
  JsonWriter& Value(double v) {
    if (!std::isfinite(v)) return Raw("null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(buf);
  }

  /// Splices an already-serialized JSON value (e.g. a registry document).
  JsonWriter& Raw(std::string_view json) {
    Separate();
    out_ += json;
    return *this;
  }

  template <typename T>
  JsonWriter& Field(std::string_view key, const T& v) {
    Key(key);
    return Value(v);
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char c) {
    Separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& Close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void AppendString(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace zbench

#endif  // ZBENCH_REPORT_H_
