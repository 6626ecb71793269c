#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>

namespace zstream::obs {

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

int Histogram::BucketOf(uint64_t value) {
  // Bucket i covers [2^i, 2^(i+1)) with bucket 0 absorbing 0 and 1;
  // i.e. the bit width of `value`, clamped. A single bit-scan keeps
  // Observe branch-free apart from the clamp.
  if (value < 2) return 0;
  const int width = 64 - __builtin_clzll(value);  // value >= 2 => >= 2
  return std::min(width - 1, kNumBuckets - 1);
}

uint64_t Histogram::UpperBound(int i) {
  if (i >= kNumBuckets - 1) return std::numeric_limits<uint64_t>::max();
  return uint64_t{1} << (i + 1);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  // Count first, buckets after: a concurrent Observe between the two
  // reads can only make bucket totals >= count, never undercount a
  // bucket relative to the reported count.
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumBuckets; ++i) {
    s.buckets[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  return s;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t in_bucket = buckets[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    const uint64_t next = cumulative + in_bucket;
    if (static_cast<double>(next) >= rank) {
      // Linear interpolation within [lower, upper).
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << i);
      const double upper =
          i >= kNumBuckets - 1
              ? static_cast<double>(uint64_t{1} << (kNumBuckets - 1)) * 2.0
              : static_cast<double>(UpperBound(i));
      const double frac =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + frac * (upper - lower);
    }
    cumulative = next;
  }
  return static_cast<double>(uint64_t{1} << (kNumBuckets - 1)) * 2.0;
}

// ---------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------

namespace {

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string EscapeJson(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

// Doubles in JSON / exposition output: plain fixed or scientific,
// never inf/nan (clamped to 0), trailing-zero trimmed for stability.
std::string RenderDouble(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

}  // namespace

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + EscapeLabelValue(v) + "\"";
  }
  out += "}";
  return out;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

Registry::Series* Registry::GetSeries(const std::string& name,
                                      const Labels& labels,
                                      const std::string& help,
                                      MetricType type, double scale) {
  const std::string key = RenderLabels(labels);
  zs::MutexLock lock(mu_);
  Family& fam = families_[name];
  auto it = fam.series.find(key);
  if (it == fam.series.end()) {
    if (fam.series.empty()) {
      fam.type = type;
      fam.help = help;
      fam.scale = scale;
    }
    Series s;
    s.labels = labels;
    s.label_key = key;
    switch (fam.type) {
      case MetricType::kCounter:
        counters_.emplace_back();
        s.counter = &counters_.back();
        break;
      case MetricType::kGauge:
        gauges_.emplace_back();
        s.gauge = &gauges_.back();
        break;
      case MetricType::kHistogram:
        histograms_.emplace_back();
        s.histogram = &histograms_.back();
        break;
    }
    it = fam.series.emplace(key, std::move(s)).first;
  }
  return &it->second;
}

Counter* Registry::GetCounter(const std::string& name, const Labels& labels,
                              const std::string& help) {
  return GetSeries(name, labels, help, MetricType::kCounter, 1.0)->counter;
}

Gauge* Registry::GetGauge(const std::string& name, const Labels& labels,
                          const std::string& help) {
  return GetSeries(name, labels, help, MetricType::kGauge, 1.0)->gauge;
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const Labels& labels,
                                  const std::string& help, double scale) {
  return GetSeries(name, labels, help, MetricType::kHistogram, scale)
      ->histogram;
}

std::string Registry::RenderPrometheus() const {
  zs::MutexLock lock(mu_);
  std::ostringstream os;
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty()) os << "# HELP " << name << " " << fam.help << "\n";
    os << "# TYPE " << name << " ";
    switch (fam.type) {
      case MetricType::kCounter: os << "counter"; break;
      case MetricType::kGauge: os << "gauge"; break;
      case MetricType::kHistogram: os << "histogram"; break;
    }
    os << "\n";
    for (const auto& [key, series] : fam.series) {
      switch (fam.type) {
        case MetricType::kCounter:
          os << name << key << " " << series.counter->value() << "\n";
          break;
        case MetricType::kGauge:
          os << name << key << " " << series.gauge->value() << "\n";
          break;
        case MetricType::kHistogram: {
          const Histogram::Snapshot snap = series.histogram->snapshot();
          // Cumulative le buckets; skip interior buckets that add
          // nothing so idle histograms stay one line per family.
          uint64_t cumulative = 0;
          for (int i = 0; i < Histogram::kNumBuckets; ++i) {
            const uint64_t n = snap.buckets[static_cast<size_t>(i)];
            if (n == 0 && i < Histogram::kNumBuckets - 1) continue;
            cumulative += n;
            Labels le = series.labels;
            if (i >= Histogram::kNumBuckets - 1) {
              le.emplace_back("le", "+Inf");
            } else {
              le.emplace_back(
                  "le", RenderDouble(static_cast<double>(
                            Histogram::UpperBound(i)) * fam.scale));
            }
            os << name << "_bucket" << RenderLabels(le) << " " << cumulative
               << "\n";
          }
          os << name << "_sum" << key << " "
             << RenderDouble(static_cast<double>(snap.sum) * fam.scale)
             << "\n";
          os << name << "_count" << key << " " << snap.count << "\n";
          break;
        }
      }
    }
  }
  return os.str();
}

std::string Registry::RenderJson() const {
  zs::MutexLock lock(mu_);
  std::ostringstream os;
  os << "{";
  bool first_fam = true;
  for (const auto& [name, fam] : families_) {
    if (!first_fam) os << ",";
    first_fam = false;
    os << "\"" << EscapeJson(name) << "\":{\"type\":\"";
    switch (fam.type) {
      case MetricType::kCounter: os << "counter"; break;
      case MetricType::kGauge: os << "gauge"; break;
      case MetricType::kHistogram: os << "histogram"; break;
    }
    os << "\",\"help\":\"" << EscapeJson(fam.help) << "\",\"series\":[";
    bool first_series = true;
    for (const auto& [key, series] : fam.series) {
      if (!first_series) os << ",";
      first_series = false;
      os << "{\"labels\":{";
      Labels sorted = series.labels;
      std::sort(sorted.begin(), sorted.end());
      bool first_label = true;
      for (const auto& [k, v] : sorted) {
        if (!first_label) os << ",";
        first_label = false;
        os << "\"" << EscapeJson(k) << "\":\"" << EscapeJson(v) << "\"";
      }
      os << "}";
      switch (fam.type) {
        case MetricType::kCounter:
          os << ",\"value\":" << series.counter->value();
          break;
        case MetricType::kGauge:
          os << ",\"value\":" << series.gauge->value();
          break;
        case MetricType::kHistogram: {
          const Histogram::Snapshot snap = series.histogram->snapshot();
          os << ",\"count\":" << snap.count << ",\"sum\":"
             << RenderDouble(static_cast<double>(snap.sum) * fam.scale)
             << ",\"p50\":" << RenderDouble(snap.Quantile(0.50) * fam.scale)
             << ",\"p95\":" << RenderDouble(snap.Quantile(0.95) * fam.scale)
             << ",\"p99\":" << RenderDouble(snap.Quantile(0.99) * fam.scale);
          break;
        }
      }
      os << "}";
    }
    os << "]}";
  }
  os << "}";
  return os.str();
}

size_t Registry::RemoveSeriesLabeled(const std::string& key,
                                     const std::string& value) {
  const std::pair<std::string, std::string> label(key, value);
  zs::MutexLock lock(mu_);
  size_t removed = 0;
  for (auto fam = families_.begin(); fam != families_.end();) {
    auto& series = fam->second.series;
    for (auto it = series.begin(); it != series.end();) {
      const Labels& labels = it->second.labels;
      if (std::find(labels.begin(), labels.end(), label) != labels.end()) {
        it = series.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    fam = series.empty() ? families_.erase(fam) : std::next(fam);
  }
  return removed;
}

Registry& Registry::Default() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace zstream::obs
