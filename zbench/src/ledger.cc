#include "ledger.h"

#include <atomic>
#include <cstring>
#include <fstream>
#include <map>

#include "obs/metrics.h"

namespace zbench {

namespace {

thread_local Ledger::Span* tls_open_span = nullptr;
thread_local uint32_t tls_tid = 0;
std::atomic<uint32_t> next_tid{1};

uint32_t ThreadId() {
  if (tls_tid == 0) tls_tid = next_tid.fetch_add(1);
  return tls_tid;
}

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name)
                        : std::string(name, static_cast<size_t>(dot - name));
}

}  // namespace

Ledger::Span::Span(Ledger* ledger, const char* name)
    : ledger_(ledger), name_(name) {
  if (ledger_ == nullptr) return;
  parent_ = tls_open_span;
  tls_open_span = this;
  start_ns_ = zstream::obs::MonotonicNanos();
}

Ledger::Span::~Span() {
  if (ledger_ == nullptr) return;
  const uint64_t end_ns = zstream::obs::MonotonicNanos();
  tls_open_span = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += end_ns - start_ns_;
  ledger_->Close(*this, end_ns);
}

void Ledger::Close(const Span& span, uint64_t end_ns) {
  const uint64_t duration = end_ns - span.start_ns_;
  const uint64_t self =
      duration > span.child_ns_ ? duration - span.child_ns_ : 0;
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(Record{span.name_, span.start_ns_, end_ns, self,
                            ThreadId()});
  if (std::strcmp(span.name_, kPassSpan) == 0) {
    pass_ns_ += duration;
    pass_covered_ns_ += span.child_ns_;
  }
}

void Ledger::WriteSummary(JsonWriter* out) const {
  struct Totals {
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
    std::vector<int64_t> durations;
  };
  std::map<std::string, Totals> by_name;
  std::map<std::string, uint64_t> self_by_layer;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Record& r : records_) {
    Totals& t = by_name[r.name];
    t.total_ns += r.end_ns - r.start_ns;
    t.self_ns += r.self_ns;
    t.durations.push_back(static_cast<int64_t>(r.end_ns - r.start_ns));
    self_by_layer[LayerOf(r.name)] += r.self_ns;
  }
  out->BeginObject();
  out->Field("spans", static_cast<uint64_t>(records_.size()));
  out->Field("pass_ms", static_cast<double>(pass_ns_) / 1e6);
  out->Field("coverage",
             pass_ns_ == 0 ? 0.0
                           : static_cast<double>(pass_covered_ns_) /
                                 static_cast<double>(pass_ns_));
  out->Key("by_name").BeginObject();
  for (const auto& [name, t] : by_name) {
    out->Key(name).BeginObject();
    out->Field("count", static_cast<uint64_t>(t.durations.size()));
    out->Field("total_ms", static_cast<double>(t.total_ns) / 1e6);
    out->Field("self_ms", static_cast<double>(t.self_ns) / 1e6);
    out->Field("p50_us",
               static_cast<double>(Quantile(t.durations, 0.50)) / 1e3);
    out->Field("p99_us",
               static_cast<double>(Quantile(t.durations, 0.99)) / 1e3);
    out->EndObject();
  }
  out->EndObject();
  out->Key("self_ms_by_layer").BeginObject();
  for (const auto& [layer, ns] : self_by_layer) {
    out->Field(layer, static_cast<double>(ns) / 1e6);
  }
  out->EndObject();
  out->EndObject();
}

zstream::Status Ledger::WriteChromeTrace(const std::string& path) const {
  JsonWriter doc;
  doc.BeginObject();
  doc.Field("displayTimeUnit", "ms");
  doc.Key("traceEvents").BeginArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t origin = UINT64_MAX;
    for (const Record& r : records_) origin = std::min(origin, r.start_ns);
    for (const Record& r : records_) {
      doc.BeginObject();
      doc.Field("name", r.name);
      doc.Field("cat", LayerOf(r.name));
      doc.Field("ph", "X");
      doc.Field("pid", 1);
      doc.Field("tid", static_cast<uint64_t>(r.tid));
      doc.Field("ts", static_cast<double>(r.start_ns - origin) / 1e3);
      doc.Field("dur", static_cast<double>(r.end_ns - r.start_ns) / 1e3);
      doc.Key("args").BeginObject();
      doc.Field("self_us", static_cast<double>(r.self_ns) / 1e3);
      doc.EndObject();
      doc.EndObject();
    }
  }
  doc.EndArray();
  doc.EndObject();
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << doc.str() << "\n";
  file.close();
  if (!file) {
    return zstream::Status::Internal("cannot write trace file " + path);
  }
  return zstream::Status::OK();
}

}  // namespace zbench
