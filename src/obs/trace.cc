#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/metrics.h"

namespace zstream::obs {

namespace {

// Round up to a power of two, minimum 64 slots so the mask math and
// wraparound tests stay meaningful even with tiny test configs.
size_t RoundUpPow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

// JSON string escaping for span names. Names come from fixed inline
// buffers that a torn ring read can fill with arbitrary bytes, so
// anything outside printable ASCII is replaced rather than escaped.
void AppendJsonString(std::string* out, const char* s, size_t max_len) {
  out->push_back('"');
  for (size_t i = 0; i < max_len && s[i] != '\0'; ++i) {
    char c = s[i];
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c >= 0x20 && c < 0x7f) {
      out->push_back(c);
    } else {
      out->push_back('?');
    }
  }
  out->push_back('"');
}

void AppendHex(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, v);
  out->append(buf);
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kIngest:
      return "ingest";
    case SpanKind::kWireDecode:
      return "wire_decode";
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kExec:
      return "exec";
    case SpanKind::kOperator:
      return "operator";
    case SpanKind::kMatch:
      return "match";
    case SpanKind::kFanout:
      return "fanout";
    case SpanKind::kDeliver:
      return "deliver";
    case SpanKind::kReplan:
      return "replan";
    case SpanKind::kPlanSwitch:
      return "plan_switch";
    case SpanKind::kRowDecode:
      return "row_decode";
    case SpanKind::kNumKinds:
      break;
  }
  return "unknown";
}

namespace trace_internal {
thread_local constinit uint64_t tls_trace_id = 0;
thread_local constinit uint32_t tls_lane = 0;
}  // namespace trace_internal

Tracer& Tracer::Global() {
  static Tracer* tracer = [] {
    auto* t = new Tracer();
    // Top bits of the id space come from the clock so ids stay unique
    // across server restarts sharing one dump directory; low 40 bits
    // are the in-process counter.
    t->epoch_ = (MonotonicNanos() & 0x3fffffull) << 40;
    return t;
  }();
  return *tracer;
}

void Tracer::Configure(const TraceOptions& opts) {
  uint32_t lanes = std::max<uint32_t>(1, opts.num_lanes);
  size_t slots = RoundUpPow2(std::max<size_t>(1, opts.ring_slots));
  // Reallocate only when the geometry changes; Configure must happen
  // before writers start (or between test phases), see header.
  if (lanes_ == nullptr || lanes != num_lanes_ || slots != slot_mask_ + 1) {
    auto fresh = std::make_unique<Lane[]>(lanes);
    for (uint32_t l = 0; l < lanes; ++l) {
      fresh[l].slots = std::make_unique<SpanSlot[]>(slots);
      for (size_t i = 0; i < slots; ++i) {
        for (auto& w : fresh[l].slots[i].w) {
          w.store(0, std::memory_order_relaxed);
        }
      }
    }
    lanes_ = std::move(fresh);
    num_lanes_ = lanes;
    slot_mask_ = slots - 1;
  }
  sample_every_.store(opts.sample_every, std::memory_order_relaxed);
}

uint64_t Tracer::SampleBatch() {
  uint32_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return 0;
  uint64_t n = batch_counter_.fetch_add(1, std::memory_order_relaxed);
  if (n % every != 0) return 0;
  batches_sampled_.fetch_add(1, std::memory_order_relaxed);
  return epoch_ | next_id_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Tracer::NewTraceId() {
  if (!enabled()) return 0;
  return epoch_ | next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(uint32_t lane, SpanKind kind, uint64_t trace_id,
                    uint64_t start_ns, uint64_t end_ns, const char* name,
                    uint64_t arg) {
  if (lanes_ == nullptr || trace_id == 0) return;
  if (lane >= num_lanes_) lane = 0;
  Span s;
  s.trace_id = trace_id;
  s.start_ns = start_ns;
  s.end_ns = end_ns >= start_ns ? end_ns : start_ns;
  s.arg = arg;
  s.lane = lane;
  s.kind = static_cast<uint8_t>(kind);
  CopyLabel(s.name, name);
  uint64_t words[8];
  static_assert(sizeof(words) == sizeof(Span), "Span packs into 8 words");
  std::memcpy(words, &s, sizeof(s));
  Lane& l = lanes_[lane];
  uint64_t idx = l.head.fetch_add(1, std::memory_order_relaxed) & slot_mask_;
  SpanSlot& slot = l.slots[idx];
  for (int i = 0; i < 8; ++i) {
    slot.w[i].store(words[i], std::memory_order_relaxed);
  }
  spans_recorded_.fetch_add(1, std::memory_order_relaxed);
  kind_counts_[static_cast<size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);
}

void Tracer::RecordProvenance(const MatchProvenance& p) {
  zs::MutexLock lock(prov_mu_);
  prov_[prov_head_ % kProvenanceSlots] = p;
  ++prov_head_;
}

std::vector<MatchProvenance> Tracer::ProvenanceFor(
    const std::string& label) const {
  std::vector<MatchProvenance> out;
  zs::MutexLock lock(prov_mu_);
  size_t count = std::min(prov_head_, kProvenanceSlots);
  size_t first = prov_head_ - count;
  for (size_t i = first; i < prov_head_; ++i) {
    const MatchProvenance& p = prov_[i % kProvenanceSlots];
    if (p.trace_id == 0) continue;
    if (!label.empty() && label != p.label) continue;
    out.push_back(p);
  }
  return out;
}

std::string Tracer::RenderProvenance(const std::string& label) const {
  std::vector<MatchProvenance> entries = ProvenanceFor(label);
  std::string out;
  if (entries.empty()) {
    out = "no sampled match provenance for ";
    out += label.empty() ? "any query" : ("'" + label + "'");
    out +=
        " (tracing off, sampling missed the matches, or none emitted yet)\n";
    return out;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zu sampled match(es)", entries.size());
  out += buf;
  out += label.empty() ? "" : " for '" + label + "'";
  out += ":\n";
  for (const MatchProvenance& p : entries) {
    out += "  match trace=";
    AppendHex(&out, p.trace_id);
    out += " query=";
    out.append(p.label, strnlen(p.label, sizeof(p.label)));
    out += " plan=";
    AppendHex(&out, p.plan_fingerprint);
    std::snprintf(buf, sizeof(buf), " span=[%lld,%lld]",
                  static_cast<long long>(p.match_start_ts),
                  static_cast<long long>(p.match_end_ts));
    out += buf;
    out += "\n    path: ";
    out.append(p.op_path, strnlen(p.op_path, sizeof(p.op_path)));
    std::snprintf(buf, sizeof(buf), "\n    events (%u):", p.num_events);
    out += buf;
    uint32_t shown =
        std::min<uint32_t>(p.num_events, MatchProvenance::kMaxEvents);
    for (uint32_t i = 0; i < shown; ++i) {
      std::snprintf(buf, sizeof(buf), " id=%" PRIu64 "@%lld",
                    p.event_ids[i], static_cast<long long>(p.event_ts[i]));
      out += buf;
    }
    if (p.num_events > shown) out += " ...";
    out += "\n";
  }
  return out;
}

std::vector<Span> Tracer::CollectSpans() const {
  std::vector<Span> out;
  if (lanes_ == nullptr) return out;
  for (uint32_t lane = 0; lane < num_lanes_; ++lane) {
    const Lane& l = lanes_[lane];
    uint64_t head = l.head.load(std::memory_order_relaxed);
    uint64_t count = std::min<uint64_t>(head, slot_mask_ + 1);
    for (uint64_t seq = head - count; seq < head; ++seq) {
      const SpanSlot& slot = l.slots[seq & slot_mask_];
      uint64_t words[8];
      for (int i = 0; i < 8; ++i) {
        words[i] = slot.w[i].load(std::memory_order_relaxed);
      }
      Span s;
      std::memcpy(&s, words, sizeof(s));
      // Validate: a slot being overwritten mid-read can be torn; drop
      // anything that fails the invariants writers always establish.
      if (s.trace_id == 0) continue;
      if (s.kind >= static_cast<uint8_t>(SpanKind::kNumKinds)) continue;
      if (s.end_ns < s.start_ns) continue;
      if (s.lane != lane) continue;
      out.push_back(s);
    }
  }
  return out;
}

std::string Tracer::RenderChromeJson() const {
  std::vector<Span> spans = CollectSpans();
  std::string out;
  out.reserve(256 + spans.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[96];
  // Lane-naming metadata so Perfetto shows readable track names.
  for (uint32_t lane = 0; lane < num_lanes_; ++lane) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u", lane);
    out += buf;
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    if (lane == 0) {
      out += "control/net";
    } else {
      std::snprintf(buf, sizeof(buf), "shard %u", lane - 1);
      out += buf;
    }
    out += "\"}}";
  }
  for (const Span& s : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    std::string name = SpanKindName(static_cast<SpanKind>(s.kind));
    if (s.name[0] != '\0') {
      name += ':';
      name.append(s.name, strnlen(s.name, sizeof(s.name)));
    }
    AppendJsonString(&out, name.c_str(), name.size());
    out += ",\"cat\":\"zstream\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u", s.lane);
    out += buf;
    // Chrome trace timestamps are microseconds; keep ns precision via
    // the fractional part.
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  s.start_ns / 1000.0, (s.end_ns - s.start_ns) / 1000.0);
    out += buf;
    out += ",\"args\":{\"trace\":\"";
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, s.trace_id);
    out += buf;
    std::snprintf(buf, sizeof(buf), "\",\"arg\":%" PRIu64 "}}", s.arg);
    out += buf;
  }
  out += "]}";
  return out;
}

void Tracer::Reset() {
  if (lanes_ != nullptr) {
    for (uint32_t lane = 0; lane < num_lanes_; ++lane) {
      Lane& l = lanes_[lane];
      l.head.store(0, std::memory_order_relaxed);
      for (size_t i = 0; i <= slot_mask_; ++i) {
        for (auto& w : l.slots[i].w) w.store(0, std::memory_order_relaxed);
      }
    }
  }
  batch_counter_.store(0, std::memory_order_relaxed);
  batches_sampled_.store(0, std::memory_order_relaxed);
  spans_recorded_.store(0, std::memory_order_relaxed);
  for (auto& c : kind_counts_) c.store(0, std::memory_order_relaxed);
  zs::MutexLock lock(prov_mu_);
  prov_head_ = 0;
  for (auto& p : prov_) p = MatchProvenance{};
}

}  // namespace zstream::obs
