// Sampled end-to-end event tracing (ISSUE 9).
//
// A trace follows one sampled ingest batch through every layer an event
// crosses: client Ingest -> wire frame -> server decode -> shard MPSC
// queue -> reorder -> per-operator evaluation -> match assembly ->
// fanout -> client delivery, plus control-plane spans for replan
// evaluations and plan switches. The design goals mirror metrics.h:
//
//   - Recording a span is lock-free and allocation-free: one relaxed
//     fetch_add to claim a ring slot plus eight relaxed word stores.
//     Steady-state tracing never allocates on the hot path (the rings
//     are sized once at Configure), so hotpath_lint.py stays green.
//   - Every span lives in a fixed-size per-lane ring buffer. Lane 0 is
//     the control/net lane (client, server accept loop);
//     lane 1+s belongs to shard worker s. Old spans are overwritten, so
//     the rings always hold the most recent window — that is the flight
//     recorder's data source (see flight_recorder.h).
//   - Readers (GET /trace, EXPLAIN TRACE, flight-recorder dumps) scan
//     the live rings without stopping writers. A slot being overwritten
//     mid-read can yield a torn span; export validates each candidate
//     (kind in range, end >= start, nonzero trace id) and drops the
//     rest. Like a metrics scrape, the result is consistent-enough, not
//     linearizable.
//   - Sampling is a deterministic 1-in-N decision per ingest batch
//     (relaxed counter), so tests can reason about exactly which
//     batches carry a trace. trace id 0 means "not sampled" everywhere.
//
// Propagation uses two thread-locals (current trace id + current lane)
// set by the shard worker around each dispatched event, so the engine
// and NFA interfaces stay untouched.
#ifndef ZSTREAM_OBS_TRACE_H_
#define ZSTREAM_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/sync.h"

namespace zstream::obs {

/// Span taxonomy — one kind per pipeline stage (docs/tracing.md).
/// Values are stable: they appear in dumped Chrome JSON and in the
/// per-kind reconciliation counters tests assert on.
enum class SpanKind : uint8_t {
  kIngest = 0,     // client-side batch assembly + send
  kWireDecode,     // server batch validate + route (rows stay encoded)
  kQueueWait,      // shard MPSC queue residency (enqueue -> dequeue)
  kExec,           // one engine assembly round (whole batch iterator)
  kOperator,       // one physical operator evaluation within a round
  kMatch,          // match emission (root buffer drain)
  kFanout,         // server -> subscriber fanout
  kDeliver,        // client-side match delivery
  kReplan,         // one adaptive replan evaluation
  kPlanSwitch,     // an installed plan change
  kRowDecode,      // shard worker decode of one run's wire rows
  kNumKinds,       // sentinel, not a span kind
};

/// Stable lower-case name ("ingest", "wire_decode", ...) used as the
/// Chrome-trace event name prefix and in docs.
const char* SpanKindName(SpanKind kind);

/// \brief One completed span: 64 bytes, trivially copyable.
///
/// `arg` is kind-specific (event id for kMatch, shard for kQueueWait,
/// plan fingerprint for kPlanSwitch, ...); `name` is a NUL-padded label
/// (operator name, query label) small enough to stay inline.
struct Span {
  uint64_t trace_id = 0;  // 0 marks an empty/invalid slot
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t arg = 0;
  uint32_t lane = 0;
  uint8_t kind = 0;
  char name[27] = {};
};
static_assert(sizeof(Span) == 64, "Span must stay one cache line");

/// \brief Match provenance for one sampled match: which events, which
/// operator path, which plan. Fixed-size so recording never allocates.
struct MatchProvenance {
  static constexpr int kMaxEvents = 8;
  uint64_t trace_id = 0;
  uint64_t plan_fingerprint = 0;
  int64_t match_start_ts = 0;
  int64_t match_end_ts = 0;
  uint32_t num_events = 0;  // total contributors (may exceed kMaxEvents)
  std::array<uint64_t, kMaxEvents> event_ids{};
  std::array<int64_t, kMaxEvents> event_ts{};
  char label[32] = {};    // query label (metrics/spans join key)
  char op_path[96] = {};  // compact operator path, e.g. "SEQ(S>M)>NEG"
};

struct TraceOptions {
  /// 0 = tracing off, 1 = every batch, N = every Nth batch.
  uint32_t sample_every = 0;
  /// Span slots per lane; rounded up to a power of two. 8192 slots =
  /// 512 KiB per lane.
  size_t ring_slots = 8192;
  /// Lane count: 1 control/net lane + one per shard worker.
  uint32_t num_lanes = 9;
};

/// \brief Process-wide span recorder: per-lane lock-free rings, the
/// sampling decision, trace-id allocation, and the provenance ring.
class Tracer {
 public:
  Tracer() = default;
  ZS_DISALLOW_COPY_AND_ASSIGN(Tracer);

  /// The process-wide tracer. Like Registry::Default(): one instance,
  /// shared by client and server code linked into the same process.
  static Tracer& Global();

  /// (Re)allocates the rings and arms sampling. Not hot-path safe:
  /// call at startup or between test phases, not while writers record.
  void Configure(const TraceOptions& opts);

  /// Tracing is enabled once Configure() armed a nonzero sample rate.
  bool enabled() const {
    return sample_every_.load(std::memory_order_relaxed) != 0;
  }
  uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Per-ingest-batch sampling decision: returns a fresh trace id for
  /// every sample_every-th call (deterministic), 0 otherwise/when off.
  uint64_t SampleBatch();

  /// Unconditional fresh trace id (control-plane spans: replan, plan
  /// switch, flight-recorder markers). Returns 0 when tracing is off.
  uint64_t NewTraceId();

  /// Records one completed span into `lane`'s ring. Lock-free,
  /// allocation-free; out-of-range lanes clamp to lane 0. `name` may
  /// be nullptr; it is truncated to the inline buffer.
  ZS_HOT void Record(uint32_t lane, SpanKind kind, uint64_t trace_id,
                     uint64_t start_ns, uint64_t end_ns, const char* name,
                     uint64_t arg = 0);

  /// Records provenance for one sampled match (mutex-guarded ring of
  /// kProvenanceSlots entries; cold path — matches are rare and only
  /// sampled ones arrive here).
  void RecordProvenance(const MatchProvenance& p);

  /// Provenance entries for `label` (most recent last); all entries
  /// when `label` is empty.
  std::vector<MatchProvenance> ProvenanceFor(const std::string& label) const;

  /// Human-readable provenance report for EXPLAIN TRACE <query>.
  std::string RenderProvenance(const std::string& label) const;

  /// Total spans recorded for `kind` since Configure/Reset — exact
  /// (incremented with the ring write), unlike the rings themselves
  /// which overwrite. Tests reconcile these against shard/sink totals.
  uint64_t KindCount(SpanKind kind) const {
    return kind_counts_[static_cast<size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  uint64_t spans_recorded() const {
    return spans_recorded_.load(std::memory_order_relaxed);
  }
  /// Ingest batches that passed the sampling decision.
  uint64_t batches_sampled() const {
    return batches_sampled_.load(std::memory_order_relaxed);
  }

  /// All currently-valid spans, oldest-first per lane. Torn or empty
  /// slots are filtered (see file comment).
  std::vector<Span> CollectSpans() const;

  /// chrome://tracing / Perfetto JSON document: one complete ("ph":"X")
  /// event per span with lane rendered as tid, plus thread_name
  /// metadata records naming the lanes. Always a valid JSON object,
  /// even when no spans were recorded.
  std::string RenderChromeJson() const;

  /// Drops all spans, counters, provenance, and the sampling cursor;
  /// keeps the configured rings. Test isolation only.
  void Reset();

  uint32_t num_lanes() const { return num_lanes_; }

 private:
  // Eight atomic words per slot: a Span is memcpy-packed into the words
  // and stored/loaded with relaxed operations, which keeps concurrent
  // overwrite + scan well-defined for TSan (torn reads yield garbage
  // values, never UB) at zero synchronization cost.
  struct alignas(64) SpanSlot {
    std::atomic<uint64_t> w[8];
  };
  struct Lane {
    std::unique_ptr<SpanSlot[]> slots;
    std::atomic<uint64_t> head{0};  // total writes; slot = head & mask
  };

  static constexpr size_t kProvenanceSlots = 256;

  std::atomic<uint32_t> sample_every_{0};
  std::atomic<uint64_t> batch_counter_{0};
  std::atomic<uint64_t> batches_sampled_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> spans_recorded_{0};
  std::array<std::atomic<uint64_t>, static_cast<size_t>(SpanKind::kNumKinds)>
      kind_counts_{};
  uint64_t epoch_ = 0;  // set once in Global(); makes ids process-unique

  // Ring storage. Written once by Configure before writers start; the
  // pointer array itself is then read-only (the atomics inside do the
  // synchronization), matching the registry's pointer-stability rule.
  std::unique_ptr<Lane[]> lanes_;
  uint32_t num_lanes_ = 0;
  size_t slot_mask_ = 0;

  mutable zs::Mutex prov_mu_;
  std::array<MatchProvenance, kProvenanceSlots> prov_ ZS_GUARDED_BY(prov_mu_);
  size_t prov_head_ ZS_GUARDED_BY(prov_mu_) = 0;

  friend class TracerTestPeer;
};

// ---------------------------------------------------------------------------
// Hot-path helpers + thread-local trace propagation. These are the only
// symbols instrumented code calls directly.
// ---------------------------------------------------------------------------

namespace trace_internal {
// constinit lets the compiler access the TLS slots directly instead of
// through the thread-wrapper function an extern thread_local otherwise
// requires — GCC resolves the wrapper's weak symbol to null under
// -fsanitize=undefined, turning every access into a null store/load.
extern thread_local constinit uint64_t tls_trace_id;
extern thread_local constinit uint32_t tls_lane;
}  // namespace trace_internal

/// Trace id attached to the work the current thread is executing
/// (0 = untraced). Set by the shard worker around each event dispatch.
inline uint64_t CurrentTraceId() { return trace_internal::tls_trace_id; }
inline void SetCurrentTrace(uint64_t id) {
  trace_internal::tls_trace_id = id;
}
/// Ring lane for spans recorded by the current thread (0 = control).
inline uint32_t CurrentLane() { return trace_internal::tls_lane; }
inline void SetCurrentLane(uint32_t lane) { trace_internal::tls_lane = lane; }

/// Per-batch sampling decision (see Tracer::SampleBatch).
inline uint64_t TraceSampleBatch() { return Tracer::Global().SampleBatch(); }

/// Records a completed span if `trace_id` is nonzero. The untraced
/// fast path is one register test.
ZS_HOT inline void TraceRecord(uint32_t lane, SpanKind kind,
                               uint64_t trace_id, uint64_t start_ns,
                               uint64_t end_ns, const char* name,
                               uint64_t arg = 0) {
  if (trace_id == 0) return;
  Tracer::Global().Record(lane, kind, trace_id, start_ns, end_ns, name, arg);
}

inline bool TraceEnabled() { return Tracer::Global().enabled(); }

/// FNV-1a 64-bit — the plan fingerprint hash (engine Build hashes the
/// plan's Explain rendering; EXPLAIN TRACE and kPlanSwitch spans carry
/// the result so a match is attributable to the exact plan shape that
/// produced it, even after an adaptive switch).
inline uint64_t Fnv1a64(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}
inline uint64_t Fnv1a64(const std::string& s) {
  return Fnv1a64(s.data(), s.size());
}

/// Bounded NUL-padded copy into a fixed char buffer (Span::name,
/// MatchProvenance fields). Never allocates.
template <size_t N>
inline void CopyLabel(char (&dst)[N], const char* src) {
  size_t i = 0;
  if (src != nullptr) {
    for (; i + 1 < N && src[i] != '\0'; ++i) dst[i] = src[i];
  }
  for (; i < N; ++i) dst[i] = '\0';
}

}  // namespace zstream::obs

#endif  // ZSTREAM_OBS_TRACE_H_
