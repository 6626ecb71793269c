// The ZStream execution engine (Section 4).
//
// An Engine instantiates one physical tree plan over one pattern and
// drives the batch-iterator model:
//
//   1. Idle rounds: incoming primitive events are offered to every leaf
//      buffer whose pushed-down predicates admit them.
//   2. Once a batch has accumulated and the final (trigger) event class
//      has an unconsumed instance, an assembly round runs: the EAT is
//      computed from the earliest pending trigger event, leaf buffers
//      are purged, and operators assemble bottom-up; completed matches
//      drain from the root.
//
// Plan switching (Section 5.3) preserves leaf buffers, discards internal
// state, and rewinds non-trigger watermarks for one rebuild round, so a
// switch loses no matches and duplicates none.
#ifndef ZSTREAM_EXEC_ENGINE_H_
#define ZSTREAM_EXEC_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/engine_core.h"
#include "exec/match.h"
#include "exec/operators.h"
#include "opt/adaptive.h"
#include "opt/stats.h"
#include "plan/pattern.h"
#include "plan/physical_plan.h"

namespace zstream {

struct EngineOptions {
  /// Primitive events per batch before an assembly round is attempted.
  int batch_size = 64;
  /// Use hash indexes for equality predicates (Section 5.2.2).
  bool use_hash_indexes = true;
  /// Enable runtime statistics + cost-based plan adaptation (Section 5.3):
  /// the engine re-plans itself from its own windowed statistics.
  bool adaptive = false;
  AdaptiveOptions adaptive_options;
  /// Per-node assembly timing (EXPLAIN ANALYZE `time=` column): two
  /// clock reads per operator per assembly round. Off by default; the
  /// per-node counters are always on (and near-free, see
  /// bench_obs_overhead).
  bool profile = false;
  /// Slow-event log threshold in wall nanoseconds, checked per ingest
  /// step: one chunk of a PushBatch offered to the leaves plus the
  /// assembly round it triggers (for Push, exactly one event). A step
  /// over the threshold emits one rate-limited ZS_LOG(Warn) naming the
  /// query and its hottest plan node. 0 disables; > 0 implies per-node
  /// timing.
  int64_t slow_event_ns = 0;
  /// Query name used in slow-event logs and metric labels.
  std::string label;
};

/// \brief Single-partition query engine.
///
/// The engine is its own MatchSink: the plan root streams completed
/// matches straight into OnMatch (count / trace / callback) instead of
/// materializing them into a root buffer that DrainRoot would discard.
class Engine : public EngineCore, private MatchSink {
 public:
  using MatchCallback = zstream::MatchCallback;

  /// Instantiates `plan` (validated against `pattern`). `tracker` may be
  /// null, in which case the engine owns a private tracker.
  static Result<std::unique_ptr<Engine>> Create(
      PatternPtr pattern, const PhysicalPlan& plan,
      const EngineOptions& options = {}, MemoryTracker* tracker = nullptr);

  /// Like Create, for a pair the caller has already validated and
  /// verified (MakeEngine, and PartitionedEngine's partitions).
  static Result<std::unique_ptr<Engine>> CreateTrusted(
      PatternPtr pattern, const PhysicalPlan& plan,
      const EngineOptions& options = {}, MemoryTracker* tracker = nullptr);

  ~Engine() override;
  ZS_DISALLOW_COPY_AND_ASSIGN(Engine);

  /// Columnar ingest: offers the span to the leaves in chunks that end
  /// at batch boundaries, running an assembly round after each full
  /// batch, so any split of a stream into spans yields the same rounds.
  void PushBatch(const EventBatch& batch) override;

  /// Offers an ordered span to every leaf (term-major predicate
  /// admission) without round-triggering; PartitionedEngine drives
  /// rounds itself. Late events inside the span are dropped and counted.
  void Offer(const EventBatch& batch);

  /// Forces an assembly round (used at batch boundaries / stream end).
  void AssemblyRound();

  /// Runs an assembly round over any pending partial batch.
  void Finish() override;

  /// Installs a match consumer; without one, matches are only counted.
  void SetMatchCallback(MatchCallback cb) override {
    callback_ = std::move(cb);
  }

  /// Replaces the physical plan between assembly rounds (Section 5.3);
  /// the adaptive controller's switch path.
  Status SwitchPlan(const PhysicalPlan& plan);

  const Pattern& pattern() const override { return *pattern_; }

  /// The installed plan with its live per-node counter tree (one
  /// entry; see node_profile.h).
  PlanProfiles Profile() const override;
  /// Renders the plan tree annotated with live counters/timings, plus
  /// engine totals and predicted-vs-observed cost.
  std::string ExplainAnalyze() const override;

  /// FNV-1a 64 of the installed plan's Explain rendering (refreshed on
  /// every Build/SwitchPlan). Spans and match provenance (obs/trace.h)
  /// carry it, so a match stays attributable to the exact plan shape
  /// that produced it even after an adaptive switch.
  uint64_t plan_fingerprint() const { return plan_fingerprint_; }

  uint64_t num_matches() const override { return num_matches_; }
  uint64_t events_pushed() const override { return events_pushed_; }
  uint64_t assembly_rounds() const { return assembly_rounds_; }
  uint64_t plan_switches() const override { return plan_switches_; }
  /// Events dropped for arriving out of timestamp order.
  uint64_t late_events() const { return late_events_; }
  /// Ingest steps that exceeded EngineOptions::slow_event_ns.
  uint64_t slow_events() const { return slow_events_; }
  MemoryTracker& memory() override { return *tracker_; }
  WindowedClassStats* windowed_stats() { return windowed_stats_.get(); }

  /// Total operator input combinations tried in the current plan
  /// (the empirical analogue of the cost model's Ci terms).
  uint64_t pairs_tried() const;

 private:
  Engine(PatternPtr pattern, const EngineOptions& options,
         MemoryTracker* tracker);

  /// Instantiates an already verified `plan`.
  Status Build(const PhysicalPlan& plan, bool initial);
  Result<OperatorNode*> BuildNode(const PhysNodePtr& node,
                                  std::vector<ExprPtr>* unattached);
  void AttachPredicates(OperatorNode* op, std::vector<ExprPtr>* unattached);
  void DrainRoot(Timestamp eat);
  void MaybeAdapt();
  void LogSlowEvent(uint64_t elapsed_ns);

  // MatchSink: the plan root calls straight into the engine.
  void OnMatch(Match&& match) override;

  /// Cold path for sampled matches: records the kMatch span and the
  /// match's provenance (contributing event ids, operator path, plan
  /// fingerprint) into the global tracer.
  void RecordMatchTrace(uint64_t trace_id, const Match& match);

  PatternPtr pattern_;
  EngineOptions options_;
  MemoryTracker* tracker_;
  std::unique_ptr<MemoryTracker> owned_tracker_;

  PhysicalPlan plan_;
  std::vector<std::unique_ptr<LeafNode>> leaves_;  // one per class, persistent
  std::vector<std::unique_ptr<OperatorNode>> internal_nodes_;
  OperatorNode* root_ = nullptr;
  std::vector<OperatorNode*> assembly_order_;  // post-order, internal only
  std::vector<int> trigger_classes_;
  /// Pattern-level index of each multi-predicate (for stats attribution).
  std::vector<int> pred_index_of_;
  /// Classes that can be unbound in a record (negated / Kleene / inside
  /// a disjunction branch); such classes are excluded from hash routing.
  std::vector<bool> optional_class_;

  std::unique_ptr<WindowedClassStats> windowed_stats_;
  std::unique_ptr<AdaptiveController> adaptive_;

  MatchCallback callback_;
  int pending_in_batch_ = 0;
  Timestamp max_ts_seen_ = kMinTimestamp;
  /// EAT of the assembly round in flight: OnMatch drops matches that
  /// start before it (mirrors DrainRoot's filter for buffered roots).
  Timestamp round_eat_ = kMinTimestamp;
  /// Trace id sampled at round start; nonzero records each match's
  /// provenance.
  uint64_t cur_trace_ = 0;
  uint64_t late_events_ = 0;
  uint64_t events_pushed_ = 0;
  uint64_t num_matches_ = 0;
  uint64_t assembly_rounds_ = 0;
  uint64_t plan_switches_ = 0;
  bool rebuild_round_pending_ = false;
  /// Per-node timing active (options_.profile or a slow-event
  /// threshold); resolved once at construction.
  bool profiling_ = false;
  uint64_t slow_events_ = 0;
  uint64_t slow_suppressed_ = 0;
  uint64_t last_slow_log_ns_ = 0;
  uint64_t plan_fingerprint_ = 0;
  /// Cached Explain rendering of the installed plan (refreshed with
  /// plan_fingerprint_), so per-match provenance recording copies a
  /// fixed buffer instead of re-rendering the plan.
  char op_path_[96] = {};
  /// Provenance throttle: at most kProvenancePerTrace full provenance
  /// records per traced batch (kMatch spans stay per match).
  static constexpr uint32_t kProvenancePerTrace = 16;
  uint64_t prov_trace_ = 0;
  uint32_t prov_in_trace_ = 0;
};

/// Proves once that a verified pair instantiates: builds one Engine and
/// discards it. A keyed query's partitions are built lazily, where an
/// unsupported shape could not fail loudly, so it must fail here.
Status ProbeEngine(const PatternPtr& pattern, const PhysicalPlan& plan,
                   const EngineOptions& options);

/// The one engine factory, and the one place that picks the kind: a
/// keyed pattern (Section 5.2.2) runs as a PartitionedEngine, any other
/// as an Engine. Builds trusted, for a pair that passed VerifyPlan and
/// ProbeEngine (api's Prepare); one that did not aborts.
std::unique_ptr<EngineCore> MakeEngine(PatternPtr pattern,
                                       const PhysicalPlan& plan,
                                       const EngineOptions& options,
                                       MemoryTracker* tracker = nullptr);

}  // namespace zstream

#endif  // ZSTREAM_EXEC_ENGINE_H_
