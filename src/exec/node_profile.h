// Per-plan-node instrumentation snapshots (the EXPLAIN ANALYZE tree).
//
// A NodeProfile mirrors one operator of an engine's plan tree with its
// live counters: records in/out, input combinations tried, current
// buffer occupancy, and cumulative assembly time when the engine runs
// with EngineOptions::profile.
//
// Every engine adapts its own plan (EngineOptions::adaptive), so the
// engines behind one query (hash partitions of a PartitionedEngine,
// shard engines of the concurrent runtime) may run different plans. A
// PlanProfiles list holds one entry per distinct live plan; engines
// running the same plan merge by structural position, so each tree
// shows that plan's totals however execution was split.
#ifndef ZSTREAM_EXEC_NODE_PROFILE_H_
#define ZSTREAM_EXEC_NODE_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace zstream {

/// \brief One operator's counters, with children in plan order.
struct NodeProfile {
  /// Operator rendering, e.g. "SEQ", "KSEQ", "LEAF IBM".
  std::string label;
  /// Records arriving from children since engine start (for a leaf:
  /// primitive events offered to it, before predicate admission).
  uint64_t events_in = 0;
  /// Records appended to this node's output buffer (for a leaf:
  /// admitted events; for the plan root: emitted matches).
  uint64_t records_out = 0;
  /// Input combinations tried (the empirical Ci of the cost model).
  uint64_t pairs_tried = 0;
  /// Records currently held in the output buffer.
  uint64_t buffer_records = 0;
  /// Cumulative wall time spent in Assemble (0 unless profiling).
  uint64_t eval_ns = 0;
  std::vector<NodeProfile> children;

  bool SameShape(const NodeProfile& other) const;
  /// pairs_tried summed over the whole tree.
  uint64_t TotalPairs() const;
};

/// \brief One live plan and the merged counters of the engines running
/// it.
struct PlanProfile {
  /// PhysicalPlan::Explain rendering, e.g. "[IBM ; [Sun ; Oracle]]".
  std::string plan;
  /// PhysicalPlan::estimated_cost (mean over the engines running it:
  /// each adaptive engine costs its plan under its own statistics).
  double estimated_cost = 0.0;
  /// Engines currently running this plan.
  uint64_t engines = 0;
  NodeProfile root;
};

/// Distinct live plans, most-run first (ties keep first-seen order).
using PlanProfiles = std::vector<PlanProfile>;

/// Folds `from` into `into`: an entry whose plan (and tree shape) is
/// already present sums its engines and counters into it, any other is
/// appended; the list is then re-sorted most-run first.
void FoldPlanProfiles(PlanProfiles* into, PlanProfiles from);

/// Renders each plan's tree, one node per line, two-space indented:
///   SEQ in=80 out=12 pairs=640 buf=0 time=1.24ms
///     LEAF IBM in=60000 out=20000 buf=31
/// `time=` is omitted for nodes that were never timed. With several
/// live plans, each tree is preceded by
///   plan=[IBM ; [Sun ; Oracle]] cost_est=4.04e+06 engines=3
/// An empty list renders as "".
std::string RenderPlanProfiles(const PlanProfiles& plans);

}  // namespace zstream

#endif  // ZSTREAM_EXEC_NODE_PROFILE_H_
