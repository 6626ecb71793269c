// The shard-facing engine interface.
//
// runtime::StreamRuntime hosts many queries, each instantiated once per
// shard; a shard worker drives its engines through this interface without
// caring whether a query runs as a single-partition Engine or a
// hash-partitioned PartitionedEngine (MakeEngine in exec/engine.h
// picks one from the pattern). Implementations are single-threaded
// (one shard worker owns each instance); cross-thread aggregation happens
// above, via atomic match counters, the thread-safe MemoryTracker and the
// PlanProfiles each engine reports. An adaptive engine re-plans itself
// (EngineOptions::adaptive); the layers above read the live plans back
// through Profile() and keep no copy of their own.
#ifndef ZSTREAM_EXEC_ENGINE_CORE_H_
#define ZSTREAM_EXEC_ENGINE_CORE_H_

#include <functional>
#include <string>

#include "event/event.h"
#include "exec/node_profile.h"

namespace zstream {

struct Match;
class MemoryTracker;
class Pattern;

/// Consumes one completed match: a view valid for the duration of the
/// call (exec/match.h); copy it into an OwnedMatch to keep it.
using MatchCallback = std::function<void(Match&&)>;

/// \brief A borrowed span of events for columnar ingest. The pointers
/// stay owned by the producer; the span must outlive the PushBatch call.
struct EventBatch {
  const EventPtr* data = nullptr;
  size_t count = 0;
};

/// \brief Uniform driving interface over Engine / PartitionedEngine.
class EngineCore {
 public:
  virtual ~EngineCore() = default;

  /// Streams a span of timestamp-ordered events in (the only ingest
  /// path); may trigger assembly rounds. Events older than one already
  /// pushed are dropped and counted as late: reordering happens upstream,
  /// at the runtime shard (RuntimeOptions::reorder_slack).
  virtual void PushBatch(const EventBatch& batch) = 0;

  /// Streams one event in: a batch of one.
  void Push(const EventPtr& event) { PushBatch(EventBatch{&event, 1}); }

  /// Flushes pending state (partial batches). The engine remains usable
  /// afterwards; Finish is a barrier, not a shutdown.
  virtual void Finish() = 0;

  /// Installs a match consumer; without one, matches are only counted.
  virtual void SetMatchCallback(MatchCallback cb) = 0;

  virtual uint64_t num_matches() const = 0;
  virtual uint64_t events_pushed() const = 0;
  virtual const Pattern& pattern() const = 0;
  virtual MemoryTracker& memory() = 0;

  /// The live plans with their per-node counters, for EXPLAIN ANALYZE
  /// (see node_profile.h): one entry for an Engine, one per distinct
  /// plan across a PartitionedEngine's partitions (empty before the
  /// first partition exists).
  virtual PlanProfiles Profile() const = 0;

  /// Adaptive plan switches so far (summed over partitions).
  virtual uint64_t plan_switches() const = 0;
  /// EXPLAIN ANALYZE: the live plan trees with counters, engine totals.
  virtual std::string ExplainAnalyze() const = 0;
};

}  // namespace zstream

#endif  // ZSTREAM_EXEC_ENGINE_CORE_H_
