// Hash-partitioned execution (Section 5.2.2, Figure 4).
//
// When one attribute's equality predicates connect every event class
// (e.g. stock.name in Query 2 or the client IP in Query 8), the analyzer
// removes those predicates and records a partition key; this engine then
// routes each event to a per-key sub-engine, turning the equality join
// into partition locality.
#ifndef ZSTREAM_EXEC_PARTITIONED_ENGINE_H_
#define ZSTREAM_EXEC_PARTITIONED_ENGINE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/engine.h"
#include "exec/engine_core.h"

namespace zstream {

/// \brief Routes events to per-key Engines and drives their rounds.
class PartitionedEngine : public EngineCore {
 public:
  static Result<std::unique_ptr<PartitionedEngine>> Create(
      PatternPtr pattern, const PhysicalPlan& plan,
      const EngineOptions& options = {}, MemoryTracker* tracker = nullptr);

  /// Trusted: for a keyed pair already verified and probed (MakeEngine).
  PartitionedEngine(PatternPtr pattern, PhysicalPlan plan,
                    const EngineOptions& options, MemoryTracker* tracker);

  ZS_DISALLOW_COPY_AND_ASSIGN(PartitionedEngine);

  /// Routes each event to its key's sub-engine (Engine::Offer) and runs
  /// the dirty partitions' assembly rounds every batch_size events.
  void PushBatch(const EventBatch& batch) override;
  void Finish() override;

  /// Stored, then propagated to every existing partition AND to every
  /// partition created later (GetOrCreate installs callback_
  /// unconditionally, so clearing the callback also clears it on future
  /// partitions).
  void SetMatchCallback(Engine::MatchCallback cb) override {
    callback_ = std::move(cb);
    for (auto& [key, part] : partitions_) {
      part.engine->SetMatchCallback(callback_);
    }
  }

  uint64_t num_matches() const override;
  uint64_t events_pushed() const override { return events_pushed_; }
  /// Plan switches summed over the partitions (each adapts on its own
  /// statistics under EngineOptions::adaptive).
  uint64_t plan_switches() const override;
  /// Events the sub-engines dropped for arriving out of timestamp order.
  uint64_t late_events() const;
  size_t num_partitions() const { return partitions_.size(); }
  MemoryTracker& memory() override { return *tracker_; }
  const Pattern& pattern() const override { return *pattern_; }

  /// The partitions' profiles folded per distinct live plan; empty
  /// before the first partition.
  PlanProfiles Profile() const override;
  /// Live plan trees with their counters, plus engine totals.
  std::string ExplainAnalyze() const override;

 private:
  struct Partition {
    std::unique_ptr<Engine> engine;
    bool dirty = false;
  };

  Result<Partition*> GetOrCreate(const Value& key);
  void RunRounds();

  PatternPtr pattern_;
  /// The registered plan: every new partition starts on it.
  PhysicalPlan plan_;
  EngineOptions options_;
  MemoryTracker* tracker_;
  std::unique_ptr<MemoryTracker> owned_tracker_;
  int key_field_ = -1;

  std::unordered_map<Value, Partition, ValueHasher> partitions_;
  std::vector<Partition*> dirty_;
  int pending_in_batch_ = 0;
  uint64_t events_pushed_ = 0;
  Engine::MatchCallback callback_;
};

}  // namespace zstream

#endif  // ZSTREAM_EXEC_PARTITIONED_ENGINE_H_
