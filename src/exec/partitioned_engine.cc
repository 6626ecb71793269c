#include "exec/partitioned_engine.h"

#include <sstream>

#include "common/macros.h"

namespace zstream {

PartitionedEngine::PartitionedEngine(PatternPtr pattern, PhysicalPlan plan,
                                     const EngineOptions& options,
                                     MemoryTracker* tracker)
    : pattern_(std::move(pattern)),
      plan_(std::move(plan)),
      options_(options),
      tracker_(tracker),
      key_field_(pattern_->partition->field_indices.front()) {
  if (tracker_ == nullptr) {
    owned_tracker_ = std::make_unique<MemoryTracker>();
    tracker_ = owned_tracker_.get();
  }
}

Result<std::unique_ptr<PartitionedEngine>> PartitionedEngine::Create(
    PatternPtr pattern, const PhysicalPlan& plan,
    const EngineOptions& options, MemoryTracker* tracker) {
  if (!pattern->partition.has_value()) {
    return Status::InvalidArgument(
        "pattern has no partition key; use Engine directly");
  }
  // Validates, verifies, and proves the pair instantiates (see
  // ProbeEngine): partitions are built lazily, where errors cannot show.
  ZS_RETURN_IF_ERROR(Engine::Create(pattern, plan, options).status());
  return std::make_unique<PartitionedEngine>(std::move(pattern), plan,
                                             options, tracker);
}

Result<PartitionedEngine::Partition*> PartitionedEngine::GetOrCreate(
    const Value& key) {
  auto it = partitions_.find(key);
  if (it != partitions_.end()) return &it->second;
  // The pair was verified and probed once (Create, or Prepare before
  // MakeEngine); partitions created mid-stream skip re-proving it.
  ZS_ASSIGN_OR_RETURN(
      std::unique_ptr<Engine> sub,
      Engine::CreateTrusted(pattern_, plan_, options_, tracker_));
  // Unconditional: partitions created after SetMatchCallback inherit the
  // stored callback, including an explicitly cleared (empty) one.
  sub->SetMatchCallback(callback_);
  Partition part;
  part.engine = std::move(sub);
  auto [pos, inserted] = partitions_.emplace(key, std::move(part));
  (void)inserted;
  return &pos->second;
}

ZS_HOT void PartitionedEngine::PushBatch(const EventBatch& batch) {
  for (size_t i = 0; i < batch.count; ++i) {
    const EventPtr& event = batch.data[i];
    ++events_pushed_;
    const Value& key = event->value(key_field_);
    if (key.is_null()) continue;
    Result<Partition*> part = GetOrCreate(key);
    if (!part.ok()) continue;
    (*part)->engine->Offer(EventBatch{&event, 1});
    if (!(*part)->dirty) {
      (*part)->dirty = true;
      dirty_.push_back(*part);
    }
    if (++pending_in_batch_ >= options_.batch_size) RunRounds();
  }
}

void PartitionedEngine::RunRounds() {
  for (Partition* part : dirty_) {
    part->engine->AssemblyRound();
    part->dirty = false;
  }
  dirty_.clear();
  pending_in_batch_ = 0;
}

void PartitionedEngine::Finish() { RunRounds(); }

uint64_t PartitionedEngine::late_events() const {
  uint64_t total = 0;
  for (const auto& [key, part] : partitions_) {
    total += part.engine->late_events();
  }
  return total;
}

uint64_t PartitionedEngine::num_matches() const {
  uint64_t total = 0;
  for (const auto& [key, part] : partitions_) {
    total += part.engine->num_matches();
  }
  return total;
}

uint64_t PartitionedEngine::plan_switches() const {
  uint64_t total = 0;
  for (const auto& [key, part] : partitions_) {
    total += part.engine->plan_switches();
  }
  return total;
}

PlanProfiles PartitionedEngine::Profile() const {
  PlanProfiles live;
  for (const auto& [key, part] : partitions_) {
    FoldPlanProfiles(&live, part.engine->Profile());
  }
  return live;
}

std::string PartitionedEngine::ExplainAnalyze() const {
  const PlanProfiles live = Profile();
  std::ostringstream os;
  if (!options_.label.empty()) os << "query=" << options_.label << " ";
  os.precision(6);
  if (live.empty()) {
    os << "plan=" << plan_.Explain(*pattern_)
       << " cost_est=" << plan_.estimated_cost;
  } else {
    os << "plan=" << live.front().plan
       << " cost_est=" << live.front().estimated_cost;
  }
  os << " [hash-partitioned on " << pattern_->partition->field_name << ", "
     << partitions_.size() << " partitions]\n";
  os << "events_pushed=" << events_pushed_
     << " matches=" << num_matches()
     << " plan_switches=" << plan_switches() << " late=" << late_events()
     << "\n";
  if (live.empty()) {
    os << "(no partitions instantiated yet)\n";
  } else {
    os << RenderPlanProfiles(live);
  }
  return os.str();
}

}  // namespace zstream
