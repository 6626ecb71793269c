// PartitionedEngine: callback propagation to late-created partitions
// (regression), per-partition adaptation and its read-back, span ingest,
// and reordering in front of it.
#include "exec/partitioned_engine.h"

#include "api/internal.h"
#include "test_util.h"
#include "workload/stock_gen.h"

namespace zstream::testing {
namespace {

constexpr char kQuery[] =
    "PATTERN A;B WHERE A.name = B.name AND A.price < B.price WITHIN 100";

std::unique_ptr<PartitionedEngine> MakePartitioned(const PatternPtr& p,
                                              const PhysicalPlan& plan,
                                              EngineOptions options = {}) {
  auto engine = PartitionedEngine::Create(p, plan, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(*engine);
}

// Regression: the callback is installed BEFORE any event arrives, so
// every partition is created after it; each must still deliver.
TEST(PartitionedEngine, PartitionsCreatedAfterCallbackInheritIt) {
  const PatternPtr p = MustAnalyze(kQuery);
  ASSERT_TRUE(p->partition.has_value());
  auto engine = MakePartitioned(p, LeftDeepPlan(*p));

  uint64_t delivered = 0;
  engine->SetMatchCallback([&](Match&&) { ++delivered; });
  ASSERT_EQ(engine->num_partitions(), 0u);  // nothing exists yet

  for (int k = 0; k < 4; ++k) {
    const std::string name = "SYM" + std::to_string(k);
    engine->Push(Stock(name, 10.0, 4 * k));
    engine->Push(Stock(name, 20.0, 4 * k + 1));
  }
  engine->Finish();

  EXPECT_EQ(engine->num_partitions(), 4u);
  EXPECT_EQ(engine->num_matches(), 4u);
  EXPECT_EQ(delivered, engine->num_matches());
}

// Clearing the callback must also apply to partitions created later.
TEST(PartitionedEngine, ClearedCallbackAppliesToNewPartitions) {
  const PatternPtr p = MustAnalyze(kQuery);
  EngineOptions options;
  options.batch_size = 1;  // deliver X's match before the clear below
  auto engine = MakePartitioned(p, LeftDeepPlan(*p), options);

  uint64_t delivered = 0;
  engine->SetMatchCallback([&](Match&&) { ++delivered; });
  engine->Push(Stock("X", 10.0, 0));
  engine->Push(Stock("X", 20.0, 1));
  engine->SetMatchCallback(nullptr);
  engine->Push(Stock("Y", 10.0, 2));  // partition created after clearing
  engine->Push(Stock("Y", 20.0, 3));
  engine->Finish();

  EXPECT_EQ(engine->num_matches(), 2u);
  EXPECT_EQ(delivered, 1u);  // only X's match, before the clear
}

// Every partition adapts on its own statistics (Section 5.3's
// state-preserving switch, per partition): the match set stays the
// static plan's, and the partitions' switches add up.
TEST(PartitionedEngine, AdaptivePartitionsKeepMatchSetExact) {
  const PatternPtr p = MustAnalyze(kKeyedPhaseQuery);
  ASSERT_TRUE(p->partition.has_value());
  const auto events = PhaseShiftStream(3000, 4);

  std::vector<std::string> expected;
  {
    auto base = MakePartitioned(p, LeftDeepPlan(*p));
    base->SetMatchCallback([&](Match&& m) { expected.push_back(MatchKey(m)); });
    for (const EventPtr& e : events) base->Push(e);
    base->Finish();
    std::sort(expected.begin(), expected.end());
  }
  ASSERT_FALSE(expected.empty());

  auto engine =
      MakePartitioned(p, LeftDeepPlan(*p), PhaseShiftAdaptiveOptions());
  std::vector<std::string> keys;
  engine->SetMatchCallback([&](Match&& m) { keys.push_back(MatchKey(m)); });
  for (const EventPtr& e : events) engine->Push(e);
  engine->Finish();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, expected);
  EXPECT_GT(engine->plan_switches(), 0u);
}

// Regression: a partitioned adaptive Query reported the registered plan,
// zero switches and, once partitions ran different plans, a profile cut
// short at the first mismatch. Its EXPLAIN ANALYZE must cover every
// event, whichever plan each partition runs.
TEST(PartitionedEngine, AdaptiveQueryReportsEveryPartition) {
  ZStream zs(StockSchema());
  CompileOptions compile;
  compile.strategy = PlanStrategy::kLeftDeep;
  compile.engine = PhaseShiftAdaptiveOptions();
  auto query = zs.Compile(kKeyedPhaseQuery, compile);
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_TRUE((*query)->partitioned());
  const auto events = PhaseShiftStream(20000, 8);
  for (const EventPtr& e : events) (*query)->Push(e);
  (*query)->Finish();

  EXPECT_GT((*query)->plan_switches(), 0u);
  const PlanProfiles live =
      zstream::internal::QueryAccess::Core(**query)->Profile();
  ASSERT_FALSE(live.empty());
  // Odd keys end on the mirrored plan: both plans are live.
  ASSERT_GE(live.size(), 2u);
  EXPECT_EQ((*query)->CurrentPlan(), live.front().plan);
  uint64_t engines = 0;
  for (const PlanProfile& plan : live) engines += plan.engines;
  EXPECT_EQ(engines, 8u);

  // Each leaf is offered every event of its partition, so per class the
  // leaf rows' in= counts add up to the whole stream across all trees.
  const std::string text = (*query)->ExplainAnalyze();
  for (const std::string leaf : {"LEAF A in=", "LEAF B in=", "LEAF C in="}) {
    uint64_t offered = 0;
    for (size_t at = text.find(leaf); at != std::string::npos;
         at = text.find(leaf, at + 1)) {
      offered += std::stoull(text.substr(at + leaf.size()));
    }
    EXPECT_EQ(offered, events.size()) << leaf << "\n" << text;
  }
}

// PushBatch routes a span event by event and runs rounds every
// batch_size events, so any split of the stream into spans yields the
// per-event Push match set, including late drops inside a span.
TEST(PartitionedEngine, PushBatchMatchesPerEventPush) {
  const PatternPtr p = MustAnalyze(kQuery);
  StockGenOptions gen;
  gen.names = {"SYM0", "SYM1", "SYM2", "SYM3"};
  gen.weights = {1, 1, 1, 1};
  gen.num_events = 500;
  std::vector<EventPtr> events = GenerateStockTrades(gen);
  events.insert(events.begin() + 250, Stock("SYM1", 1.0, 3));  // late
  for (const int batch_size : {1, 7, 64}) {
    EngineOptions options;
    options.batch_size = batch_size;
    std::vector<std::string> expected;
    auto serial = MakePartitioned(p, LeftDeepPlan(*p), options);
    serial->SetMatchCallback(
        [&](Match&& m) { expected.push_back(MatchKey(m)); });
    for (const EventPtr& e : events) serial->Push(e);
    serial->Finish();
    ASSERT_EQ(serial->late_events(), 1u);
    std::sort(expected.begin(), expected.end());
    ASSERT_FALSE(expected.empty());

    for (const size_t span : {size_t{3}, size_t{50}, events.size()}) {
      std::vector<std::string> keys;
      auto engine = MakePartitioned(p, LeftDeepPlan(*p), options);
      engine->SetMatchCallback(
          [&](Match&& m) { keys.push_back(MatchKey(m)); });
      for (size_t i = 0; i < events.size(); i += span) {
        engine->PushBatch(
            EventBatch{events.data() + i, std::min(span, events.size() - i)});
      }
      engine->Finish();
      std::sort(keys.begin(), keys.end());
      EXPECT_EQ(keys, expected) << "batch_size=" << batch_size
                                << " span=" << span;
      EXPECT_EQ(engine->late_events(), 1u);
      EXPECT_EQ(engine->events_pushed(), events.size());
    }
  }
}

// Regression (zstream_fuzz): reorder slack used to be ignored on the
// partitioned path, which drops out-of-order events per sub-engine. The
// reorder stage must sit BEFORE partition routing (a per-partition stage
// could never see cross-partition disorder); it now lives only at the
// runtime shard, in front of the PartitionedEngine.
TEST(PartitionedEngine, ReorderSlackAppliesBeforeRouting) {
  ASSERT_TRUE(MustAnalyze(kQuery)->partition.has_value());
  const std::vector<EventPtr> events = {
      // Same partition, out of order: @2 used to be dropped as late.
      Stock("SYM0", 20.0, 9), Stock("SYM0", 10.0, 2),
      // Cross-partition interleaving, also out of order.
      Stock("SYM1", 20.0, 8), Stock("SYM1", 10.0, 3)};
  CompileOptions compile;
  compile.strategy = PlanStrategy::kLeftDeep;
  for (const size_t chunk : {size_t{1}, events.size()}) {
    const ReorderedRun run =
        RunInReorderingRuntime(kQuery, compile, events, 10, chunk);
    EXPECT_EQ(run.late_dropped, 0u) << "chunk=" << chunk;
    // (10@2, 20@9) and (10@3, 20@8)
    EXPECT_EQ(run.keys.size(), 2u) << "chunk=" << chunk;
  }
}

}  // namespace
}  // namespace zstream::testing
