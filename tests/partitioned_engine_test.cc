// PartitionedEngine: callback propagation to late-created partitions
// (regression), cross-partition plan switching, merged statistics, span
// ingest, and reordering in front of it.
#include "exec/partitioned_engine.h"

#include "test_util.h"
#include "workload/stock_gen.h"

namespace zstream::testing {
namespace {

constexpr char kQuery[] =
    "PATTERN A;B WHERE A.name = B.name AND A.price < B.price WITHIN 100";

std::unique_ptr<PartitionedEngine> MakeEngine(const PatternPtr& p,
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
  auto engine = MakeEngine(p, LeftDeepPlan(*p));

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
  auto engine = MakeEngine(p, LeftDeepPlan(*p), options);

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

TEST(PartitionedEngine, SwitchPlanPreservesMatchSetAcrossPartitions) {
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name "
      "AND A.price < B.price AND B.price < C.price WITHIN 100");
  StockGenOptions gen;
  gen.names = {"S0", "S1", "S2", "S3"};
  gen.weights = {1.0, 1.0, 1.0, 1.0};
  gen.num_events = 4000;
  gen.seed = 11;
  const auto events = GenerateStockTrades(gen);

  // Baseline: left-deep throughout.
  std::vector<std::string> expected;
  {
    auto base = MakeEngine(p, LeftDeepPlan(*p));
    base->SetMatchCallback([&](Match&& m) { expected.push_back(MatchKey(m)); });
    for (const EventPtr& e : events) base->Push(e);
    base->Finish();
    std::sort(expected.begin(), expected.end());
  }
  ASSERT_FALSE(expected.empty());

  // Same trace with a mid-stream switch to right-deep on every partition.
  auto engine = MakeEngine(p, LeftDeepPlan(*p));
  std::vector<std::string> keys;
  engine->SetMatchCallback([&](Match&& m) { keys.push_back(MatchKey(m)); });
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) engine->Push(events[i]);
  ASSERT_TRUE(engine->SwitchPlan(RightDeepPlan(*p)).ok());
  EXPECT_EQ(engine->plan_switches(), 1u);
  for (size_t i = half; i < events.size(); ++i) engine->Push(events[i]);
  engine->Finish();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, expected);
}

TEST(PartitionedEngine, StatsSnapshotMergesPartitionStats) {
  // Leaf predicates split the price range 10%/90%, so the merged
  // windowed stats must report class A well below class B.
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B WHERE A.name = B.name AND A.price > 90 "
      "AND B.price <= 90 WITHIN 100");
  EngineOptions options;
  options.collect_stats = true;
  auto engine = MakeEngine(p, LeftDeepPlan(*p), options);

  StockGenOptions gen;
  gen.names = {"S0", "S1", "S2"};
  gen.weights = {1.0, 1.0, 1.0};
  gen.num_events = 6000;
  gen.seed = 21;
  for (const EventPtr& e : GenerateStockTrades(gen)) engine->Push(e);
  engine->Finish();

  const StatsCatalog defaults(p->num_classes(),
                              static_cast<double>(p->window));
  const StatsCatalog merged = engine->StatsSnapshot(defaults);
  EXPECT_GT(merged.rate(1), merged.rate(0) * 4);
}

TEST(MergeStatsCatalogs, RatesSumAndSelectivitiesAverage) {
  StatsCatalog a(2, 100.0), b(2, 100.0);
  a.set_rate(0, 1.0);
  a.set_rate(1, 3.0);
  b.set_rate(0, 2.0);
  b.set_rate(1, 5.0);
  a.SetPairSel(0, 1, 0.2);
  b.SetPairSel(0, 1, 0.6);
  // Weights 1:3 -> selectivity 0.2*0.25 + 0.6*0.75 = 0.5; rates sum.
  const StatsCatalog merged = MergeStatsCatalogs({a, b}, {1.0, 3.0});
  EXPECT_DOUBLE_EQ(merged.rate(0), 3.0);
  EXPECT_DOUBLE_EQ(merged.rate(1), 8.0);
  EXPECT_DOUBLE_EQ(merged.PairSel(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(merged.window(), 100.0);
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
    auto serial = MakeEngine(p, LeftDeepPlan(*p), options);
    serial->SetMatchCallback(
        [&](Match&& m) { expected.push_back(MatchKey(m)); });
    for (const EventPtr& e : events) serial->Push(e);
    serial->Finish();
    ASSERT_EQ(serial->late_events(), 1u);
    std::sort(expected.begin(), expected.end());
    ASSERT_FALSE(expected.empty());

    for (const size_t span : {size_t{3}, size_t{50}, events.size()}) {
      std::vector<std::string> keys;
      auto engine = MakeEngine(p, LeftDeepPlan(*p), options);
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
