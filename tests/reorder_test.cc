// Reordering stage (Section 4.1's disorder handling), the runtime shard
// that hosts it, and the engine's late-event behaviour.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "exec/reorder.h"
#include "test_util.h"

namespace zstream {
namespace {

using testing::MustAnalyze;
using testing::ReorderedRun;
using testing::RunInReorderingRuntime;
using testing::RunPlan;
using testing::RuntimeMetric;
using testing::Stock;

std::vector<Timestamp> Timestamps(const std::vector<EventPtr>& events) {
  std::vector<Timestamp> out;
  for (const EventPtr& e : events) out.push_back(e->timestamp());
  return out;
}

TEST(ReorderStage, EmitsInTimestampOrder) {
  std::vector<EventPtr> out;
  ReorderStage stage(5);
  for (Timestamp ts : {3, 1, 2, 8, 6, 7, 12}) {
    stage.Push(EventBuilder(StockSchema()).At(ts).Build(), &out);
  }
  // 12 arrived: everything at or below 12 - 5 is released.
  EXPECT_EQ(Timestamps(out), (std::vector<Timestamp>{1, 2, 3, 6, 7}));
  stage.Flush(&out);
  EXPECT_EQ(Timestamps(out), (std::vector<Timestamp>{1, 2, 3, 6, 7, 8, 12}));
  EXPECT_EQ(stage.late_dropped(), 0u);
  EXPECT_EQ(stage.pending(), 0u);
}

TEST(ReorderStage, DropsEventsBeyondSlack) {
  std::vector<EventPtr> out;
  ReorderStage stage(2);
  stage.Push(EventBuilder(StockSchema()).At(10).Build(), &out);
  stage.Push(EventBuilder(StockSchema()).At(13).Build(), &out);  // emits <= 11
  stage.Push(EventBuilder(StockSchema()).At(9).Build(), &out);   // too late
  stage.Flush(&out);
  EXPECT_EQ(Timestamps(out), (std::vector<Timestamp>{10, 13}));
  EXPECT_EQ(stage.late_dropped(), 1u);
}

TEST(ReorderStage, DuplicateTimestampsPreserved) {
  std::vector<EventPtr> out;
  ReorderStage stage(5);
  stage.Push(EventBuilder(StockSchema()).At(4).Build(), &out);
  stage.Push(EventBuilder(StockSchema()).At(4).Build(), &out);
  stage.Flush(&out);
  EXPECT_EQ(out.size(), 2u);
}

std::vector<EventPtr> Shuffled(const std::vector<EventPtr>& sorted,
                               Duration max_disorder, uint64_t seed) {
  // Displace each event by a bounded random amount, then order by the
  // displaced position — bounded out-of-orderness.
  Random rng(seed);
  std::vector<std::pair<double, EventPtr>> keyed;
  for (const auto& e : sorted) {
    keyed.emplace_back(static_cast<double>(e->timestamp()) +
                           rng.NextDouble() *
                               static_cast<double>(max_disorder),
                       e);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<EventPtr> out;
  for (auto& [k, e] : keyed) out.push_back(e);
  return out;
}

TEST(RuntimeReorder, SlackRecoversShuffledStreamExactly) {
  constexpr char kQuery[] =
      "PATTERN A;B;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
      "WITHIN 20";
  const PatternPtr p = MustAnalyze(kQuery);
  Random rng(6);
  std::vector<EventPtr> sorted;
  Timestamp ts = 0;
  for (int i = 0; i < 400; ++i) {
    ts += rng.Uniform(3);
    const char* names[] = {"A", "B", "C"};
    sorted.push_back(Stock(names[rng.Uniform(3)], rng.Uniform(50), ts));
  }
  const auto baseline = RunPlan(p, LeftDeepPlan(*p), sorted);
  ASSERT_FALSE(baseline.empty());

  // The shard's reorder stage (slack > max disorder) hands the engine
  // the in-order stream, event by event and in multi-event runs.
  const auto shuffled = Shuffled(sorted, 10, 7);
  CompileOptions compile;
  compile.strategy = PlanStrategy::kLeftDeep;
  for (const size_t chunk : {size_t{1}, size_t{32}}) {
    const ReorderedRun run =
        RunInReorderingRuntime(kQuery, compile, shuffled, 12, chunk);
    EXPECT_EQ(run.keys, baseline) << "chunk=" << chunk;
    EXPECT_EQ(run.late_dropped, 0u) << "chunk=" << chunk;
  }
}

TEST(EngineReorder, WithoutSlackLateEventsAreDroppedNotCorrupting) {
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 20");
  auto engine = Engine::Create(p, LeftDeepPlan(*p));
  (*engine)->Push(Stock("A", 1, 10));
  (*engine)->Push(Stock("B", 1, 5));  // out of order: dropped
  (*engine)->Push(Stock("B", 1, 12));
  (*engine)->Finish();
  EXPECT_EQ((*engine)->late_events(), 1u);
  EXPECT_EQ((*engine)->num_matches(), 1u);  // (10, 12) only
}

TEST(RuntimeReorder, SlackDelaysButFlushReleases) {
  runtime::RuntimeOptions options;
  options.num_shards = 1;
  options.reorder_slack = 100;
  auto rt = runtime::StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  CompileOptions compile;
  compile.engine.batch_size = 1;
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 20",
      compile);
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("A", 1, 1)));
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("B", 1, 2)));
  // Wait until the shard has taken both events into its reorder stage.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (RuntimeMetric(**rt, "zstream_shard_reorder_pending") < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(RuntimeMetric(**rt, "zstream_shard_reorder_pending"), 2u);
  // Everything is still pending inside the reorder stage.
  EXPECT_EQ((*rt)->query_matches(*id).ValueOr(99), 0u);
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ((*rt)->query_matches(*id).ValueOr(99), 1u);
}

}  // namespace
}  // namespace zstream
