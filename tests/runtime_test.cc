// Concurrency tests for runtime::StreamRuntime (designed to run clean
// under ThreadSanitizer; the CI `thread` job builds this binary with
// -fsanitize=thread).
//
// The determinism tests compare the sharded runtime's match set — not
// just the count — against a single-threaded CompiledQuery on the same
// pre-recorded trace, using CanonicalMatchKey on both sides.
#include "runtime/stream_runtime.h"

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "runtime/mpsc_queue.h"
#include "test_util.h"
#include "workload/driver.h"
#include "workload/stock_gen.h"
#include "workload/weblog_gen.h"

namespace zstream::testing {
namespace {

using runtime::BackpressurePolicy;
using runtime::CollectingMatchSink;
using runtime::MpscRingQueue;
using runtime::QueryId;
using runtime::QueryOptions;
using runtime::RuntimeOptions;
using runtime::StreamId;
using runtime::StreamRuntime;

// Paper Query 2's shape: three same-name trades with rising prices; the
// analyzer turns the name equalities into a partition key, which is the
// runtime's sharding axis.
constexpr char kPartitionedQuery[] =
    "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name "
    "AND A.price < B.price AND B.price < C.price WITHIN 100";

std::vector<EventPtr> ManyNameTrades(int64_t num_events, uint64_t seed) {
  StockGenOptions gen;
  gen.names.clear();
  gen.weights.clear();
  for (int i = 0; i < 16; ++i) {
    gen.names.push_back("SYM" + std::to_string(i));
    gen.weights.push_back(1.0);
  }
  gen.num_events = num_events;
  gen.seed = seed;
  return GenerateStockTrades(gen);
}

/// Single-threaded reference: match keys of `text` over `events`.
std::vector<std::string> SingleThreadedKeys(
    const SchemaPtr& schema, const std::string& text,
    const std::vector<EventPtr>& events) {
  ZStream zs(schema);
  auto query = zs.Compile(text);
  EXPECT_TRUE(query.ok()) << query.status();
  std::vector<std::string> keys;
  (*query)->SetMatchCallback([&](Match&& m) {
    keys.push_back(runtime::CanonicalMatchKey(m));
  });
  for (const EventPtr& e : events) (*query)->Push(e);
  (*query)->Finish();
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Drain budget of the queue unit tests, in ns; the tests set the cost.
constexpr uint64_t kBudgetNs = 1000;

/// TryPush of one unit (nothing to cut).
bool TryPushOne(MpscRingQueue<int>* q, int v) {
  return q->TryPush(&v, 1, [](int*, size_t) {}) == 1;
}

/// Polls until `done()` holds; false after 10 s.
template <typename Pred>
bool Eventually(Pred done) {
  for (int i = 0; i < 10000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(MpscRingQueue, OrdersAndBounds) {
  MpscRingQueue<int> q(4, kBudgetNs);
  EXPECT_TRUE(TryPushOne(&q, 1));
  EXPECT_TRUE(TryPushOne(&q, 2));
  EXPECT_TRUE(TryPushOne(&q, 3));
  EXPECT_TRUE(TryPushOne(&q, 4));
  EXPECT_FALSE(TryPushOne(&q, 5));  // full
  int out = 0;
  for (int want : {1, 2, 3}) {
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, want);
  }
  EXPECT_TRUE(TryPushOne(&q, 6));
  for (int want : {4, 6}) {
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, want);
  }
  q.Close();
  EXPECT_FALSE(TryPushOne(&q, 7));
  EXPECT_FALSE(q.Pop(&out));  // closed and drained
}

TEST(MpscRingQueue, ManyProducersDeliverEverything) {
  MpscRingQueue<int> q(64, kBudgetNs);
  q.SetDrainCost(1);  // the capacity binds, not the budget
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int v = p;
        q.Push(&v);
      }
    });
  }
  int64_t got = 0;
  std::thread consumer([&] {
    int item = 0;
    while (q.Pop(&item)) ++got;
  });
  for (auto& t : producers) t.join();
  q.Close();
  consumer.join();
  EXPECT_EQ(got, kProducers * kPerProducer);
}

TEST(MpscRingQueue, BlockingPushStopsAtDrainBudget) {
  MpscRingQueue<int> q(64, kBudgetNs);
  q.SetDrainCost(300);  // ⌈1000 / 300⌉ = 4 items reach the budget
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 0; i < 10; ++i) {
      int v = i;
      ASSERT_TRUE(q.Push(&v));
      ++pushed;
    }
  });
  ASSERT_TRUE(Eventually([&] { return pushed.load() == 4; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(pushed.load(), 4);  // 4 × 300 ns >= the budget: it waits
  EXPECT_EQ(q.size(), 4u);
  int out = -1;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 0);
  // The consumer drained one: the producer resumes, and stops again.
  ASSERT_TRUE(Eventually([&] { return pushed.load() == 5; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pushed.load(), 5);
  EXPECT_EQ(q.size(), 4u);
  for (int want = 1; want < 10; ++want) {
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, want);
  }
  producer.join();
  EXPECT_EQ(q.size(), 0u);
}

TEST(MpscRingQueue, EmptyQueueAdmitsRunCostlierThanBudget) {
  MpscRingQueue<int> q(64, kBudgetNs);
  q.SetDrainCost(300);
  int run = 1;
  ASSERT_TRUE(q.Push(&run, 10));  // 3000 ns of work, but the queue is empty
  EXPECT_EQ(q.size(), 10u);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    int v = 2;
    EXPECT_TRUE(q.Push(&v));
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load());  // over budget and not empty: waits
  int out = 0;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_EQ(q.size(), 1u);
}

TEST(MpscRingQueue, BlockingPushWaitsForEmptyBeforeCostIsSet) {
  MpscRingQueue<int> q(64, kBudgetNs);
  int v = 1;
  ASSERT_TRUE(q.Push(&v));  // empty: admitted with no cost known
  std::atomic<bool> done{false};
  std::thread producer([&] {
    int w = 2;
    EXPECT_TRUE(q.Push(&w));
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load());  // no cost measured: waits for empty
  EXPECT_EQ(q.size(), 1u);
  int out = 0;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  producer.join();
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
}

TEST(MpscRingQueue, TryPushIgnoresBudgetAndStopsAtCapacity) {
  MpscRingQueue<std::vector<int>> q(8, kBudgetNs);
  q.SetDrainCost(1'000'000);  // a single unit is over the budget
  const auto keep_first = [](std::vector<int>* v, size_t k) { v->resize(k); };
  std::vector<int> run = {1, 2, 3};
  EXPECT_EQ(q.TryPush(&run, 3, keep_first), 3u);
  run = {4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(q.TryPush(&run, 7, keep_first), 5u);  // the newest two cut
  EXPECT_EQ(q.size(), 8u);
  run = {11};
  EXPECT_EQ(q.TryPush(&run, 1, keep_first), 0u);  // full
  EXPECT_EQ(run, std::vector<int>{11});           // left as it was
  std::vector<int> out;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, (std::vector<int>{4, 5, 6, 7, 8}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(StreamRuntime, ShardedStockMatchesEqualSingleThreaded) {
  const auto events = ManyNameTrades(20000, 99);
  const auto expected =
      SingleThreadedKeys(StockSchema(), kPartitionedQuery, events);
  ASSERT_FALSE(expected.empty());

  RuntimeOptions options;
  options.num_shards = 4;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());

  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts);
  ASSERT_TRUE(id.ok()) << id.status();

  for (const EventPtr& e : events) {
    ASSERT_TRUE((*rt)->Ingest(*stream, e));
  }
  ASSERT_TRUE((*rt)->Flush().ok());

  EXPECT_EQ(sink.SortedKeys(), expected);
  auto matches = (*rt)->query_matches(*id);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(*matches, expected.size());
  auto shard_count = (*rt)->query_shard_count(*id);
  ASSERT_TRUE(shard_count.ok());
  EXPECT_EQ(*shard_count, 4);
  auto peak = (*rt)->query_peak_bytes(*id);
  ASSERT_TRUE(peak.ok());
  EXPECT_GT(*peak, 0);
}

TEST(StreamRuntime, IngestBatchEqualsSingleThreaded) {
  const auto events = ManyNameTrades(20000, 7);
  const auto expected =
      SingleThreadedKeys(StockSchema(), kPartitionedQuery, events);

  RuntimeOptions options;
  options.num_shards = 4;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts);
  ASSERT_TRUE(id.ok());

  EXPECT_EQ((*rt)->IngestBatch(*stream, events), 0u);
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);
}

TEST(StreamRuntime, MultiProducerKeyPartitionedPushIsExact) {
  const auto events = ManyNameTrades(20000, 123);
  const auto expected =
      SingleThreadedKeys(StockSchema(), kPartitionedQuery, events);
  ASSERT_FALSE(expected.empty());

  RuntimeOptions options;
  options.num_shards = 4;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts);
  ASSERT_TRUE(id.ok());

  // Four producers, each owning the symbols that hash to it: every
  // partition key still sees its events in timestamp order, so the
  // match set must be exact.
  ConcurrentDriveOptions drive;
  drive.num_producers = 4;
  drive.partition_field = StockSchema()->FieldIndex("name");
  ASSERT_GE(drive.partition_field, 0);
  StreamRuntime* raw = rt->get();
  const StreamId sid = *stream;
  const auto result = DriveConcurrently(
      events, drive,
      [raw, sid](const EventPtr& e) { return raw->Ingest(sid, e); });
  EXPECT_EQ(result.rejected, 0u);
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);
}

TEST(StreamRuntime, WebLogQuery8MatchesEqualSingleThreaded) {
  constexpr char kQuery8[] =
      "PATTERN Pub;Proj;Course "
      "WHERE Pub.category='publication' AND Proj.category='project' "
      "AND Course.category='course' "
      "AND Pub.ip = Proj.ip = Course.ip "
      "WITHIN 10 hours";
  WebLogGenOptions gen;
  gen.total_records = 120000;
  gen.publication_accesses = 550;
  gen.project_accesses = 930;
  gen.course_accesses = 1290;
  gen.num_ips = 120;
  gen.num_burst_ips = 2;
  const auto events = GenerateWebLog(gen);
  const auto expected = SingleThreadedKeys(WebLogSchema(), kQuery8, events);
  ASSERT_FALSE(expected.empty());

  RuntimeOptions options;
  options.num_shards = 4;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("weblog", WebLogSchema());
  ASSERT_TRUE(stream.ok());
  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kQuery8, {}, qopts);
  ASSERT_TRUE(id.ok()) << id.status();

  EXPECT_EQ((*rt)->IngestBatch(*stream, events), 0u);
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);
}

TEST(StreamRuntime, RegisterUnregisterWhileIngesting) {
  const auto events = ManyNameTrades(30000, 5);
  const auto expected =
      SingleThreadedKeys(StockSchema(), kPartitionedQuery, events);

  RuntimeOptions options;
  options.num_shards = 4;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());

  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto primary = (*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts);
  ASSERT_TRUE(primary.ok());

  StreamRuntime* raw = rt->get();
  const StreamId sid = *stream;
  std::thread producer([raw, sid, &events] {
    for (const EventPtr& e : events) raw->Ingest(sid, e);
  });

  // Churn two keyless (pinned) secondary queries while the producer
  // runs; their counts depend on registration timing, but the primary
  // query's match set must stay exact and nothing may race.
  constexpr char kKeyless[] =
      "PATTERN X;Y WHERE X.name = 'SYM0' AND Y.name = 'SYM1' "
      "AND X.price > Y.price WITHIN 20";
  for (int round = 0; round < 5; ++round) {
    auto secondary = (*rt)->RegisterQuery(*stream, kKeyless);
    ASSERT_TRUE(secondary.ok()) << secondary.status();
    EXPECT_EQ(*(*rt)->query_shard_count(*secondary), 1);
    auto tertiary = (*rt)->RegisterQuery(*stream, kKeyless);
    ASSERT_TRUE(tertiary.ok());
    auto removed = (*rt)->UnregisterQuery(*secondary);
    ASSERT_TRUE(removed.ok());
    auto removed2 = (*rt)->UnregisterQuery(*tertiary);
    ASSERT_TRUE(removed2.ok());
  }

  producer.join();
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);
}

TEST(StreamRuntime, BackpressureDropNewestCountsExactly) {
  RuntimeOptions options;
  options.num_shards = 1;
  options.queue_capacity = 8;
  options.backpressure = BackpressurePolicy::kDropNewest;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.name = B.name WITHIN 10");
  ASSERT_TRUE(id.ok());

  // Park the only worker so the queue fills deterministically.
  auto gate = (*rt)->PauseShard(0);
  ASSERT_NE(gate, nullptr);
  gate->WaitParked();

  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if ((*rt)->Ingest(*stream, Stock("SYM", 10.0, i))) ++accepted;
  }
  EXPECT_EQ(accepted, 8);  // ring capacity

  gate->Open();
  ASSERT_TRUE((*rt)->Flush().ok());
  const uint64_t ingested =
      RuntimeMetric(**rt, "zstream_events_ingested_total");
  const uint64_t processed =
      RuntimeMetric(**rt, "zstream_shard_events_processed_total");
  const uint64_t dropped =
      RuntimeMetric(**rt, "zstream_shard_events_dropped_total");
  EXPECT_EQ(ingested, 20u);
  EXPECT_EQ(processed, 8u);
  EXPECT_EQ(dropped, 12u);
  EXPECT_EQ(processed + dropped, ingested);
  ASSERT_EQ((*rt)->num_shards(), 1);
  EXPECT_EQ(RuntimeMetric(**rt, "zstream_shard_events_dropped_total",
                          /*shard=*/0),
            12u);
}

TEST(StreamRuntime, BackpressureBlockLosesNothing) {
  RuntimeOptions options;
  options.num_shards = 1;
  options.queue_capacity = 4;
  options.backpressure = BackpressurePolicy::kBlock;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.name = B.name WITHIN 10");
  ASSERT_TRUE(id.ok());

  auto gate = (*rt)->PauseShard(0);
  ASSERT_NE(gate, nullptr);
  gate->WaitParked();

  StreamRuntime* raw = rt->get();
  const StreamId sid = *stream;
  std::thread producer([raw, sid] {
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(raw->Ingest(sid, Stock("SYM", 10.0, 1000 + i)));
    }
  });
  gate->Open();
  producer.join();
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(RuntimeMetric(**rt, "zstream_shard_events_dropped_total"), 0u);
  EXPECT_EQ(RuntimeMetric(**rt, "zstream_shard_events_processed_total"),
            64u);
}

/// Spins for `ns` on every match, so each event costs the shard worker
/// a known order of magnitude.
class SpinningSink final : public runtime::MatchSink {
 public:
  explicit SpinningSink(uint64_t ns) : ns_(ns) {}
  void Publish(runtime::RuntimeMatch&&) override {
    const uint64_t until = obs::MonotonicNanos() + ns_;
    while (obs::MonotonicNanos() < until) {
    }
  }

 private:
  const uint64_t ns_;
};

TEST(StreamRuntime, BlockingIngestStopsAtDrainBudget) {
  RuntimeOptions options;
  options.num_shards = 1;  // default 4096-event queue, kBlock
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  SpinningSink sink(2000);
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.name = B.name WITHIN 10", {}, qopts);
  ASSERT_TRUE(id.ok());

  // Runs of 10 events, one timestamp apart: each event matches about
  // ten earlier ones, so the worker measures tens of us per event.
  constexpr size_t kRun = 10;
  Timestamp ts = 0;
  const auto ingest_runs = [&](int events) {
    std::vector<EventPtr> run;
    for (int i = 0; i < events; ++i) {
      run.push_back(Stock("SYM", 10.0, ++ts));
      if (run.size() == kRun) {
        EXPECT_EQ((*rt)->IngestBatch(*stream, run), 0u);
        run.clear();
      }
    }
  };
  ingest_runs(500);
  ASSERT_TRUE((*rt)->Flush().ok());
  const uint64_t estimate =
      RuntimeMetric(**rt, "zstream_shard_drain_ns_per_event");
  ASSERT_GT(estimate, 0u);
  // 1 ms of queued events at the estimate.
  const uint64_t budget_events = (1'000'000 + estimate - 1) / estimate;
  ASSERT_LT(budget_events, 1000u) << "sink spin did not register";

  auto gate = (*rt)->PauseShard(0);
  ASSERT_NE(gate, nullptr);
  gate->WaitParked();
  std::thread producer([&] { ingest_runs(10000); });
  const auto depth = [&] {
    return RuntimeMetric(**rt, "zstream_shard_queue_depth");
  };
  ASSERT_TRUE(Eventually([&] { return depth() >= budget_events; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The producer stopped once the queue held the budget's worth; the
  // run that crossed it is the only excess.
  EXPECT_GE(depth(), budget_events);
  EXPECT_LE(depth(), budget_events + kRun - 1);

  gate->Open();
  producer.join();
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(RuntimeMetric(**rt, "zstream_shard_events_processed_total"),
            10500u);
  EXPECT_EQ(RuntimeMetric(**rt, "zstream_shard_events_dropped_total"), 0u);
}

TEST(StreamRuntime, KeyedAdaptiveQueryKeepsMatchSetExact) {
  // Class rates flip in every key, so each shard's partitions re-plan
  // on their own statistics; the switches must neither lose nor
  // duplicate a match (Section 5.3 under concurrency).
  const PatternPtr p = MustAnalyze(kKeyedPhaseQuery);
  ASSERT_TRUE(p->partition.has_value());
  const auto events = PhaseShiftStream(4000, 8);
  const PhysicalPlan initial = LeftDeepPlan(*p);
  std::vector<std::string> expected;
  {
    auto engine = PartitionedEngine::Create(p, initial);
    ASSERT_TRUE(engine.ok());
    (*engine)->SetMatchCallback([&](Match&& m) {
      expected.push_back(runtime::CanonicalMatchKey(m));
    });
    for (const EventPtr& e : events) (*engine)->Push(e);
    (*engine)->Finish();
    std::sort(expected.begin(), expected.end());
  }
  ASSERT_FALSE(expected.empty());

  RuntimeOptions options;
  options.num_shards = 2;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());

  obs::Counter* switches = obs::Registry::Default().GetCounter(
      "zstream_replan_switches_total", {});
  const uint64_t switches_before = switches->value();
  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, p, initial,
                                 PhaseShiftAdaptiveOptions(), qopts);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ((*rt)->IngestBatch(*stream, events), 0u);
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);
  EXPECT_GT(switches->value(), switches_before);
}

/// Rebuilds a plan's Explain shape ("[A ; [B ; C]]") from the indented
/// SEQ/LEAF rows of an EXPLAIN ANALYZE tree, starting at rows[*at].
std::string ShapeOfRows(const std::vector<std::string>& rows, size_t* at) {
  const std::string& row = rows[(*at)++];
  const std::string label = row.substr(row.find_first_not_of(' '));
  if (label.starts_with("LEAF ")) {
    return label.substr(5, label.find(" in=") - 5);
  }
  const std::string left = ShapeOfRows(rows, at);
  const std::string right = ShapeOfRows(rows, at);
  return "[" + left + " ; " + right + "]";
}

// Regression: the runtime's header and cost gauge named the registered
// plan after a keyless adaptive engine had switched away from it.
TEST(StreamRuntime, AdaptiveQueryExplainNamesTheLivePlan) {
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B;C WHERE A.volume = 1 AND B.volume = 2 AND C.volume = 3 "
      "WITHIN 30");
  ASSERT_FALSE(p->partition.has_value());
  const PhysicalPlan initial = LeftDeepPlan(*p);
  auto rt = StreamRuntime::Create();
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(*stream, p, initial,
                                 PhaseShiftAdaptiveOptions());
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ((*rt)->IngestBatch(*stream, PhaseShiftStream(4000, 1)), 0u);
  ASSERT_TRUE((*rt)->Flush().ok());

  (*rt)->UpdateMetrics();
  obs::Gauge* cost = (*rt)->metrics_registry().GetGauge(
      "zstream_query_plan_cost_estimate", {{"query", "q" + std::to_string(*id)}});
  const int64_t registered_cost = cost->value();
  EXPECT_EQ(registered_cost, static_cast<int64_t>(initial.estimated_cost));

  auto rendered = (*rt)->ExplainAnalyze(*id);
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  std::vector<std::string> rows;
  std::istringstream lines(*rendered);
  for (std::string line; std::getline(lines, line);) {
    if (line.find(" in=") != std::string::npos) rows.push_back(line);
  }
  ASSERT_FALSE(rows.empty()) << *rendered;
  size_t at = 0;
  const std::string tree = ShapeOfRows(rows, &at);
  EXPECT_EQ(at, rows.size()) << "one live plan, one tree:\n" << *rendered;
  // C turned rare last: the engine left the registered left-deep plan.
  EXPECT_EQ(tree, "[A ; [B ; C]]") << *rendered;
  EXPECT_NE(rendered->find(" plan=" + tree + " "), std::string::npos)
      << *rendered;

  (*rt)->UpdateMetrics();
  EXPECT_NE(cost->value(), registered_cost);
}

TEST(StreamRuntime, StartRuntimeFacade) {
  ZStream zs(StockSchema());
  auto rt = zs.StartRuntime();
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto stream = (*rt)->stream("default");
  ASSERT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(
      *stream,
      "PATTERN A;B WHERE A.name = B.name AND A.price < B.price WITHIN 50");
  ASSERT_TRUE(id.ok()) << id.status();
  const auto events = ManyNameTrades(5000, 3);
  EXPECT_EQ((*rt)->IngestBatch(*stream, events), 0u);
  ASSERT_TRUE((*rt)->Flush().ok());
  auto matches = (*rt)->query_matches(*id);
  ASSERT_TRUE(matches.ok());
  EXPECT_GT(*matches, 0u);
  EXPECT_EQ(RuntimeMetric(**rt, "zstream_shard_events_processed_total"),
            events.size());
  const std::string json = (*rt)->MetricsJson();
  EXPECT_NE(json.find("\"zstream_shard_events_processed_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"zstream_uptime_seconds\""), std::string::npos);
  (*rt)->Stop();
  EXPECT_FALSE((*rt)->Ingest(*stream, events.front()));
  EXPECT_TRUE((*rt)->Flush().IsFailedPrecondition());
}

// The facade binds every catalog stream under its name, queries
// register per stream, and events route only to their own stream's
// queries.
TEST(StreamRuntime, FacadeBindsAllCatalogStreams) {
  ZStream zs;
  ASSERT_TRUE(zs.catalog().CreateStream("stock", StockSchema()).ok());
  ASSERT_TRUE(zs.catalog().CreateStream("weblog", WebLogSchema()).ok());
  RuntimeOptions options;
  options.num_shards = 2;
  auto rt = zs.StartRuntime(options);
  ASSERT_TRUE(rt.ok()) << rt.status();
  EXPECT_EQ((*rt)->StreamNames(),
            (std::vector<std::string>{"stock", "weblog"}));

  const auto stock = (*rt)->stream("stock");
  const auto weblog = (*rt)->stream("weblog");
  ASSERT_TRUE(stock.ok() && weblog.ok());
  EXPECT_TRUE((*rt)->stream("nope").status().IsNotFound());
  auto stock_q = (*rt)->RegisterQuery(
      *stock, "PATTERN A;B WHERE A.price > B.price WITHIN 10");
  ASSERT_TRUE(stock_q.ok()) << stock_q.status();
  auto web_q = (*rt)->RegisterQuery(
      *weblog,
      "PATTERN Pub;Course WHERE Pub.category='publication' "
      "AND Course.category='course' AND Pub.ip = Course.ip WITHIN 100");
  ASSERT_TRUE(web_q.ok()) << web_q.status();

  ASSERT_TRUE((*rt)->Ingest(*stock, Stock("IBM", 100, 1)));
  ASSERT_TRUE((*rt)->Ingest(*stock, Stock("Sun", 50, 2)));
  const auto web_event = [&](const char* ip, const char* cat,
                             Timestamp ts) {
    return EventBuilder(WebLogSchema())
        .Set("ip", ip)
        .Set("url", "/x")
        .Set("category", cat)
        .At(ts)
        .Build();
  };
  ASSERT_TRUE((*rt)->Ingest(*weblog, web_event("1.2.3.4",
                                                "publication", 1)));
  ASSERT_TRUE((*rt)->Ingest(*weblog, web_event("1.2.3.4", "course", 2)));
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(*(*rt)->query_matches(*stock_q), 1u);
  EXPECT_EQ(*(*rt)->query_matches(*web_q), 1u);
}

// Regression: a MatchSink callback may call runtime accessors (which
// take control_mu_); Flush/Unregister must not hold that mutex while
// waiting on the workers, or this deadlocks.
TEST(StreamRuntime, SinkMayReenterRuntimeAccessors) {
  RuntimeOptions options;
  options.num_shards = 2;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());

  StreamRuntime* raw = rt->get();
  std::atomic<uint64_t> reentrant_reads{0};
  runtime::CallbackMatchSink sink([&](runtime::RuntimeMatch&& m) {
    auto matches = raw->query_matches(m.query);  // takes control_mu_
    if (matches.ok()) reentrant_reads.fetch_add(1);
    raw->UpdateMetrics();  // takes control_mu_ too
  });
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kPartitionedQuery, {}, qopts);
  ASSERT_TRUE(id.ok());

  const auto events = ManyNameTrades(4000, 31);
  EXPECT_EQ((*rt)->IngestBatch(*stream, events), 0u);
  ASSERT_TRUE((*rt)->Flush().ok());  // must not deadlock
  EXPECT_GT(reentrant_reads.load(), 0u);
  auto removed = (*rt)->UnregisterQuery(*id);  // must not deadlock either
  ASSERT_TRUE(removed.ok());
}

TEST(CollectingMatchSink, TakeOrdersDeterministically) {
  runtime::CollectingMatchSink sink;
  auto publish = [&sink](QueryId q, Timestamp ts) {
    // The published view borrows `event` for the duration of Publish.
    const EventPtr event = Stock("S", 1.0, ts);
    runtime::RuntimeMatch m;
    m.query = q;
    m.match.span = TimeSpan{ts, ts + 1};
    m.match.slots = MatchSlots(&event, 1);
    sink.Publish(std::move(m));
  };
  // Published out of order, across two queries.
  publish(2, 30);
  publish(1, 20);
  publish(2, 10);
  publish(1, 5);
  const auto taken = sink.Take();
  ASSERT_EQ(taken.size(), 4u);
  EXPECT_EQ(taken[0].query, 1);
  EXPECT_EQ(taken[0].match.span.start, 5);
  EXPECT_EQ(taken[1].match.span.start, 20);
  EXPECT_EQ(taken[2].query, 2);
  EXPECT_EQ(taken[2].match.span.start, 10);
  EXPECT_EQ(taken[3].match.span.start, 30);
  EXPECT_EQ(sink.size(), 0u);  // Take drains
}

// A null event inside a batch is refused and counted like a drop; the
// rest of the batch is ingested as if it were not there.
TEST(StreamRuntime, NullEventInBatchIsRefusedAndCounted) {
  const EventPtr e1 = Stock("IBM", 1.0, 1);
  const EventPtr e2 = Stock("Sun", 2.0, 2);
  const auto run = [](const std::vector<EventPtr>& batch, uint64_t drops) {
    RuntimeOptions options;
    options.num_shards = 2;
    auto rt = StreamRuntime::Create(options);
    EXPECT_TRUE(rt.ok());
    auto stream = (*rt)->AddStream("stock", StockSchema());
    EXPECT_TRUE(stream.ok());
    CollectingMatchSink sink;
    QueryOptions qopts;
    qopts.sink = &sink;
    EXPECT_TRUE((*rt)
                    ->RegisterQuery(*stream,
                                    "PATTERN A;B WHERE A.price < B.price "
                                    "WITHIN 10",
                                    {}, qopts)
                    .ok());
    EXPECT_EQ((*rt)->IngestBatch(*stream, batch), drops);
    EXPECT_TRUE((*rt)->Flush().ok());
    EXPECT_EQ(RuntimeMetric(**rt, "zstream_events_ingested_total"), 2u);
    return sink.SortedKeys();
  };
  const auto with_null = run({e1, nullptr, e2}, 1);
  EXPECT_EQ(with_null.size(), 1u);
  EXPECT_EQ(with_null, run({e1, e2}, 0));
}

TEST(StreamRuntime, ErrorsAreReported) {
  auto rt = StreamRuntime::Create();
  ASSERT_TRUE(rt.ok());
  EXPECT_TRUE((*rt)->stream("missing").status().IsNotFound());
  EXPECT_TRUE((*rt)->query_matches(42).status().IsNotFound());
  auto stream = (*rt)->AddStream("s", StockSchema());
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE((*rt)->AddStream("s", StockSchema()).ok());
}

TEST(StreamRuntime, ReorderSlackRestoresOrderAtIngest) {
  // A cross-symbol (keyless) query is order-sensitive: without the
  // Section-4.1 stage at the shard ingest path, interleaved producers
  // would lose late events. With RuntimeOptions::reorder_slack the
  // shuffled replay must produce the exact in-order match set.
  constexpr char kSpread[] =
      "PATTERN X;Y WHERE X.price < Y.price WITHIN 5";
  std::vector<EventPtr> events;
  for (int i = 0; i < 2000; ++i) {
    events.push_back(Stock("SYM" + std::to_string(i % 4),
                           (i * 37) % 100, i));
  }
  const auto expected = SingleThreadedKeys(StockSchema(), kSpread, events);
  ASSERT_FALSE(expected.empty());

  // Shuffle within a bounded disorder window of 8 timestamps.
  std::vector<EventPtr> shuffled = events;
  std::mt19937 rng(7);
  for (size_t i = 0; i + 8 < shuffled.size(); i += 8) {
    std::shuffle(shuffled.begin() + static_cast<long>(i),
                 shuffled.begin() + static_cast<long>(i + 8), rng);
  }

  RuntimeOptions options;
  options.num_shards = 2;
  options.reorder_slack = 16;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  CollectingMatchSink sink;
  QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kSpread, {}, qopts);
  ASSERT_TRUE(id.ok()) << id.status();

  for (const EventPtr& e : shuffled) {
    ASSERT_TRUE((*rt)->Ingest(*stream, e));
  }
  ASSERT_TRUE((*rt)->Flush().ok());
  EXPECT_EQ(sink.SortedKeys(), expected);

  EXPECT_EQ(RuntimeMetric(**rt, "zstream_shard_reorder_late_total"), 0u);
  // Flush drained the stage.
  EXPECT_EQ(RuntimeMetric(**rt, "zstream_shard_reorder_pending"), 0u);
}

// A retired query's matches stay in zstream_matches_total (a counter
// never runs backwards), its query= series leave the registry, and a
// new query under the same label starts its series from zero, so the
// latency histogram's _count still equals the query's matches.
TEST(StreamRuntime, UnregisterRetiresQuerySeries) {
  RuntimeOptions options;
  options.num_shards = 2;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  CompileOptions compile;
  compile.engine.label = "rally";
  constexpr char kRising[] = "PATTERN A;B WHERE A.price < B.price WITHIN 10";
  auto first = (*rt)->RegisterQuery(*stream, kRising, compile);
  ASSERT_TRUE(first.ok()) << first.status();
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", i, i)));
  }
  ASSERT_TRUE((*rt)->Flush().ok());
  const uint64_t retired = (*rt)->query_matches(*first).ValueOr(0);
  ASSERT_EQ(retired, 15u);  // every rising pair of six
  EXPECT_EQ(RuntimeMetric(**rt, "zstream_matches_total"), retired);
  ASSERT_EQ((*rt)->UnregisterQuery(*first).ValueOr(0), retired);

  EXPECT_EQ(RuntimeMetric(**rt, "zstream_matches_total"), retired);
  const std::string after_drop = (*rt)->MetricsPrometheus();
  EXPECT_EQ(after_drop.find("query=\"rally\""), std::string::npos)
      << after_drop;

  auto second = (*rt)->RegisterQuery(*stream, kRising, compile);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 1.0, 100)));
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 2.0, 101)));
  ASSERT_TRUE((*rt)->Flush().ok());
  ASSERT_EQ((*rt)->query_matches(*second).ValueOr(0), 1u);
  EXPECT_EQ(RuntimeMetric(**rt, "zstream_matches_total"), retired + 1);
  obs::Registry& reg = (*rt)->metrics_registry();
  const obs::Labels rally = {{"query", "rally"}};
  EXPECT_EQ(reg.GetCounter("zstream_query_matches_total", rally)->value(),
            1u);
  EXPECT_EQ(
      reg.GetHistogram("zstream_detection_latency_seconds", rally)->count(),
      1u);
}

TEST(StreamRuntime, UnregisterFlushesReorderedEvents) {
  // Events still buffered in the reorder stage must reach the engine
  // before it retires, so UnregisterQuery's final match count covers
  // everything ingested beforehand.
  RuntimeOptions options;
  options.num_shards = 1;
  options.reorder_slack = 1000;  // holds everything below ts max-1000
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.price < B.price WITHIN 10");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 1.0, 1)));
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 2.0, 2)));
  // Both events sit inside the reorder buffer (slack >> max ts seen).
  auto final_matches = (*rt)->UnregisterQuery(*id);
  ASSERT_TRUE(final_matches.ok()) << final_matches.status();
  EXPECT_EQ(*final_matches, 1u);
}

TEST(StreamRuntime, ReorderLateDropsAreCountedAndExported) {
  RuntimeOptions options;
  options.num_shards = 1;
  options.reorder_slack = 5;
  auto rt = StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(
      *stream, "PATTERN A;B WHERE A.price < B.price WITHIN 10");
  ASSERT_TRUE(id.ok());

  // ts=200 advances the release watermark past ts=100, which the stage
  // emits; ts=50 then arrives below the emitted frontier — more than
  // the slack allows late — and must be dropped and counted.
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 1.0, 100)));
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 2.0, 200)));
  ASSERT_TRUE((*rt)->Ingest(*stream, Stock("IBM", 3.0, 50)));
  ASSERT_TRUE((*rt)->Flush().ok());

  EXPECT_EQ(RuntimeMetric(**rt, "zstream_shard_reorder_late_total"), 1u);
  EXPECT_EQ(RuntimeMetric(**rt, "zstream_shard_reorder_pending"), 0u);
  const std::string text = (*rt)->MetricsPrometheus();
  EXPECT_NE(text.find("zstream_shard_reorder_late_total{shard=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("zstream_shard_reorder_pending{shard=\"0\"} 0"),
            std::string::npos);
}

}  // namespace
}  // namespace zstream::testing
