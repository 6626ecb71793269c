// Tests for the observability layer (src/obs/ and its hooks):
//   - registry instruments keep exact totals under concurrent writers
//     (run in the CI thread job alongside runtime_test: TSan-clean)
//   - Prometheus / JSON exposition formats
//   - EXPLAIN ANALYZE per-node counters reconcile exactly with the
//     match totals a CollectingMatchSink observed on corpus queries
//   - EXPLAIN / EXPLAIN ANALYZE DDL round trips through the session
//   - kMetricsRequest over the wire and the HTTP /metrics side port
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "common/string_util.h"
#include "exec/partitioned_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "runtime/match_sink.h"
#include "runtime/stream_runtime.h"
#include "test_util.h"
#include "workload/stock_gen.h"

namespace zstream::testing {
namespace {

using obs::Histogram;
using obs::Labels;
using obs::Registry;

// ---------------------------------------------------------------------
// Instruments: exact totals under contention
// ---------------------------------------------------------------------

TEST(ObsCounter, ExactUnderConcurrentWriters) {
  Registry registry;
  obs::Counter* counter =
      registry.GetCounter("test_ops_total", {}, "test counter");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 250000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
}

TEST(ObsHistogram, ExactCountAndSumUnderConcurrentWriters) {
  Registry registry;
  Histogram* hist =
      registry.GetHistogram("test_latency", {}, "test histogram");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 1; i <= kPerThread; ++i) hist->Observe(i);
    });
  }
  for (auto& th : threads) th.join();
  const Histogram::Snapshot snap = hist->snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // Each thread observed 1 + 2 + ... + kPerThread.
  EXPECT_EQ(snap.sum, kThreads * (kPerThread * (kPerThread + 1) / 2));
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsHistogram, BucketBoundaries) {
  // Bucket i counts values < 2^(i+1).
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 0);
  EXPECT_EQ(Histogram::BucketOf(2), 1);
  EXPECT_EQ(Histogram::BucketOf(3), 1);
  EXPECT_EQ(Histogram::BucketOf(4), 2);
  EXPECT_EQ(Histogram::BucketOf((1ull << 31) - 1), 30);
  EXPECT_EQ(Histogram::BucketOf(1ull << 31), 31);
  EXPECT_EQ(Histogram::BucketOf(~0ull), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::UpperBound(0), 2u);
  EXPECT_EQ(Histogram::UpperBound(1), 4u);
}

TEST(ObsHistogram, QuantileOrderingIsSane) {
  Registry registry;
  Histogram* hist = registry.GetHistogram("test_q", {}, "");
  for (uint64_t i = 1; i <= 1000; ++i) hist->Observe(i);
  const Histogram::Snapshot snap = hist->snapshot();
  const double p50 = snap.Quantile(0.50);
  const double p95 = snap.Quantile(0.95);
  const double p99 = snap.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(p50, 0.0);
  // Log2 buckets: the estimate is within a factor of 2 of the truth.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1024.0);
}

TEST(ObsRegistry, SameSeriesReturnsSamePointer) {
  Registry registry;
  obs::Counter* a =
      registry.GetCounter("dup_total", {{"k", "v"}}, "help");
  obs::Counter* b =
      registry.GetCounter("dup_total", {{"k", "v"}}, "ignored");
  EXPECT_EQ(a, b);
  obs::Counter* other = registry.GetCounter("dup_total", {{"k", "w"}});
  EXPECT_NE(a, other);
}

// ---------------------------------------------------------------------
// Exposition formats
// ---------------------------------------------------------------------

TEST(ObsRegistry, PrometheusTextFormat) {
  Registry registry;
  registry.GetCounter("zs_requests_total", {{"code", "200"}}, "Requests")
      ->Inc(3);
  registry.GetCounter("zs_requests_total", {{"code", "500"}})->Inc();
  registry.GetGauge("zs_depth", {}, "Depth")->Set(-7);
  registry.GetHistogram("zs_lat_seconds", {}, "Latency", 1e-9)
      ->Observe(1500000000);  // 1.5s in ns

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP zs_requests_total Requests\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE zs_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("zs_requests_total{code=\"200\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("zs_requests_total{code=\"500\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE zs_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("zs_depth -7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE zs_lat_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("zs_lat_seconds_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  // The family's scale maps raw nanoseconds to seconds in the sum.
  EXPECT_NE(text.find("zs_lat_seconds_sum 1.5\n"), std::string::npos);
}

TEST(ObsRegistry, JsonFormat) {
  Registry registry;
  registry.GetCounter("zs_total", {{"q", "r\"1"}}, "C")->Inc(2);
  registry.GetHistogram("zs_h", {}, "H")->Observe(8);
  const std::string json = registry.RenderJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"zs_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":2"), std::string::npos);
  // Label values are JSON-escaped.
  EXPECT_NE(json.find("r\\\"1"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(ObsRegistry, LabelEscaping) {
  EXPECT_EQ(obs::RenderLabels({{"a", "x\"y\\z\n"}}),
            "{a=\"x\\\"y\\\\z\\n\"}");
  EXPECT_EQ(obs::RenderLabels({}), "");
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE reconciliation with observed match totals
// ---------------------------------------------------------------------

constexpr char kQuery4[] =
    "PATTERN IBM;Sun;Oracle "
    "WHERE IBM.name='IBM' AND Sun.name='Sun' AND Oracle.name='Oracle' "
    "AND IBM.price > Sun.price WITHIN 200";

std::vector<EventPtr> StockWorkload(int n, uint64_t seed) {
  StockGenOptions options;
  options.names = {"IBM", "Sun", "Oracle"};
  options.weights = {1, 1, 1};
  options.num_events = n;
  options.seed = seed;
  return GenerateStockTrades(options);
}

TEST(ExplainAnalyze, EngineCountersReconcileWithEmittedMatches) {
  const PatternPtr p = MustAnalyze(kQuery4);
  const auto events = StockWorkload(5000, 21);
  auto engine = Engine::Create(p, LeftDeepPlan(*p));
  ASSERT_TRUE(engine.ok());
  uint64_t matches = 0;
  (*engine)->SetMatchCallback([&](Match&&) { ++matches; });
  for (const EventPtr& e : events) (*engine)->Push(e);
  (*engine)->Finish();
  ASSERT_GT(matches, 0u);

  const PlanProfiles live = (*engine)->Profile();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].engines, 1u);
  const NodeProfile& profile = live[0].root;
  // The plan root's output records are exactly the emitted matches.
  EXPECT_EQ(profile.records_out, matches);
  // Every primitive event was offered to every leaf.
  std::vector<const NodeProfile*> stack{&profile};
  uint64_t leaves = 0;
  while (!stack.empty()) {
    const NodeProfile* node = stack.back();
    stack.pop_back();
    if (node->children.empty()) {
      ++leaves;
      EXPECT_EQ(node->events_in, events.size()) << node->label;
    }
    for (const NodeProfile& c : node->children) stack.push_back(&c);
  }
  EXPECT_EQ(leaves, 3u);

  const std::string rendered = (*engine)->ExplainAnalyze();
  EXPECT_NE(rendered.find("SEQ"), std::string::npos);
  EXPECT_NE(rendered.find("out=" + std::to_string(matches)),
            std::string::npos);
}

// A slow event is counted per ingest step: one Push, or one chunk of a
// PushBatch up to a batch boundary plus the round that boundary
// triggers. A 1 ns threshold makes every step slow, so the engine
// counter, the registry series and EXPLAIN ANALYZE all count steps.
TEST(SlowEvents, CountedPerIngestStep) {
  const PatternPtr p = MustAnalyze(kQuery4);
  const auto events = StockWorkload(100, 5);
  EngineOptions options;
  options.slow_event_ns = 1;
  options.batch_size = 16;
  options.label = "slow_steps";
  auto engine = Engine::Create(p, LeftDeepPlan(*p), options);
  ASSERT_TRUE(engine.ok());

  // A single Push is one step.
  (*engine)->Push(events[0]);
  EXPECT_EQ((*engine)->slow_events(), 1u);
  // Looked up after the engine registered the series (and its help).
  obs::Counter* series = Registry::Default().GetCounter(
      "zstream_slow_events_total", {{"query", "slow_steps"}});
  EXPECT_EQ(series->value(), 1u);

  // 99 more events with 1 pending: chunks of 15, then five of 16, then
  // the remaining 4 — seven steps.
  (*engine)->PushBatch(EventBatch{events.data() + 1, events.size() - 1});
  EXPECT_EQ((*engine)->slow_events(), 8u);
  EXPECT_EQ(series->value(), 8u);
  EXPECT_NE((*engine)->ExplainAnalyze().find("slow_events=8"),
            std::string::npos)
      << (*engine)->ExplainAnalyze();
}

TEST(ExplainAnalyze, RuntimeCountersReconcileWithCollectingSink) {
  const auto events = StockWorkload(8000, 33);
  runtime::RuntimeOptions options;
  options.num_shards = 2;
  auto rt = runtime::StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  runtime::CollectingMatchSink sink;
  runtime::QueryOptions qopts;
  qopts.sink = &sink;
  auto id = (*rt)->RegisterQuery(*stream, kQuery4, {}, qopts);
  ASSERT_TRUE(id.ok()) << id.status();

  for (const EventPtr& e : events) ASSERT_TRUE((*rt)->Ingest(*stream, e));
  ASSERT_TRUE((*rt)->Flush().ok());
  const size_t expected = sink.size();
  ASSERT_GT(expected, 0u);

  auto rendered = (*rt)->ExplainAnalyze(*id);
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  // The merged per-shard profile's match total is the sink's total, and
  // the header reports every pushed event.
  EXPECT_NE(rendered->find("matches=" + std::to_string(expected)),
            std::string::npos)
      << *rendered;
  EXPECT_NE(
      rendered->find("events_pushed=" + std::to_string(events.size())),
      std::string::npos)
      << *rendered;

  // The runtime's registry carries the same totals, plus a populated
  // detection-latency histogram for the query.
  const std::string metrics = (*rt)->MetricsPrometheus();
  EXPECT_NE(
      metrics.find("zstream_query_matches_total{query=\"q" +
                   std::to_string(*id) + "\"} " + std::to_string(expected)),
      std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("zstream_detection_latency_seconds_count"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// DDL: EXPLAIN / EXPLAIN ANALYZE
// ---------------------------------------------------------------------

TEST(ExplainDdl, ExplainAliasesShowPlanAndAnalyzeProfiles) {
  ZStream session(StockSchema());
  auto created = session.Execute(
      "CREATE QUERY rally ON default AS " + std::string(kQuery4));
  ASSERT_TRUE(created.ok()) << created.status();

  auto plan = session.Execute("EXPLAIN rally");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan->message.empty());

  const auto events = StockWorkload(2000, 5);
  auto rally = session.query("rally");
  ASSERT_TRUE(rally.ok());
  for (const EventPtr& e : events) (*rally)->Push(e);

  auto analyzed = session.Execute("EXPLAIN ANALYZE rally");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_NE(analyzed->message.find("query=rally"), std::string::npos)
      << analyzed->message;
  EXPECT_NE(analyzed->message.find("in=" + std::to_string(events.size())),
            std::string::npos)
      << analyzed->message;

  auto unknown = session.Execute("EXPLAIN ANALYZE nope");
  EXPECT_FALSE(unknown.ok());
  auto trailing = session.Execute("EXPLAIN ANALYZE rally extra");
  EXPECT_FALSE(trailing.ok());
}

// ---------------------------------------------------------------------
// Wire + HTTP exposition
// ---------------------------------------------------------------------

constexpr char kStockDdl[] =
    "CREATE STREAM stock "
    "(id INT, name STRING, price DOUBLE, volume INT, ts INT)";
constexpr char kRallyDdl[] =
    "CREATE QUERY rally ON stock AS "
    "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name "
    "AND A.price < B.price AND B.price < C.price WITHIN 100";

/// One blocking HTTP/1.0 request against the metrics side port;
/// returns the raw response (status line + headers + body).
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << ErrnoToString(errno);
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[16 << 10];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(NetMetrics, WireAndHttpExposition) {
  ZStream session;
  ASSERT_TRUE(session.Execute(kStockDdl).ok());
  ASSERT_TRUE(session.Execute(kRallyDdl).ok());

  runtime::RuntimeOptions runtime_options;
  runtime_options.num_shards = 2;
  net::ServerOptions server_options;
  server_options.metrics_port = 0;  // ephemeral HTTP side port
  auto server =
      net::Server::Create(&session, runtime_options, server_options);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->Start().ok());
  ASSERT_NE((*server)->metrics_port(), 0);

  auto client = net::Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  StockGenOptions gen;
  gen.num_events = 2000;
  gen.seed = 11;
  const auto events = GenerateStockTrades(gen);
  auto ack = (*client)->Ingest("stock", events);
  ASSERT_TRUE(ack.ok());
  ASSERT_TRUE((*client)->Flush().ok());

  // Wire: Prometheus text and JSON.
  auto text = (*client)->Metrics();
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("zstream_events_ingested_total 2000\n"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("query=\"rally\""), std::string::npos);
  EXPECT_NE(text->find("zstream_server_frames_dispatched_total"),
            std::string::npos);
  auto json = (*client)->Metrics(net::kMetricsFormatJson);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->front(), '{');
  EXPECT_NE(json->find("\"runtime\""), std::string::npos);
  EXPECT_NE(json->find("\"process\""), std::string::npos);
  auto bad = (*client)->Metrics(99);
  EXPECT_FALSE(bad.ok());

  // HTTP side port: /metrics, /metrics.json, /healthz, 404.
  const uint16_t mport = (*server)->metrics_port();
  const std::string metrics = HttpGet(mport, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("zstream_events_ingested_total 2000\n"),
            std::string::npos);
  const std::string mjson = HttpGet(mport, "/metrics.json");
  EXPECT_NE(mjson.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(mjson.find("application/json"), std::string::npos);
  const std::string health = HttpGet(mport, "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);
  const std::string missing = HttpGet(mport, "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);

  (*server)->Stop();
}

}  // namespace
}  // namespace zstream::testing
