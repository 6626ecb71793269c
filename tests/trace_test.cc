// Tests for end-to-end event tracing (src/obs/trace.h), match
// provenance, the flight recorder, and the protocol-v3 trace plumbing:
//   - span ring round trip, wraparound window, torn-slot filtering
//   - deterministic 1-in-N batch sampling
//   - exact span-count reconciliation against shard/sink totals under
//     4-thread ingest contention (runs in the CI TSan job)
//   - label coherence: one label joins metrics, EXPLAIN ANALYZE, spans
//     and provenance
//   - EXPLAIN TRACE provenance (event ids + plan fingerprint)
//   - wire: trace ids survive kEventBatch/kMatch round trips, a v2 peer
//     is rejected with the coded fatal error, GET /trace and
//     kTraceRequest serve valid Chrome-trace JSON, and one sampled
//     batch's spans share a trace id across client and server
//   - flight recorder dumps the ring window and rate-limits triggers
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <thread>

#include "common/string_util.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/match_sink.h"
#include "runtime/stream_runtime.h"
#include "test_util.h"
#include "workload/stock_gen.h"

namespace zstream::testing {
namespace {


using obs::Span;
using obs::SpanKind;
using obs::Tracer;

// ---------------------------------------------------------------------
// Minimal JSON validity checker (the repo deliberately has no JSON
// parser; Chrome-trace output only needs structural validation).
// ---------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip the escaped character
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  size_t pos_ = 0;
};

// Every trace test reconfigures the process-global tracer; reset both
// the rings and the sampling cursor so counts are test-local.
void ConfigureTracer(uint32_t sample_every, size_t ring_slots = 8192,
                     uint32_t num_lanes = 9) {
  obs::TraceOptions opts;
  opts.sample_every = sample_every;
  opts.ring_slots = ring_slots;
  opts.num_lanes = num_lanes;
  Tracer::Global().Configure(opts);
  Tracer::Global().Reset();
}

// ---------------------------------------------------------------------
// Ring mechanics
// ---------------------------------------------------------------------

TEST(TraceRing, RecordRoundTrip) {
  ConfigureTracer(1, 256, 2);
  Tracer& t = Tracer::Global();
  const uint64_t id = t.NewTraceId();
  ASSERT_NE(id, 0u);
  t.Record(1, SpanKind::kQueueWait, id, 100, 250, "stock", 7);
  const std::vector<Span> spans = t.CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, id);
  EXPECT_EQ(spans[0].start_ns, 100u);
  EXPECT_EQ(spans[0].end_ns, 250u);
  EXPECT_EQ(spans[0].arg, 7u);
  EXPECT_EQ(spans[0].lane, 1u);
  EXPECT_EQ(spans[0].kind, static_cast<uint8_t>(SpanKind::kQueueWait));
  EXPECT_STREQ(spans[0].name, "stock");
  EXPECT_EQ(t.KindCount(SpanKind::kQueueWait), 1u);
  EXPECT_EQ(t.spans_recorded(), 1u);
}

TEST(TraceRing, WraparoundKeepsNewestWindow) {
  // 64 is the minimum ring geometry; 200 writes must wrap and keep
  // exactly the most recent 64 spans while the exact counter keeps all.
  ConfigureTracer(1, 64, 1);
  Tracer& t = Tracer::Global();
  const uint64_t id = t.NewTraceId();
  for (uint64_t i = 1; i <= 200; ++i) {
    t.Record(0, SpanKind::kExec, id, i, i + 1, "w", i);
  }
  EXPECT_EQ(t.spans_recorded(), 200u);
  const std::vector<Span> spans = t.CollectSpans();
  ASSERT_EQ(spans.size(), 64u);
  // Oldest-first window over writes 137..200.
  EXPECT_EQ(spans.front().arg, 137u);
  EXPECT_EQ(spans.back().arg, 200u);
}

TEST(TraceRing, StrippedOrDisabledRecordsNothing) {
  ConfigureTracer(0);
  Tracer& t = Tracer::Global();
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.SampleBatch(), 0u);
  EXPECT_EQ(t.NewTraceId(), 0u);
  t.Record(0, SpanKind::kExec, 0, 1, 2, "off");
  EXPECT_EQ(t.spans_recorded(), 0u);
  EXPECT_TRUE(t.CollectSpans().empty());
}

// ---------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------

TEST(TraceSampling, DeterministicOneInN) {
  ConfigureTracer(4);
  Tracer& t = Tracer::Global();
  std::vector<uint64_t> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(t.SampleBatch());
  // Exactly every 4th decision samples, starting with the first.
  for (int i = 0; i < 100; ++i) {
    if (i % 4 == 0) {
      EXPECT_NE(ids[static_cast<size_t>(i)], 0u) << "batch " << i;
    } else {
      EXPECT_EQ(ids[static_cast<size_t>(i)], 0u) << "batch " << i;
    }
  }
  EXPECT_EQ(t.batches_sampled(), 25u);
  // Sampled ids are unique.
  std::set<uint64_t> unique;
  for (uint64_t id : ids) {
    if (id != 0) unique.insert(id);
  }
  EXPECT_EQ(unique.size(), 25u);
}

// ---------------------------------------------------------------------
// Exact reconciliation under ingest contention
// ---------------------------------------------------------------------

constexpr char kTraceQuery[] =
    "PATTERN IBM;Oracle "
    "WHERE IBM.name='IBM' AND Oracle.name='Oracle' "
    "AND IBM.price > Oracle.price WITHIN 100";

TEST(TraceReconciliation, SpanCountsMatchShardAndSinkTotals) {
  ConfigureTracer(1, 4096, 3);
  runtime::RuntimeOptions options;
  options.num_shards = 2;
  auto rt = runtime::StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  runtime::CollectingMatchSink sink;
  runtime::QueryOptions qopts;
  qopts.sink = &sink;
  CompileOptions copts;
  // One assembly round per event: every match is emitted inside the
  // traced push that completed it, so kMatch spans reconcile exactly.
  copts.engine.batch_size = 1;
  auto id = (*rt)->RegisterQuery(*stream, kTraceQuery, copts, qopts);
  ASSERT_TRUE(id.ok()) << id.status();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      StockGenOptions gen;
      gen.names = {"IBM", "Oracle"};
      gen.weights = {1, 1};
      gen.num_events = kPerThread;
      gen.seed = 100 + static_cast<uint64_t>(w);
      for (const EventPtr& e : GenerateStockTrades(gen)) {
        ASSERT_TRUE((*rt)->Ingest(*stream, e));
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE((*rt)->Flush().ok());

  Tracer& t = Tracer::Global();
  const uint64_t total_events = kThreads * kPerThread;

  // Every ingested event was sampled (1-in-1) and produced exactly one
  // queue-wait span when its shard dequeued it.
  EXPECT_EQ(t.KindCount(SpanKind::kQueueWait), total_events);

  // The runtime's own counters agree: the registry series...
  EXPECT_EQ(RuntimeMetric(**rt, "zstream_events_traced_total"),
            total_events);
  EXPECT_EQ(t.KindCount(SpanKind::kQueueWait),
            RuntimeMetric(**rt, "zstream_shard_events_processed_total"));
  // ...and the exported metric series.
  const std::string metrics = (*rt)->MetricsPrometheus();
  EXPECT_NE(metrics.find("zstream_events_traced_total " +
                         std::to_string(total_events)),
            std::string::npos)
      << metrics;

  // Every match the sink saw was emitted inside a traced push, so the
  // kMatch span counter equals the sink total exactly.
  ASSERT_GT(sink.size(), 0u);
  EXPECT_EQ(t.KindCount(SpanKind::kMatch), sink.size());
  // Provenance was recorded for the (bounded) most recent matches.
  EXPECT_GT(t.ProvenanceFor("").size(), 0u);
}

// ---------------------------------------------------------------------
// Label coherence: one label joins every observability surface
// ---------------------------------------------------------------------

TEST(TraceLabels, LabelJoinsMetricsSpansProvenanceAndExplain) {
  ConfigureTracer(1, 4096, 3);
  runtime::RuntimeOptions options;
  options.num_shards = 2;
  auto rt = runtime::StreamRuntime::Create(options);
  ASSERT_TRUE(rt.ok());
  auto stream = (*rt)->AddStream("stock", StockSchema());
  ASSERT_TRUE(stream.ok());
  runtime::CollectingMatchSink sink;
  runtime::QueryOptions qopts;
  qopts.sink = &sink;
  CompileOptions copts;
  copts.engine.label = "coherent";
  copts.engine.batch_size = 1;
  auto id = (*rt)->RegisterQuery(*stream, kTraceQuery, copts, qopts);
  ASSERT_TRUE(id.ok()) << id.status();

  StockGenOptions gen;
  gen.names = {"IBM", "Oracle"};
  gen.weights = {1, 1};
  gen.num_events = 3000;
  gen.seed = 5;
  for (const EventPtr& e : GenerateStockTrades(gen)) {
    ASSERT_TRUE((*rt)->Ingest(*stream, e));
  }
  ASSERT_TRUE((*rt)->Flush().ok());
  ASSERT_GT(sink.size(), 0u);

  // Metrics series carry the label...
  const std::string metrics = (*rt)->MetricsPrometheus();
  EXPECT_NE(metrics.find("query=\"coherent\""), std::string::npos);
  // ...EXPLAIN ANALYZE names the same query...
  auto rendered = (*rt)->ExplainAnalyze(*id);
  ASSERT_TRUE(rendered.ok());
  EXPECT_NE(rendered->find("query=coherent"), std::string::npos);
  // ...exec spans carry it as their name...
  bool exec_labeled = false;
  for (const Span& s : Tracer::Global().CollectSpans()) {
    if (s.kind == static_cast<uint8_t>(SpanKind::kExec) &&
        std::strncmp(s.name, "coherent", sizeof(s.name)) == 0) {
      exec_labeled = true;
    }
  }
  EXPECT_TRUE(exec_labeled);
  // ...and provenance is queryable by it.
  const auto prov = Tracer::Global().ProvenanceFor("coherent");
  ASSERT_GT(prov.size(), 0u);
  for (const obs::MatchProvenance& p : prov) {
    EXPECT_STREQ(p.label, "coherent");
    EXPECT_NE(p.plan_fingerprint, 0u);
    EXPECT_GT(p.num_events, 0u);
  }
  EXPECT_TRUE(Tracer::Global().ProvenanceFor("other").empty());
}

// ---------------------------------------------------------------------
// EXPLAIN TRACE
// ---------------------------------------------------------------------

TEST(ExplainTrace, ShowsEventIdsAndPlanFingerprint) {
  ConfigureTracer(1, 4096, 2);
  ZStream session(StockSchema());
  auto created = session.Execute(
      "CREATE QUERY pair ON default AS " + std::string(kTraceQuery));
  ASSERT_TRUE(created.ok()) << created.status();

  // Before any traced match, EXPLAIN TRACE reports the empty state.
  auto empty = session.Execute("EXPLAIN TRACE pair");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_NE(empty->message.find("no sampled match provenance"),
            std::string::npos)
      << empty->message;

  auto query = session.query("pair");
  ASSERT_TRUE(query.ok());
  // Session pushes run on this thread: adopt a trace id the way a
  // shard worker would.
  obs::SetCurrentTrace(Tracer::Global().NewTraceId());
  StockGenOptions gen;
  gen.names = {"IBM", "Oracle"};
  gen.weights = {1, 1};
  gen.num_events = 500;
  gen.seed = 7;
  for (const EventPtr& e : GenerateStockTrades(gen)) (*query)->Push(e);
  obs::SetCurrentTrace(0);

  auto traced = session.Execute("EXPLAIN TRACE pair");
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_NE(traced->message.find("query=pair"), std::string::npos)
      << traced->message;
  EXPECT_NE(traced->message.find("match trace=0x"), std::string::npos);
  EXPECT_NE(traced->message.find("plan=0x"), std::string::npos);
  EXPECT_NE(traced->message.find("id="), std::string::npos);
  EXPECT_NE(traced->message.find("path: "), std::string::npos);

  auto unknown = session.Execute("EXPLAIN TRACE nope");
  EXPECT_FALSE(unknown.ok());
}

// ---------------------------------------------------------------------
// Wire protocol v3
// ---------------------------------------------------------------------

TEST(ProtocolV3, OlderPeerVersionIsFatalCodedReject) {
  // Hand-build a v2 kEventBatch frame header; the parser must reject it
  // with the sticky coded error instead of misparsing the new layout.
  std::string frame;
  frame.push_back(2);  // protocol version 2 (one behind)
  frame.push_back(static_cast<char>(net::MsgType::kEventBatch));
  frame.push_back(0);
  frame.push_back(0);
  for (int i = 0; i < 4; ++i) frame.push_back(0);  // empty payload
  net::FrameParser parser;
  parser.Append(frame.data(), frame.size());
  auto next = parser.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().error_code(), "ZS-N0001");
  EXPECT_TRUE(parser.broken());
  // The error is sticky: the connection is unusable.
  EXPECT_FALSE(parser.Next().ok());
}

constexpr char kStockDdl[] =
    "CREATE STREAM stock "
    "(id INT, name STRING, price DOUBLE, volume INT, ts INT)";
// Selective on purpose: a few hundred matches from 2000 events, so the
// per-match fanout/deliver spans cannot wrap the control lane's ring
// and evict the two ingest/wire_decode spans the end-to-end test
// asserts on (a rising-triple query emits ~170k matches here and turns
// the ring into all-deliver).
constexpr char kRallyDdl[] =
    "CREATE QUERY rally ON stock AS "
    "PATTERN IBM;Oracle WHERE IBM.name = 'IBM' "
    "AND Oracle.name = 'Oracle' "
    "AND IBM.price > Oracle.price + 50 WITHIN 20";

/// One blocking HTTP/1.0 request against the observability side port.
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

TEST(NetTrace, EndToEndSpansShareOneTraceId) {
  ConfigureTracer(1, 8192, 3);
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

  auto client = net::Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Subscribe("rally").ok());

  StockGenOptions gen;
  gen.num_events = 2000;
  gen.seed = 11;
  const auto events = GenerateStockTrades(gen);
  auto ack = (*client)->Ingest("stock", events);
  ASSERT_TRUE(ack.ok()) << ack.status();
  ASSERT_TRUE((*client)->Flush().ok());
  auto got = (*client)->WaitForMatches(1, 10000);
  ASSERT_TRUE(got.ok());
  ASSERT_GT(*got, 0u);

  // Client and server share this process's tracer, so the whole
  // pipeline's spans are visible here. Group kinds per trace id.
  std::map<uint64_t, std::set<uint8_t>> kinds_by_trace;
  for (const Span& s : Tracer::Global().CollectSpans()) {
    kinds_by_trace[s.trace_id].insert(s.kind);
  }
  bool full_pipeline = false;
  for (const auto& [trace, kinds] : kinds_by_trace) {
    if (kinds.count(static_cast<uint8_t>(SpanKind::kIngest)) > 0 &&
        kinds.count(static_cast<uint8_t>(SpanKind::kWireDecode)) > 0 &&
        kinds.count(static_cast<uint8_t>(SpanKind::kQueueWait)) > 0 &&
        kinds.count(static_cast<uint8_t>(SpanKind::kExec)) > 0 &&
        kinds.count(static_cast<uint8_t>(SpanKind::kOperator)) > 0 &&
        kinds.count(static_cast<uint8_t>(SpanKind::kMatch)) > 0 &&
        kinds.count(static_cast<uint8_t>(SpanKind::kFanout)) > 0 &&
        kinds.count(static_cast<uint8_t>(SpanKind::kDeliver)) > 0) {
      full_pipeline = true;
      break;
    }
  }
  std::string kind_summary;
  for (size_t k = 0; k < static_cast<size_t>(SpanKind::kNumKinds); ++k) {
    kind_summary += std::string(SpanKindName(static_cast<SpanKind>(k))) +
                    "=" +
                    std::to_string(Tracer::Global().KindCount(
                        static_cast<SpanKind>(k))) +
                    " ";
  }
  EXPECT_TRUE(full_pipeline)
      << "no trace id carried ingest+decode+queue+exec+operator+match+"
         "fanout+deliver spans; recorded: "
      << kind_summary;

  // kTraceRequest over the wire returns a structurally valid Chrome
  // trace document with the pipeline span names.
  auto doc = (*client)->Trace();
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_TRUE(JsonChecker(*doc).Valid()) << doc->substr(0, 400);
  EXPECT_NE(doc->find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(doc->find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc->find("wire_decode"), std::string::npos);
  EXPECT_NE(doc->find("queue_wait"), std::string::npos);
  EXPECT_NE(doc->find("fanout"), std::string::npos);
  EXPECT_NE(doc->find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc->find("control/net"), std::string::npos);
  EXPECT_NE(doc->find("shard 0"), std::string::npos);

  // The HTTP side port serves the same document shape.
  const std::string http = HttpGet((*server)->metrics_port(), "/trace");
  EXPECT_NE(http.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(http.find("application/json"), std::string::npos);
  const size_t body_at = http.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = http.substr(body_at + 4);
  EXPECT_TRUE(JsonChecker(body).Valid()) << body.substr(0, 400);
  EXPECT_NE(body.find("traceEvents"), std::string::npos);

  // EXPLAIN TRACE over the wire reports served-match provenance.
  auto traced = (*client)->Execute("EXPLAIN TRACE rally");
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_NE(traced->message.find("query=rally"), std::string::npos)
      << traced->message;
  EXPECT_NE(traced->message.find("plan=0x"), std::string::npos);

  // Delivered matches carried their trace ids to the client.
  bool delivered_traced = false;
  for (const net::NetMatch& m : (*client)->TakeMatches()) {
    if (m.trace_id != 0) delivered_traced = true;
  }
  EXPECT_TRUE(delivered_traced);

  (*server)->Stop();
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorder, DumpsRingWindowAndRateLimitsTriggers) {
  ConfigureTracer(1, 256, 1);
  Tracer& t = Tracer::Global();
  const uint64_t id = t.NewTraceId();
  t.Record(0, SpanKind::kExec, id, 10, 20, "dumpme", 1);

  const std::string dir =
      ::testing::TempDir() + "zs_flight_" + std::to_string(::getpid());
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  fr.Configure(dir);
  ASSERT_TRUE(fr.armed());

  auto path = fr.Dump("unit");
  ASSERT_TRUE(path.ok()) << path.status();
  EXPECT_NE(path->find("trace-unit-"), std::string::npos);
  std::FILE* f = std::fopen(path->c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 16, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  EXPECT_TRUE(JsonChecker(contents).Valid());
  EXPECT_NE(contents.find("traceEvents"), std::string::npos);
  EXPECT_NE(contents.find("dumpme"), std::string::npos);

  // Triggered dumps are rate-limited: back-to-back triggers produce
  // exactly one dump inside the minimum interval.
  const uint64_t before = fr.dumps();
  fr.TriggerDump("slow-event");
  fr.TriggerDump("slow-event");
  EXPECT_EQ(fr.dumps(), before + 1);
}


}  // namespace
}  // namespace zstream::testing
