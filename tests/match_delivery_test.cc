// Match delivery contract (exec/match.h): a delivered Match is a view
// valid only for the delivery call, and every consumer that keeps one
// holds an OwnedMatch. These tests keep copies past the rounds that
// purged their source buffers, past Finish and past the engine itself,
// while nothing else holds the input events — so a view that escaped
// instead of being copied reads freed memory (caught by the ASan job).
// They also pin the delivery order and the barrier-exact match counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/zstream.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "runtime/match_sink.h"
#include "runtime/stream_runtime.h"
#include "test_util.h"

namespace zstream {
namespace {

using testing::Stock;

constexpr char kStockDdl[] =
    "CREATE STREAM stock "
    "(id INT, name STRING, price DOUBLE, volume INT, ts INT)";

// Name-keyed triples with no price constraint: every (A, C) pair of a
// name has several B candidates, so many matches tie on (query, span)
// and differ only in a slot timestamp.
constexpr char kTieQuery[] =
    "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name WITHIN 12";
// Unkeyed rising pair: one Engine whose SEQ root emits merged views.
constexpr char kPairQuery[] =
    "PATTERN A;B WHERE A.name = 'S1' AND B.name = 'S2' "
    "AND A.price < B.price WITHIN 8";
// Kleene root: the delivered group is borrowed from the operator.
constexpr char kKleeneQuery[] =
    "PATTERN A;B+;C WHERE A.name = 'S0' AND B.name = 'S1' "
    "AND C.name = 'S2' WITHIN 10";

/// Deterministic tick i of a four-symbol stream. Built on demand so the
/// test itself never holds the events it feeds.
EventPtr Tick(int64_t i) {
  const uint64_t h = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
  return Stock("S" + std::to_string((h >> 33) % 4),
               static_cast<double>((h >> 13) % 97), i);
}

/// Canonical keys of everything `text` matches over ticks [0, n),
/// single-threaded, in delivery order.
std::vector<std::string> ReferenceKeys(const std::string& text, int64_t n) {
  ZStream zs(StockSchema());
  auto query = zs.Compile(text);
  EXPECT_TRUE(query.ok()) << query.status();
  std::vector<std::string> keys;
  (*query)->SetMatchCallback([&](Match&& m) {
    keys.push_back(runtime::CanonicalMatchKey(m));
  });
  for (int64_t i = 0; i < n; ++i) (*query)->Push(Tick(i));
  (*query)->Finish();
  return keys;
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// The Prometheus sample `name{query="label"} value` as an integer.
uint64_t ScrapeCount(const std::string& text, const std::string& label) {
  const std::string needle =
      "zstream_detection_latency_seconds_count{query=\"" + label + "\"} ";
  const size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << "no latency count for " << label;
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + needle.size()));
}

TEST(MatchLifetime, CallbackCopiesOutliveRoundsFinishAndEngine) {
  constexpr int64_t kEvents = 3000;
  for (const char* text : {kTieQuery, kPairQuery, kKleeneQuery}) {
    SCOPED_TRACE(text);
    std::vector<std::string> delivered;  // keys read from the views
    std::vector<OwnedMatch> kept;
    {
      ZStream zs(StockSchema());
      auto query = zs.Compile(text);
      ASSERT_TRUE(query.ok()) << query.status();
      (*query)->SetMatchCallback([&](Match&& m) {
        delivered.push_back(runtime::CanonicalMatchKey(m));
        kept.emplace_back(m);
      });
      for (int64_t i = 0; i < kEvents; ++i) (*query)->Push(Tick(i));
      (*query)->Finish();
    }  // engine, buffers and every event they held are gone
    ASSERT_FALSE(kept.empty());
    ASSERT_EQ(kept.size(), delivered.size());
    for (size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(runtime::CanonicalMatchKey(kept[i]), delivered[i]);
      for (const EventPtr& e : kept[i].slots) {
        if (e != nullptr) {
          EXPECT_EQ(e->value(4).int64_value(), e->timestamp());
        }
      }
    }
    // Copies of copies stay independent of their source.
    std::vector<OwnedMatch> again = kept;
    kept.clear();
    for (size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(runtime::CanonicalMatchKey(again[i]), delivered[i]);
    }
  }
}

TEST(MatchLifetime, CollectingSinkCopiesOutliveTheRuntime) {
  constexpr int64_t kEvents = 3000;
  const auto expected = Sorted(ReferenceKeys(kTieQuery, kEvents));
  runtime::CollectingMatchSink sink;
  {
    ZStream zs;
    ASSERT_TRUE(zs.Execute(kStockDdl).ok());
    runtime::RuntimeOptions options;
    options.num_shards = 2;
    auto rt = zs.StartRuntime(options);
    ASSERT_TRUE(rt.ok()) << rt.status();
    runtime::QueryOptions qopts;
    qopts.sink = &sink;
    auto stream = (*rt)->stream("stock");
    ASSERT_TRUE(stream.ok());
    auto id = (*rt)->RegisterQuery(*stream, kTieQuery, {}, qopts);
    ASSERT_TRUE(id.ok()) << id.status();
    for (int64_t i = 0; i < kEvents; i += 100) {
      std::vector<EventPtr> batch;  // dropped after each ingest
      for (int64_t j = i; j < i + 100; ++j) batch.push_back(Tick(j));
      EXPECT_EQ((*rt)->IngestBatch(*stream, batch), 0u);
    }
    ASSERT_TRUE((*rt)->Flush().ok());
    (*rt)->Stop();
  }  // runtime, shard engines and their buffers are gone
  std::vector<std::string> keys;
  for (const runtime::OwnedRuntimeMatch& m : sink.Take()) {
    keys.push_back(runtime::CanonicalMatchKey(m.match));
  }
  EXPECT_EQ(Sorted(keys), expected);
}

TEST(MatchLifetime, WireCopiesOutliveTheServer) {
  constexpr int64_t kEvents = 3000;
  const auto expected = Sorted(ReferenceKeys(kTieQuery, kEvents));
  std::vector<net::NetMatch> received;
  {
    ZStream session;
    ASSERT_TRUE(session.Execute(kStockDdl).ok());
    ASSERT_TRUE(session
                    .Execute(std::string("CREATE QUERY tie ON stock AS ") +
                             kTieQuery)
                    .ok());
    runtime::RuntimeOptions ropts;
    ropts.num_shards = 2;
    auto server = net::Server::Create(&session, ropts);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE((*server)->Start().ok());
    auto client = net::Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE((*client)->Subscribe("tie").ok());
    for (int64_t i = 0; i < kEvents; i += 250) {
      std::vector<EventPtr> batch;
      for (int64_t j = i; j < i + 250; ++j) batch.push_back(Tick(j));
      ASSERT_TRUE((*client)->Ingest("stock", batch).ok());
    }
    ASSERT_TRUE((*client)->Flush().ok());
    received = (*client)->TakeMatches();
    (*client)->Close();
    (*server)->Stop();
  }
  std::vector<std::string> keys;
  for (const net::NetMatch& m : received) {
    keys.push_back(runtime::CanonicalMatchKey(m.match));
  }
  EXPECT_EQ(Sorted(keys), expected);
}

/// True when every adjacent pair is in MatchLess order and at least one
/// pair ties on span (so the order is decided by slot timestamps).
void ExpectOrderedWithSpanTies(const std::vector<const Match*>& order) {
  bool span_tie = false;
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_FALSE(runtime::MatchLess(*order[i], *order[i - 1])) << i;
    span_tie |= order[i]->span == order[i - 1]->span;
  }
  EXPECT_TRUE(span_tie);
}

/// Runs kTieQuery over ticks [0, n) on an in-process runtime with
/// `shards` shards and returns the CollectingMatchSink::Take order as
/// canonical keys, checking the barrier-exact counts on the way.
std::vector<std::string> CollectedOrder(int64_t n, int shards) {
  ZStream zs;
  EXPECT_TRUE(zs.Execute(kStockDdl).ok());
  runtime::RuntimeOptions options;
  options.num_shards = shards;
  auto rt = zs.StartRuntime(options);
  EXPECT_TRUE(rt.ok()) << rt.status();
  runtime::CollectingMatchSink sink;
  runtime::QueryOptions qopts;
  qopts.sink = &sink;
  CompileOptions copts;
  copts.engine.label = "tie";
  auto stream = (*rt)->stream("stock");
  EXPECT_TRUE(stream.ok());
  auto id = (*rt)->RegisterQuery(*stream, kTieQuery, copts, qopts);
  EXPECT_TRUE(id.ok()) << id.status();
  std::vector<EventPtr> events;
  for (int64_t i = 0; i < n; ++i) events.push_back(Tick(i));
  EXPECT_EQ((*rt)->IngestBatch(*stream, events), 0u);
  EXPECT_TRUE((*rt)->Flush().ok());

  const std::vector<runtime::OwnedRuntimeMatch> taken = sink.Take();
  EXPECT_EQ(*(*rt)->query_matches(*id), taken.size());
  EXPECT_EQ((*rt)
                ->metrics_registry()
                .GetHistogram("zstream_detection_latency_seconds",
                              {{"query", "tie"}}, "", 1e-9)
                ->count(),
            taken.size());
  std::vector<const Match*> order;
  std::vector<std::string> keys;
  for (const runtime::OwnedRuntimeMatch& m : taken) {
    order.push_back(&m.match);
    keys.push_back(runtime::CanonicalMatchKey(m.match));
  }
  ExpectOrderedWithSpanTies(order);
  return keys;
}

TEST(MatchOrder, CollectingSinkOrderAndCountsAreShardIndependent) {
  // Large enough for matches from both assembly rounds and the Finish
  // barrier, so the barrier-exact counts cover both.
  constexpr int64_t kEvents = 2000;
  const size_t expected = ReferenceKeys(kTieQuery, kEvents).size();
  ASSERT_GT(expected, 0u);
  const std::vector<std::string> one_shard = CollectedOrder(kEvents, 1);
  EXPECT_EQ(one_shard.size(), expected);
  EXPECT_EQ(CollectedOrder(kEvents, 2), one_shard);
  EXPECT_EQ(CollectedOrder(kEvents, 4), one_shard);
}

TEST(MatchOrder, FanoutOrderAndCountsAreShardIndependent) {
  // Few enough events that no shard engine runs an assembly round before
  // the flush barrier: every match is published inside Flush and fanned
  // out by one drain, so the whole delivery order is the fanout's sort.
  constexpr int64_t kEvents = 60;
  const std::vector<std::string> reference =
      ReferenceKeys(kTieQuery, kEvents);
  ASSERT_GT(reference.size(), 10u);
  // The in-process collecting order is the one the wire must reproduce.
  const std::vector<std::string> collected = CollectedOrder(kEvents, 1);
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE(shards);
    ZStream session;
    ASSERT_TRUE(session.Execute(kStockDdl).ok());
    ASSERT_TRUE(session
                    .Execute(std::string("CREATE QUERY tie ON stock AS ") +
                             kTieQuery)
                    .ok());
    runtime::RuntimeOptions ropts;
    ropts.num_shards = shards;
    auto server = net::Server::Create(&session, ropts);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE((*server)->Start().ok());
    auto client = net::Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE((*client)->Subscribe("tie").ok());
    std::vector<EventPtr> events;
    for (int64_t i = 0; i < kEvents; ++i) events.push_back(Tick(i));
    ASSERT_TRUE((*client)->Ingest("stock", events).ok());
    auto flush = (*client)->Flush();
    ASSERT_TRUE(flush.ok()) << flush.status();
    const std::vector<net::NetMatch> received = (*client)->TakeMatches();

    ASSERT_EQ(flush->queries.size(), 1u);
    EXPECT_EQ(flush->queries[0].second, received.size());
    EXPECT_EQ(received.size(), reference.size());
    auto metrics = (*client)->Metrics();
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_EQ(ScrapeCount(*metrics, "tie"), received.size());

    std::vector<const Match*> order;
    std::vector<std::string> keys;
    for (const net::NetMatch& m : received) {
      order.push_back(&m.match);
      keys.push_back(runtime::CanonicalMatchKey(m.match));
    }
    ExpectOrderedWithSpanTies(order);
    EXPECT_EQ(keys, collected);
    (*client)->Close();
    (*server)->Stop();
  }
}

}  // namespace
}  // namespace zstream
