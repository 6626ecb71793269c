// Batch-boundary semantics: PushBatch (columnar ingest) must be
// observationally identical to event-at-a-time Push for every operator,
// for every split of the stream into spans, and for every engine batch
// size — including the corner cases that only show up at batch edges:
// WITHIN expiry exactly at a boundary, mid-batch releases of the runtime
// shard's reorder stage, and empty / singleton batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "test_util.h"

namespace zstream {
namespace {

using testing::MustAnalyze;
using testing::MatchKey;
using testing::ReferenceMatcher;
using testing::ResetStockIds;
using testing::RunPlan;
using testing::Stock;

// Feeds `events` split into spans of `span` via PushBatch (plus one
// empty batch at the end, which must be a no-op) and returns the sorted
// match keys.
std::vector<std::string> RunBatched(const PatternPtr& pattern,
                                    const PhysicalPlan& plan,
                                    const std::vector<EventPtr>& events,
                                    size_t span,
                                    EngineOptions options = {}) {
  auto engine = Engine::Create(pattern, plan, options);
  if (!engine.ok()) {
    ADD_FAILURE() << "engine create failed: " << engine.status().ToString();
    return {};
  }
  std::vector<std::string> keys;
  (*engine)->SetMatchCallback(
      [&](Match&& m) { keys.push_back(MatchKey(m)); });
  for (size_t i = 0; i < events.size(); i += span) {
    const size_t n = std::min(span, events.size() - i);
    (*engine)->PushBatch(EventBatch{events.data() + i, n});
  }
  (*engine)->PushBatch(EventBatch{nullptr, 0});
  (*engine)->Finish();
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<EventPtr> MixedStream(int n, uint64_t seed, int num_names,
                                  int max_gap = 3) {
  Random rng(seed);
  std::vector<EventPtr> events;
  Timestamp ts = 0;
  const std::string names = "ABCDEF";
  for (int i = 0; i < n; ++i) {
    ts += static_cast<Timestamp>(
        rng.Uniform(static_cast<uint64_t>(max_gap)));
    events.push_back(Stock(std::string(1, names[rng.Uniform(
                               static_cast<uint64_t>(num_names))]),
                           rng.Uniform(100), ts));
  }
  return events;
}

// One query per operator kind (SEQ, NSEQ, KSEQ variants, CONJ, DISJ,
// negation under disjunction -> NegFilter).
struct OperatorCase {
  const char* label;
  const char* query;
  int num_names;
};

const OperatorCase kOperatorCases[] = {
    {"seq",
     "PATTERN A;B;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
     "AND A.price > B.price WITHIN 20",
     3},
    {"nseq",
     "PATTERN A;!B;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
     "WITHIN 20",
     3},
    {"kseq_star",
     "PATTERN A;B*;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
     "WITHIN 20",
     3},
    {"kseq_plus",
     "PATTERN A;B+;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
     "WITHIN 20",
     3},
    {"kseq_count",
     "PATTERN A;B^2;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
     "WITHIN 20",
     3},
    {"conj",
     "PATTERN (A;B) & C WHERE A.name='A' AND B.name='B' AND C.name='C' "
     "WITHIN 20",
     3},
    {"disj",
     "PATTERN (A;B) | (C;D) WHERE A.name='A' AND B.name='B' "
     "AND C.name='C' AND D.name='D' WITHIN 20",
     4},
    {"neg_filter",
     "PATTERN (A;!B;C) | D WHERE A.name='A' AND B.name='B' "
     "AND C.name='C' AND D.name='D' WITHIN 20",
     4},
};

// The brute-force oracle enumerates in class order, which is only the
// semantics of pure sequence shapes (with negation / Kleene); for
// CONJ / DISJ shapes the serial engine execution is the reference.
bool OracleSupports(const std::string& label) {
  return label == "seq" || label == "nseq" || label.rfind("kseq", 0) == 0;
}

// Pushed-down NSEQ records the negator it proved harmless in the match
// payload (an Algorithm 2 artifact, see reference_test); drop negated
// class slots so oracle comparison sees positive bindings only.
std::vector<std::string> StripNegated(const Pattern& p,
                                      std::vector<std::string> keys) {
  const auto negated = p.NegatedClasses();
  if (negated.empty()) return keys;
  for (std::string& k : keys) {
    std::string out;
    size_t pos = 0;
    while (pos < k.size()) {
      const size_t bar = k.find('|', pos);
      if (bar == std::string::npos) {
        out += k.substr(pos);  // group suffix, if any
        break;
      }
      const std::string part = k.substr(pos, bar - pos);
      bool is_negated = false;
      for (const int nc : negated) {
        if (part.rfind(std::to_string(nc) + "@", 0) == 0) is_negated = true;
      }
      if (!is_negated) out += part + "|";
      pos = bar + 1;
    }
    k = out;
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(BatchExec, EveryOperatorEqualsSerialAndOracleAcrossSplits) {
  for (const OperatorCase& c : kOperatorCases) {
    ResetStockIds();
    const PatternPtr p = MustAnalyze(c.query);
    const PhysicalPlan plan = LeftDeepPlan(*p);
    const auto events = MixedStream(120, /*seed=*/42, c.num_names);

    // Reference 1: event-at-a-time Push with batch_size 1 (an assembly
    // round after every event — no batching effects at all).
    EngineOptions serial;
    serial.batch_size = 1;
    const auto expected = RunPlan(p, plan, events, serial);

    // Reference 2: the brute-force matcher, where its semantics apply.
    if (OracleSupports(c.label)) {
      ReferenceMatcher ref(p);
      EXPECT_EQ(StripNegated(*p, expected), StripNegated(*p, ref.Run(events)))
          << c.label;
    }

    for (const size_t span : {size_t{1}, size_t{3}, size_t{17}, size_t{64},
                              events.size()}) {
      for (const int batch : {1, 7, 64}) {
        EngineOptions options;
        options.batch_size = batch;
        EXPECT_EQ(RunBatched(p, plan, events, span, options), expected)
            << c.label << " span=" << span << " batch_size=" << batch;
      }
    }
  }
}

TEST(BatchExec, WithinExpiryExactlyAtBatchEdge) {
  // Pairs whose span is exactly the window (A@t, B@t+W: a match, since
  // WITHIN is inclusive) and exactly one past it (never a match), laid
  // out so the trigger lands first-in-batch for every split tested. An
  // off-by-one in the EAT purge at the boundary flips these.
  const PatternPtr p = MustAnalyze(
      "PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 10");
  const PhysicalPlan plan = LeftDeepPlan(*p);
  std::vector<EventPtr> events;
  for (Timestamp base = 0; base < 200; base += 25) {
    events.push_back(Stock("A", 1.0, base));
    events.push_back(Stock("B", 1.0, base + 10));  // exactly at window
    events.push_back(Stock("A", 1.0, base + 11));
    events.push_back(Stock("B", 1.0, base + 22));  // 11 apart: expired
  }
  EngineOptions serial;
  serial.batch_size = 1;
  const auto expected = RunPlan(p, plan, events, serial);
  ReferenceMatcher ref(p);
  EXPECT_EQ(expected, ref.Run(events));
  // One in-window pair per base, and no cross-base pairs (gaps > 10).
  EXPECT_EQ(expected.size(), 8u);

  for (const size_t span : {size_t{1}, size_t{2}, size_t{4}, size_t{5},
                            events.size()}) {
    for (const int batch : {1, 2, 3, 4, 64}) {
      EngineOptions options;
      options.batch_size = batch;
      EXPECT_EQ(RunBatched(p, plan, events, span, options), expected)
          << "span=" << span << " batch_size=" << batch;
    }
  }
}

TEST(BatchExec, ReorderSlackFlushMidBatch) {
  // Out-of-order input within the slack, ingested as batches: the
  // shard's reorder stage releases events mid-batch as the frontier
  // advances, and the engine takes each release as one span. The match
  // set must equal the in-order stream's, with nothing dropped.
  constexpr char kQuery[] =
      "PATTERN A;B;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
      "WITHIN 20";
  const PatternPtr p = MustAnalyze(kQuery);
  const PhysicalPlan plan = LeftDeepPlan(*p);
  auto events = MixedStream(90, /*seed=*/7, 3);
  // Swap adjacent pairs a few positions apart; the disorder stays
  // within a slack of 5 (MixedStream gaps are < 3).
  std::vector<EventPtr> shuffled = events;
  for (size_t i = 0; i + 1 < shuffled.size(); i += 3) {
    std::swap(shuffled[i], shuffled[i + 1]);
  }

  EngineOptions serial;
  serial.batch_size = 1;
  const auto expected = RunPlan(p, plan, events, serial);

  CompileOptions compile;
  compile.strategy = PlanStrategy::kLeftDeep;
  compile.engine.batch_size = 16;
  for (const size_t span : {size_t{1}, size_t{8}, shuffled.size()}) {
    const testing::ReorderedRun run = testing::RunInReorderingRuntime(
        kQuery, compile, shuffled, /*slack=*/5, span);
    EXPECT_EQ(run.keys, expected) << "span=" << span;
    EXPECT_EQ(run.late_dropped, 0u) << "span=" << span;
  }
}

TEST(BatchExec, EmptyAndSingletonBatchesThroughEveryOperator) {
  for (const OperatorCase& c : kOperatorCases) {
    ResetStockIds();
    const PatternPtr p = MustAnalyze(c.query);
    const PhysicalPlan plan = LeftDeepPlan(*p);
    const auto events = MixedStream(60, /*seed=*/11, c.num_names);

    EngineOptions serial;
    serial.batch_size = 1;
    const auto expected = RunPlan(p, plan, events, serial);

    // Singleton spans, interleaved with empty batches.
    auto engine = Engine::Create(p, plan, EngineOptions{});
    ASSERT_TRUE(engine.ok()) << c.label;
    std::vector<std::string> keys;
    (*engine)->SetMatchCallback(
        [&](Match&& m) { keys.push_back(MatchKey(m)); });
    for (const EventPtr& e : events) {
      (*engine)->PushBatch(EventBatch{nullptr, 0});
      (*engine)->PushBatch(EventBatch{&e, 1});
    }
    (*engine)->PushBatch(EventBatch{nullptr, 0});
    (*engine)->Finish();
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(keys, expected) << c.label;
  }
}

TEST(BatchExec, MatchCountsAgreeWithoutCallback) {
  // The count-only fast path (no callback installed -> sinks skip
  // payload assembly entirely) must count exactly the same matches.
  for (const OperatorCase& c : kOperatorCases) {
    ResetStockIds();
    const PatternPtr p = MustAnalyze(c.query);
    const PhysicalPlan plan = LeftDeepPlan(*p);
    const auto events = MixedStream(120, /*seed=*/42, c.num_names);

    EngineOptions serial;
    serial.batch_size = 1;
    const auto expected = RunPlan(p, plan, events, serial);

    auto engine = Engine::Create(p, plan, EngineOptions{});
    ASSERT_TRUE(engine.ok()) << c.label;
    (*engine)->PushBatch(EventBatch{events.data(), events.size()});
    (*engine)->Finish();
    EXPECT_EQ((*engine)->num_matches(), expected.size()) << c.label;
  }
}

}  // namespace
}  // namespace zstream
