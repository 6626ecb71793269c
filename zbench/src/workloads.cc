// The three workloads. Each is generated in-process from the run's seed
// and checked against a reference computed by a different, single-
// threaded execution path (outside every timed region).
//
//   stock_adaptive    paper Query 6 over the three Figure 14 regimes,
//                     cycled with continuous timestamps; adaptive engine
//                     in an in-process StreamRuntime. Reference: a
//                     static left-deep Engine.
//   stock_rally_wire  paper Query 2 shape (same-name rising triple, hash-
//                     partitioned by name) served by net::Server over
//                     loopback. Reference: a single-threaded
//                     PartitionedEngine.
//   weblog_keys       paper Query 8 over a month-long web log with tens of
//                     thousands of client IPs, hash-routed by IP across
//                     shards. Reference: the unpartitioned left-deep plan.
#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "exec/partitioned_engine.h"
#include "obs/metrics.h"
#include "plan/physical_plan.h"
#include "workload/stock_gen.h"
#include "workload/weblog_gen.h"
#include "zbench.h"

namespace zbench {

using namespace zstream;

namespace {

constexpr char kStockDdl[] =
    "CREATE STREAM stock "
    "(id INT, name STRING, price DOUBLE, volume INT, ts INT)";
constexpr char kWebLogDdl[] =
    "CREATE STREAM weblog (ip STRING, url STRING, category STRING)";

// Paper Query 6 (Section 6.2).
constexpr char kQuery6[] =
    "PATTERN IBM;Sun;Oracle;Google "
    "WHERE IBM.name='IBM' AND Sun.name='Sun' AND Oracle.name='Oracle' "
    "AND Google.name='Google' "
    "AND Oracle.price > Sun.price AND Oracle.price > Google.price "
    "WITHIN 100";
// Figure 14's regimes: rate skew, then sel1 = 1/50, then sel2 = 1/50.
struct Regime {
  int rates[4];  // IBM:Sun:Oracle:Google
  double sel1;   // P(Oracle.price > Sun.price)
  double sel2;   // P(Oracle.price > Google.price)
};
constexpr Regime kRegimes[] = {
    {{1, 100, 100, 100}, 1.0, 1.0},
    {{1, 1, 1, 1}, 1.0 / 50, 1.0},
    {{1, 1, 1, 1}, 1.0, 1.0 / 50},
};
constexpr int64_t kRegimeEvents = 20000;
constexpr int kRegimeCycles = 2;

// Paper Query 2 shape: a same-name rising price triple.
constexpr char kRallyQuery[] =
    "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name "
    "AND A.price < B.price AND B.price < C.price WITHIN 100";
constexpr int kRallySymbols = 32;
constexpr int64_t kRallyEvents = 300000;

// Paper Query 8 (Section 6.5).
constexpr char kQuery8[] =
    "PATTERN Pub;Proj;Course "
    "WHERE Pub.category='publication' AND Proj.category='project' "
    "AND Course.category='course' "
    "AND Pub.ip = Proj.ip = Course.ip "
    "WITHIN 10 hours";
// Each distinct IP keeps a full sub-engine for the life of the query
// (about 16 KB resident each, far more than the engine's tracked bytes),
// so the IP count, not the record count, sets the process's memory.
constexpr int64_t kWebLogRecords = 400000;
constexpr int kWebLogIps = 20000;

inline uint64_t Fmix(uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

/// \brief Uniform prices in [0, 100) drawn stratified: every run of 100
/// draws holds exactly one price in each 1.0-wide stratum, in shuffled
/// order, so a price predicate's selectivity is exact at every scale.
class PriceDeck {
 public:
  double Draw(Random* rng) {
    if (next_ == deck_.size()) {
      deck_.resize(kStrata);
      for (size_t j = 0; j < kStrata; ++j) {
        deck_[j] = (static_cast<double>(j) + rng->NextDouble()) * 100.0 /
                   static_cast<double>(kStrata);
      }
      for (size_t i = kStrata - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng->Uniform(i + 1)]);
      }
      next_ = 0;
    }
    return deck_[next_++];
  }

 private:
  static constexpr size_t kStrata = 100;
  std::vector<double> deck_;
  size_t next_ = 0;
};

/// Appends `count` stock ticks (StockSchema, timestamps continuing from
/// out->size()). Names arrive in a smooth weighted round-robin, so each
/// name trades at exactly `rates[i]` per sum(rates) events at every
/// scale, and free prices are stratified (PriceDeck), so predicate
/// selectivities are exact too. The seed picks every free price and
/// volume. Unlike independent draws (workload/stock_gen.h), match counts,
/// peak state and adaptive re-planning then vary little from seed to
/// seed. A name with a finite `fixed_price` always trades at it.
void AppendTicks(const std::vector<std::string>& names,
                 const std::vector<int>& rates,
                 const std::vector<double>& fixed_price, int64_t count,
                 Random* rng, std::vector<EventPtr>* out) {
  int total = 0;
  for (const int r : rates) total += r;
  std::vector<int> credit(names.size(), 0);
  std::vector<PriceDeck> decks(names.size());
  const SchemaPtr schema = StockSchema();
  for (int64_t n = 0; n < count; ++n) {
    size_t name = 0;
    for (size_t i = 0; i < names.size(); ++i) {
      credit[i] += rates[i];
      if (credit[i] > credit[name]) name = i;
    }
    credit[name] -= total;
    const double price = std::isfinite(fixed_price[name])
                             ? fixed_price[name]
                             : decks[name].Draw(rng);
    const auto ts = static_cast<int64_t>(out->size());
    out->push_back(EventBuilder(schema)
                       .Set("id", ts)
                       .Set("name", Value(names[name]))
                       .Set("price", price)
                       .Set("volume", rng->UniformRange(1, 1000))
                       .Set("ts", ts)
                       .At(ts)
                       .Build());
  }
}

std::vector<EventPtr> StockAdaptiveEvents(uint64_t seed) {
  const std::vector<std::string> names = {"IBM", "Sun", "Oracle", "Google"};
  const double free = std::numeric_limits<double>::quiet_NaN();
  Random rng(Fmix(seed));
  std::vector<EventPtr> events;
  for (int cycle = 0; cycle < kRegimeCycles; ++cycle) {
    for (const Regime& r : kRegimes) {
      AppendTicks(
          names, {std::begin(r.rates), std::end(r.rates)},
          {free, FixedPriceForSelectivity(r.sel1, 0, 100), free,
           FixedPriceForSelectivity(r.sel2, 0, 100)},
          kRegimeEvents, &rng, &events);
    }
  }
  return events;
}

std::vector<EventPtr> RallyEvents(uint64_t seed) {
  std::vector<std::string> names;
  for (int i = 0; i < kRallySymbols; ++i) {
    names.emplace_back("S");
    names.back() += std::to_string(100 + i);
  }
  Random rng(Fmix(seed));
  std::vector<EventPtr> events;
  AppendTicks(
      names, std::vector<int>(names.size(), 1),
      std::vector<double>(names.size(),
                          std::numeric_limits<double>::quiet_NaN()),
      kRallyEvents, &rng, &events);
  return events;
}

std::vector<EventPtr> WebLogEvents(uint64_t seed) {
  WebLogGenOptions gen;
  // Table 4's special-access counts, scaled to the shorter log.
  const WebLogGenOptions full;
  const double scale = static_cast<double>(kWebLogRecords) /
                       static_cast<double>(full.total_records);
  gen.total_records = kWebLogRecords;
  gen.publication_accesses =
      static_cast<int64_t>(static_cast<double>(full.publication_accesses) *
                           scale);
  gen.project_accesses =
      static_cast<int64_t>(static_cast<double>(full.project_accesses) * scale);
  gen.course_accesses =
      static_cast<int64_t>(static_cast<double>(full.course_accesses) * scale);
  gen.num_ips = kWebLogIps;
  gen.seed = Fmix(seed);
  return GenerateWebLog(gen);
}

Result<PatternPtr> AnalyzeWorkload(const Workload& w,
                                   const AnalyzerOptions& options) {
  ZStream session;
  ZS_RETURN_IF_ERROR(session.Execute(w.stream_ddl).status());
  return session.Analyze(w.stream, w.text, options);
}

template <typename EngineT>
MatchDigest RunReference(EngineT& engine, const Workload& w) {
  MatchDigest digest;
  engine.SetMatchCallback([&digest](Match&& m) { digest.Add(m); });
  for (const EventPtr& e : w.events) engine.Push(e);
  engine.Finish();
  return digest;
}

}  // namespace

void MatchDigest::Add(const Match& match) {
  uint64_t h = Fmix(static_cast<uint64_t>(match.span.start));
  h = Fmix(h ^ static_cast<uint64_t>(match.span.end));
  for (size_t i = 0; i < match.slots.size(); ++i) {
    if (match.slots[i] == nullptr) continue;
    h = Fmix(h ^ (i + 1));
    h = Fmix(h ^ static_cast<uint64_t>(match.slots[i]->timestamp()));
  }
  if (match.group != nullptr) {
    h = Fmix(h ^ 0x67726f7570ULL);
    for (const EventPtr& e : *match.group) {
      h = Fmix(h ^ static_cast<uint64_t>(e->timestamp()));
    }
  }
  ++count;
  sum += h;
}

size_t Schedule::BatchOfEvent(Timestamp end) const {
  const auto it =
      std::lower_bound(timestamps->begin(), timestamps->end(), end);
  size_t idx = static_cast<size_t>(it - timestamps->begin());
  if (idx >= timestamps->size()) idx = timestamps->size() - 1;
  return idx / batch;
}

void Receiver::Receive(const Match& match, const Schedule* schedule) {
  digest.Add(match);
  if (schedule != nullptr &&
      schedule->recording.load(std::memory_order_relaxed) &&
      (Fmix(static_cast<uint64_t>(match.span.end)) & schedule->sample_mask) ==
          0) {
    const size_t b = schedule->BatchOfEvent(match.span.end);
    latency.push_back(LatencySample{
        static_cast<uint32_t>(b),
        static_cast<int64_t>(obs::MonotonicNanos()) -
            static_cast<int64_t>(schedule->SentNs(b))});
  }
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "stock_adaptive") {
    w.stream = "stock";
    w.stream_ddl = kStockDdl;
    w.query = "q6";
    w.text = kQuery6;
    // Figure 14's adaptive settings.
    w.compile.engine.adaptive = true;
    w.compile.engine.adaptive_options.drift_threshold = 0.4;
    w.compile.engine.adaptive_options.improvement_threshold = 0.05;
    w.compile.engine.adaptive_options.check_every_rounds = 8;
    // The query has no partition key, so the runtime pins it to one
    // shard; more shards would only add idle threads.
    w.shards = 1;
    w.events = StockAdaptiveEvents(seed);
  } else if (name == "stock_rally_wire") {
    w.stream = "stock";
    w.stream_ddl = kStockDdl;
    w.query = "rally";
    w.text = kRallyQuery;
    // Producer, subscriber, server poll thread and one shard worker
    // fill the four cores.
    w.shards = 1;
    w.wire = true;
    w.events = RallyEvents(seed);
  } else if (name == "weblog_keys") {
    w.stream = "weblog";
    w.stream_ddl = kWebLogDdl;
    w.query = "q8";
    w.text = kQuery8;
    // Producer plus two shard workers leave a core spare for the
    // system's own threads.
    w.shards = 2;
    w.events = WebLogEvents(seed);
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  w.compile.engine.label = w.query;
  w.timestamps.reserve(w.events.size());
  for (const EventPtr& e : w.events) w.timestamps.push_back(e->timestamp());
  for (size_t i = 0; i < w.events.size(); i += w.batch) {
    const size_t end = std::min(i + w.batch, w.events.size());
    w.batches.emplace_back(w.events.begin() + static_cast<std::ptrdiff_t>(i),
                           w.events.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return w;
}

Result<MatchDigest> ReferenceDigest(const Workload& w) {
  if (w.name == "weblog_keys") {
    // The unpartitioned plan: equality predicates stay in the operators
    // instead of becoming a partition key.
    AnalyzerOptions flat;
    flat.detect_partition = false;
    ZS_ASSIGN_OR_RETURN(PatternPtr pattern, AnalyzeWorkload(w, flat));
    ZS_ASSIGN_OR_RETURN(auto engine,
                        Engine::Create(pattern, LeftDeepPlan(*pattern)));
    return RunReference(*engine, w);
  }
  ZS_ASSIGN_OR_RETURN(PatternPtr pattern, AnalyzeWorkload(w, {}));
  if (w.name == "stock_rally_wire") {
    ZS_ASSIGN_OR_RETURN(
        auto engine, PartitionedEngine::Create(pattern, LeftDeepPlan(*pattern)));
    return RunReference(*engine, w);
  }
  // A static (non-adaptive) plan: adaptation must not change the match
  // set.
  ZS_ASSIGN_OR_RETURN(auto engine,
                      Engine::Create(pattern, LeftDeepPlan(*pattern)));
  return RunReference(*engine, w);
}

}  // namespace zbench
