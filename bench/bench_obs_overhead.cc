// Observability overhead: tracks the cost of the compiled-in engine
// instrumentation (per-node event/match counters, pair counts, buffer
// gauges, slow-event clocking) on Figure 8's Query 4 (PATTERN
// IBM;Sun;Oracle, left-deep plan) at three predicate selectivities.
// The instrumentation is always on, so its budget (within 3%) is
// judged like any other regression: this binary's rows before and
// after a change, on the same host.
//
// A second table bounds the cost of the end-to-end tracer (obs/trace.h)
// on the same workload: tracing off, 1-in-100 batch sampling (the
// production default suggested in docs/tracing.md; target within 3% of
// off), and every-batch sampling (the worst case). The driver simulates
// the runtime's ingest batching — one sampling decision per 256-event
// chunk, thread-local trace id set around the chunk — so the engine's
// trace-gated instrumentation runs exactly as it does under a shard
// worker.
//
// A third table microbenchmarks the obs primitives themselves
// (relaxed-atomic counter increments, histogram observes, labeled
// registry lookups, trace span records) so a regression in the registry
// or tracer shows up here before it shows up as engine noise.
#include <algorithm>
#include <chrono>
#include <cstdint>

#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zstream::bench {
namespace {

constexpr char kSeries[] = "instrumented";

constexpr char kQuery[] =
    "PATTERN IBM;Sun;Oracle "
    "WHERE IBM.name='IBM' AND Sun.name='Sun' AND Oracle.name='Oracle' "
    "AND IBM.price > Sun.price WITHIN 200";

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One primitive op measured in a tight loop; records ops/s in the
// RunResult throughput slot so it merges into the baseline like any
// other series.
template <typename Fn>
RunResult TimeOp(uint64_t iters, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) fn(i);
  RunResult result;
  result.elapsed_s = SecondsSince(start);
  result.throughput =
      result.elapsed_s > 0 ? static_cast<double>(iters) / result.elapsed_s
                           : 0.0;
  return result;
}

// Pushes `events` through a fresh tree engine in 256-event ingest
// chunks, taking one trace sampling decision per chunk (the runtime's
// batching pattern). `sample_every` = 0 leaves tracing off.
RunResult RunTracedTreePlan(const PatternPtr& pattern,
                            const PhysicalPlan& plan,
                            const std::vector<EventPtr>& events,
                            uint32_t sample_every) {
  obs::TraceOptions topts;
  topts.sample_every = sample_every;
  topts.ring_slots = 8192;
  topts.num_lanes = 2;
  obs::Tracer::Global().Configure(topts);

  constexpr size_t kChunk = 256;
  const int reps = Repetitions();
  RunResult result;
  double rate_sum = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto engine = Engine::Create(pattern, plan, {});
    if (!engine.ok()) {
      std::fprintf(stderr, "engine create failed: %s\n",
                   engine.status().ToString().c_str());
      std::abort();
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t base = 0; base < events.size(); base += kChunk) {
      obs::SetCurrentTrace(obs::TraceSampleBatch());
      const size_t end = std::min(base + kChunk, events.size());
      for (size_t i = base; i < end; ++i) (*engine)->Push(events[i]);
    }
    obs::SetCurrentTrace(0);
    (*engine)->Finish();
    const double secs = SecondsSince(t0);
    rate_sum += secs > 0 ? static_cast<double>(events.size()) / secs : 0.0;
    result.elapsed_s = secs;
    result.matches = (*engine)->num_matches();
    result.peak_mb = (*engine)->memory().peak_mb();
  }
  result.throughput = rate_sum / reps;

  // Disarm so the series don't bleed into each other (or the primitive
  // loops below).
  topts.sample_every = 0;
  obs::Tracer::Global().Configure(topts);
  return result;
}

int Run() {
  Banner("Observability overhead",
         std::string("Query 4 left-deep throughput with engine "
                     "instrumentation ") +
             kSeries + ", plus obs primitive costs");

  auto pattern = AnalyzeQuery(kQuery, StockSchema());
  if (!pattern.ok()) {
    std::fprintf(stderr, "%s\n", pattern.status().ToString().c_str());
    return 1;
  }
  const PatternPtr p = *pattern;
  const PhysicalPlan left = LeftDeepPlan(*p);

  Table engine_table(
      {"selectivity", std::string(kSeries) + " (ev/s)", "matches"});
  for (int denom : {1, 4, 16}) {
    const double sel = 1.0 / denom;
    StockGenOptions gen;
    gen.names = {"IBM", "Sun", "Oracle"};
    gen.weights = {1, 1, 1};
    gen.num_events = 60000;
    gen.seed = 8;  // Figure 8's seed: identical workload across builds
    gen.fixed_price = {{"Sun", FixedPriceForSelectivity(sel, 0, 100)}};
    const auto events = GenerateStockTrades(gen);

    const RunResult r = RunTreePlan(p, left, events);
    const std::string sel_label = IndexedName("1/", denom);
    RecordResult("obs_overhead", kSeries, sel_label, r);
    engine_table.AddRow({sel_label, FormatThroughput(r.throughput),
                         std::to_string(r.matches)});
  }
  engine_table.Print();

  // -------------------------------------------------------------------
  // Tracing overhead on the same workload (selectivity 1/4): off vs
  // 1-in-100 batch sampling vs every batch. The 1-in-100 row is the
  // one the ≤3% budget applies to.
  // -------------------------------------------------------------------
  {
    StockGenOptions gen;
    gen.names = {"IBM", "Sun", "Oracle"};
    gen.weights = {1, 1, 1};
    gen.num_events = 60000;
    gen.seed = 8;
    gen.fixed_price = {{"Sun", FixedPriceForSelectivity(0.25, 0, 100)}};
    const auto events = GenerateStockTrades(gen);

    Table trace_table({"tracing", "ev/s", "vs off"});
    double off_rate = 0.0;
    for (const auto& [label, every] :
         {std::pair<const char*, uint32_t>{"off", 0},
          {"1-in-100", 100},
          {"every batch", 1}}) {
      const RunResult r = RunTracedTreePlan(p, left, events, every);
      RecordResult("obs_trace_overhead", kSeries, label, r);
      if (every == 0) off_rate = r.throughput;
      const double rel =
          off_rate > 0 ? 100.0 * r.throughput / off_rate : 100.0;
      trace_table.AddRow({label, FormatThroughput(r.throughput),
                          FormatDouble(rel, 1) + "%"});
    }
    trace_table.Print();
  }

  // -------------------------------------------------------------------
  // Registry primitives. The counter/histogram loops exercise the exact
  // instruments the engine hot path touches; the lookup loop is the
  // slow path (name + label match under the registry mutex) that only
  // registration and scrapes pay.
  // -------------------------------------------------------------------
  obs::Registry registry;
  obs::Counter* counter =
      registry.GetCounter("bench_ops_total", {}, "bench counter");
  obs::Histogram* histogram = registry.GetHistogram(
      "bench_latency_seconds", {}, "bench histogram", 1e-9);

  constexpr uint64_t kHotIters = 20'000'000;
  constexpr uint64_t kLookupIters = 1'000'000;
  const RunResult inc =
      TimeOp(kHotIters, [&](uint64_t) { counter->Inc(); });
  const RunResult observe = TimeOp(
      kHotIters, [&](uint64_t i) { histogram->Observe(i & 0xffff); });
  const RunResult lookup = TimeOp(kLookupIters, [&](uint64_t) {
    registry.GetCounter("bench_ops_total", {}, "bench counter")->Inc();
  });
  obs::TraceOptions topts;
  topts.sample_every = 1;
  topts.ring_slots = 8192;
  topts.num_lanes = 2;
  obs::Tracer::Global().Configure(topts);
  const RunResult span_rec = TimeOp(kHotIters, [&](uint64_t i) {
    obs::TraceRecord(1, obs::SpanKind::kOperator, 0x1234, i, i + 5, "op", i);
  });
  topts.sample_every = 0;
  obs::Tracer::Global().Configure(topts);

  RecordResult("obs_primitives", kSeries, "counter_inc", inc);
  RecordResult("obs_primitives", kSeries, "histogram_observe", observe);
  RecordResult("obs_primitives", kSeries, "registry_lookup", lookup);
  RecordResult("obs_primitives", kSeries, "trace_record", span_rec);

  Table prim_table({"primitive", "ops/s", "ns/op"});
  const auto ns_per_op = [](const RunResult& r) {
    return FormatDouble(r.throughput > 0 ? 1e9 / r.throughput : 0.0, 2);
  };
  prim_table.AddRow({"counter_inc", FormatThroughput(inc.throughput),
                     ns_per_op(inc)});
  prim_table.AddRow({"histogram_observe",
                     FormatThroughput(observe.throughput),
                     ns_per_op(observe)});
  prim_table.AddRow({"registry_lookup", FormatThroughput(lookup.throughput),
                     ns_per_op(lookup)});
  prim_table.AddRow({"trace_record", FormatThroughput(span_rec.throughput),
                     ns_per_op(span_rec)});
  prim_table.Print();
  return 0;
}

}  // namespace
}  // namespace zstream::bench

int main() { return zstream::bench::Run(); }
