// zbench driver: runs one workload for one seed and prints a raw JSON
// report on stdout (zbench/run.py turns it into the benchmark's metrics).
//
//   zbench --workload NAME --seed N --seconds S --rate EV_PER_S
//          [--trace 0|1] [--trace-file PATH]
//
// Phases, all on inputs generated from the seed:
//   1. reference   the match set from an independent single-threaded path
//                  (untimed).
//   2. passes      until S seconds have elapsed (at least four rounds),
//                  each round on fresh targets:
//      open loop   (wire workload only) one pass at the fixed offered
//                  rate --rate: detection latency and how late the sender
//                  ran.
//      closed loop one pass at maximum rate: throughput and peak state,
//                  and in-process, detection latency under that load.
//                  With --trace 1, every other pass records ledger spans,
//                  so traced and untraced throughput can be compared.
//      set-up      the target opened 4 times back to back; each opening
//                  is timed until it is ready to ingest, and closed
//                  outside the timed region.
//   3. extras      (--trace 1) one untimed pass that scrapes the registry
//                  between batches, then standalone timings of single
//                  layers: DDL, planning, verification, the
//                  single-threaded engine, wire encode/decode.
// Every pass's match set is compared with the reference; any mismatch
// makes the exit code nonzero.
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ledger.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "report.h"
#include "verify/plan_verifier.h"
#include "zbench.h"

namespace zbench {
namespace {

using namespace zstream;
using Span = Ledger::Span;

constexpr int kMinPasses = 4;
constexpr int kMaxPasses = 200;
// Set-up is about a millisecond, so it is sampled many times per run:
// this many times back to back after each closed-loop pass.
constexpr size_t kSetupSamplesPerPass = 4;
// Repetitions of each standalone layer timing (medians are reported).
constexpr int kLayerReps = 11;
// Registry scrapes in the scrape pass (queue depth is sampled between
// batches).
constexpr size_t kScrapes = 32;
// Events encoded and decoded for the wire codec timings.
constexpr size_t kCodecEvents = 100000;
// Open-loop latency windows: about this much send time each.
constexpr double kLatencyWindowNs = 50e6;
// Closed-loop passes sample about this many match latencies each.
constexpr uint64_t kClosedLoopSamples = uint64_t{1} << 14;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  double rate = 0.0;
  bool trace = false;
  std::string trace_file;
};

uint64_t Now() { return obs::MonotonicNanos(); }

/// Busy-waits until `due_ns`. Sleeping would let the sender's vCPU halt,
/// and on a loaded virtual machine waking it again takes up to a few
/// milliseconds, which would land in every measured latency. Busy
/// threads stay within the core count, so the spin takes no core the
/// system under test needs.
void WaitUntilNs(uint64_t due_ns) {
  while (Now() < due_ns) {
  }
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// \brief Detection latencies of a run, cut into windows: windows of
/// send time in the open loop, one window per pass in the closed loop.
/// p50 is taken over every sample. p99 is the median of the windows'
/// p99s, so a stall of the host that lands in a few windows does not
/// decide it; the p99 over every sample is reported next to it.
struct LatencyTotals {
  std::vector<int64_t> pooled_ns;
  std::vector<double> window_p99_ms;
  // Open loop only: how far behind schedule batches went out, per
  // window, and the part of that the sender caused itself after the
  // previous call had returned (the rest is the system blocking ingest,
  // which latency already counts because it is measured from the due
  // time).
  std::vector<double> lag_p99_ms;
  std::vector<double> own_lag_p99_ms;

  void AddWindow(const std::vector<int64_t>& ns) {
    if (ns.empty()) return;
    pooled_ns.insert(pooled_ns.end(), ns.begin(), ns.end());
    window_p99_ms.push_back(Ms(Quantile(ns, 0.99)));
  }

  void Write(JsonWriter* out) const {
    out->BeginObject();
    out->Field("samples", static_cast<uint64_t>(pooled_ns.size()));
    out->Field("windows", static_cast<uint64_t>(window_p99_ms.size()));
    out->Field("p50_ms", Ms(Quantile(pooled_ns, 0.50)));
    out->Field("p99_ms", Median(window_p99_ms));
    out->Field("pooled_p99_ms", Ms(Quantile(pooled_ns, 0.99)));
    out->EndObject();
  }
};

/// Everything the run accumulates across phases.
struct Run {
  const Workload* w = nullptr;
  MatchDigest reference;
  /// Closed-loop latency sampling mask (see Schedule::sample_mask).
  uint64_t sample_mask = 0;
  Ledger ledger;
  LatencyTotals latency;
  std::vector<double> setup_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  JsonWriter out;

  /// Compares a pass's match set with the reference.
  bool Check(const char* phase, const Target& target, const Status& flush) {
    const MatchDigest got = target.Digest();
    const bool ok = flush.ok() && got == reference;
    if (!ok) {
      std::fprintf(stderr,
                   "zbench: %s: match set differs from the reference "
                   "(%llu matches, digest %016llx; expected %llu, %016llx)%s%s\n",
                   phase, static_cast<unsigned long long>(got.count),
                   static_cast<unsigned long long>(got.sum),
                   static_cast<unsigned long long>(reference.count),
                   static_cast<unsigned long long>(reference.sum),
                   flush.ok() ? "" : "; flush: ",
                   flush.ok() ? "" : flush.ToString().c_str());
      correct = false;
    }
    return ok;
  }

  /// The target's registry document, or "null" (failing the run).
  std::string MetricsDoc(Target* target) {
    auto doc = target->Metrics();
    if (doc.ok()) return std::move(*doc);
    std::fprintf(stderr, "zbench: metrics: %s\n",
                 doc.status().ToString().c_str());
    correct = false;
    return "null";
  }
};

/// One pass of the whole input at `rate`, on a freshly opened target.
/// Returns the duration of the pass in seconds.
Result<double> OpenLoopPass(Run* run, double rate,
                            std::vector<std::string>* metrics) {
  const Workload& w = *run->w;
  const size_t n = w.batches.size();
  Schedule schedule(&w.timestamps, w.batch, n, /*sample_mask=*/0);
  ZS_ASSIGN_OR_RETURN(std::unique_ptr<Target> target,
                      OpenTarget(w, &schedule, nullptr));

  const double interval_ns = static_cast<double>(w.batch) / rate * 1e9;
  const size_t num_windows = std::max<size_t>(
      1, static_cast<size_t>(std::lround(interval_ns *
                                         static_cast<double>(n) /
                                         kLatencyWindowNs)));
  const auto window_of = [&](size_t batch) { return batch * num_windows / n; };
  std::vector<std::vector<int64_t>> lag_ns(num_windows);
  std::vector<std::vector<int64_t>> own_lag_ns(num_windows);
  uint64_t failed = 0;
  uint64_t prev_return = 0;
  const uint64_t start = Now() + 1000000;
  schedule.recording.store(true);
  for (size_t b = 0; b < n; ++b) {
    const uint64_t due =
        start + static_cast<uint64_t>(interval_ns * static_cast<double>(b));
    schedule.Stamp(b, due);
    WaitUntilNs(due);
    const uint64_t sent = Now();
    lag_ns[window_of(b)].push_back(static_cast<int64_t>(sent - due));
    own_lag_ns[window_of(b)].push_back(
        static_cast<int64_t>(sent - std::max(due, prev_return)));
    failed += target->Ingest(w.batches[b]);
    prev_return = Now();
  }
  schedule.recording.store(false);
  const Status flush = target->Flush();
  const double secs = static_cast<double>(Now() - start) / 1e9;
  run->Check("open loop", *target, flush);
  run->attempted += w.events.size();
  run->failed += failed;

  std::vector<std::vector<int64_t>> latency_ns(num_windows);
  for (const LatencySample& s : target->TakeLatencies()) {
    latency_ns[window_of(s.batch)].push_back(s.ns);
  }
  for (size_t k = 0; k < num_windows; ++k) {
    run->latency.AddWindow(latency_ns[k]);
    run->latency.lag_p99_ms.push_back(Ms(Quantile(lag_ns[k], 0.99)));
    run->latency.own_lag_p99_ms.push_back(Ms(Quantile(own_lag_ns[k], 0.99)));
  }
  metrics->push_back(run->MetricsDoc(target.get()));
  return secs;
}

void WriteOpenLoop(Run* run, double rate, double duration_s,
                   const std::vector<std::string>& metrics) {
  JsonWriter& out = run->out;
  out.Key("open_loop").BeginObject();
  out.Field("rate", rate);
  out.Field("passes", static_cast<uint64_t>(metrics.size()));
  out.Field("duration_s", duration_s);
  out.Field("lag_p99_ms", Median(run->latency.lag_p99_ms));
  out.Field("own_lag_p99_ms", Median(run->latency.own_lag_p99_ms));
  out.Key("metrics").BeginArray();
  for (const std::string& doc : metrics) out.Raw(doc);
  out.EndArray();
  out.EndObject();
}

/// One closed-loop pass on a freshly opened target. With `sample`, the
/// pass records detection latencies as one window of run->latency.
Status ClosedPass(Run* run, bool traced, bool sample) {
  const Workload& w = *run->w;
  Ledger* ledger = traced ? &run->ledger : nullptr;
  JsonWriter& out = run->out;
  out.BeginObject();
  out.Field("traced", traced);
  if (traced) out.Key("process_before").Raw(obs::Registry::Default().RenderJson());
  std::unique_ptr<Schedule> schedule;
  if (sample) {
    schedule = std::make_unique<Schedule>(&w.timestamps, w.batch,
                                          w.batches.size(), run->sample_mask);
  }
  ZS_ASSIGN_OR_RETURN(std::unique_ptr<Target> target,
                      OpenTarget(w, schedule.get(), ledger));

  uint64_t failed = 0;
  Status flush;
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  {
    Span pass(ledger, Ledger::kPassSpan);
    t0 = Now();
    if (sample) schedule->recording.store(true);
    for (size_t b = 0; b < w.batches.size(); ++b) {
      if (sample) schedule->Stamp(b, Now());
      failed += target->Ingest(w.batches[b]);
    }
    if (sample) schedule->recording.store(false);
    flush = target->Flush();
    t1 = Now();
  }
  run->attempted += w.events.size();
  run->failed += failed;
  const double secs = static_cast<double>(t1 - t0) / 1e9;
  out.Field("secs", secs);
  out.Field("eps", static_cast<double>(w.events.size()) / secs);
  out.Field("failed", failed);
  out.Field("ok", run->Check("closed-loop pass", *target, flush));
  out.Key("metrics").Raw(run->MetricsDoc(target.get()));
  out.EndObject();
  if (sample) {
    std::vector<int64_t> ns;
    for (const LatencySample& s : target->TakeLatencies()) ns.push_back(s.ns);
    run->latency.AddWindow(ns);
  }
  return Status::OK();
}

/// One untimed pass that scrapes the target's registry between batches
/// (queue depth), so the scrapes' cost stays out of every timed pass.
Status ScrapePass(Run* run) {
  const Workload& w = *run->w;
  JsonWriter& out = run->out;
  ZS_ASSIGN_OR_RETURN(std::unique_ptr<Target> target,
                      OpenTarget(w, nullptr, nullptr));
  const size_t every = std::max<size_t>(1, w.batches.size() / kScrapes);
  uint64_t failed = 0;
  out.Key("scrapes").BeginArray();
  for (size_t b = 0; b < w.batches.size(); ++b) {
    failed += target->Ingest(w.batches[b]);
    if (b % every == 0) out.Raw(run->MetricsDoc(target.get()));
  }
  out.EndArray();
  run->Check("scrape pass", *target, target->Flush());
  run->attempted += w.events.size();
  run->failed += failed;
  return Status::OK();
}

/// Standalone timings of single layers on this workload's query and
/// input, recorded as ledger spans outside any pass.
Status LayerExtras(Run* run) {
  const Workload& w = *run->w;
  Ledger* ledger = &run->ledger;
  JsonWriter& out = run->out;
  out.Key("layers").BeginObject();

  ZStream session;
  ZS_RETURN_IF_ERROR(session.Execute(w.stream_ddl).status());
  if (!w.wire) {
    // The wire workload's CREATE QUERY is already timed in every set-up
    // (Client::Execute); in-process it is ZStream::Execute.
    for (int i = 0; i < kLayerReps; ++i) {
      ZStream fresh;
      ZS_RETURN_IF_ERROR(fresh.Execute(w.stream_ddl).status());
      Span span(ledger, "query.create_query");
      ZS_RETURN_IF_ERROR(
          fresh.Execute(w.CreateQueryDdl(), w.compile).status());
    }
  }
  ZS_ASSIGN_OR_RETURN(PatternPtr pattern,
                      session.Analyze(w.stream, w.text, w.compile.analyzer));
  PhysicalPlan plan;
  for (int i = 0; i < kLayerReps; ++i) {
    Span span(ledger, "opt.build_plan");
    ZS_ASSIGN_OR_RETURN(plan, BuildPlan(pattern, w.compile));
  }
  out.Field("plan_cost", plan.estimated_cost);
  for (int i = 0; i < kLayerReps; ++i) {
    Span span(ledger, "verify.verify_plan");
    ZS_RETURN_IF_ERROR(verify::VerifyPlan(*pattern, plan));
  }

  // The single-threaded baseline: the same input through a Compile()d
  // Query, unprofiled for ns/event, then profiled for EXPLAIN ANALYZE.
  for (const bool profile : {false, true}) {
    CompileOptions compile = w.compile;
    compile.engine.profile = profile;
    ZS_ASSIGN_OR_RETURN(std::unique_ptr<Query> query,
                        session.Compile(w.stream, w.text, compile));
    MatchDigest digest;
    query->SetMatchCallback([&digest](Match&& m) { digest.Add(m); });
    const uint64_t t0 = Now();
    {
      Span span(ledger, profile ? "exec.query_push_profiled"
                                : "exec.query_push");
      for (const EventPtr& e : w.events) query->Push(e);
      query->Finish();
    }
    const uint64_t elapsed = Now() - t0;
    if (digest != run->reference) {
      std::fprintf(stderr, "zbench: single-threaded Query: match set "
                           "differs from the reference\n");
      run->correct = false;
    }
    if (profile) {
      out.Field("explain_analyze", query->ExplainAnalyze());
    } else {
      out.Field("exec_ns_per_event", static_cast<double>(elapsed) /
                                         static_cast<double>(w.events.size()));
    }
  }

  // Wire codec over the workload's own batches.
  ZS_ASSIGN_OR_RETURN(SchemaPtr schema, session.catalog().stream(w.stream));
  uint64_t encode_ns = 0;
  uint64_t decode_ns = 0;
  uint64_t bytes = 0;
  size_t events = 0;
  std::string payload;
  std::string frame;
  for (const std::vector<EventPtr>& batch : w.batches) {
    if (events >= kCodecEvents) break;
    payload.clear();
    uint64_t t0 = Now();
    {
      Span span(ledger, "net.encode_batch");
      net::AppendEventBatch(&payload, w.stream, batch, 0, batch.size());
    }
    encode_ns += Now() - t0;
    frame.clear();
    net::AppendFrame(&frame, net::MsgType::kEventBatch, 0, payload);
    bytes += frame.size();
    t0 = Now();
    {
      Span span(ledger, "net.decode_batch");
      net::FrameParser parser;
      parser.Append(frame.data(), frame.size());
      ZS_ASSIGN_OR_RETURN(auto next, parser.Next());
      if (!next.has_value()) return Status::Internal("frame did not parse");
      net::PayloadReader reader(next->payload);
      ZS_RETURN_IF_ERROR(reader.ReadString().status());
      ZS_RETURN_IF_ERROR(reader.ReadU64().status());
      ZS_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
      for (uint32_t i = 0; i < count; ++i) {
        ZS_RETURN_IF_ERROR(net::ReadEvent(&reader, schema).status());
      }
    }
    decode_ns += Now() - t0;
    events += batch.size();
  }
  const double n = static_cast<double>(events);
  out.Field("encode_ns_per_event", static_cast<double>(encode_ns) / n);
  out.Field("decode_ns_per_event", static_cast<double>(decode_ns) / n);
  out.Field("bytes_per_event", static_cast<double>(bytes) / n);
  out.EndObject();
  return Status::OK();
}

Status RunAll(Run* run, const Options& o) {
  const Workload& w = *run->w;
  JsonWriter& out = run->out;
  const uint64_t deadline = Now() + static_cast<uint64_t>(o.seconds * 1e9);

  // In-process, latency is sampled in the untraced closed-loop passes:
  // about kClosedLoopSamples matches each.
  run->sample_mask =
      std::bit_ceil(std::max<uint64_t>(
          1, run->reference.count / kClosedLoopSamples)) - 1;
  std::vector<std::string> open_loop_metrics;
  double open_loop_s = 0.0;
  out.Key("passes").BeginArray();
  int passes = 0;
  while ((passes < kMinPasses || Now() < deadline) && passes < kMaxPasses) {
    // On the wire, each closed-loop pass follows an open-loop one, so a
    // spell of host interference lands in a few passes of each kind
    // instead of deciding a whole phase.
    if (w.wire) {
      ZS_ASSIGN_OR_RETURN(const double secs,
                          OpenLoopPass(run, o.rate, &open_loop_metrics));
      open_loop_s += secs;
    }
    const bool traced = o.trace && passes % 2 == 0;
    ZS_RETURN_IF_ERROR(ClosedPass(run, traced, !traced && !w.wire));
    ++passes;
    // Set-up is sampled between passes, so its median spans the whole
    // run rather than one moment of the host.
    for (size_t i = 0; i < kSetupSamplesPerPass; ++i) {
      const uint64_t t0 = Now();
      ZS_ASSIGN_OR_RETURN(
          std::unique_ptr<Target> target,
          OpenTarget(w, nullptr, o.trace ? &run->ledger : nullptr));
      run->setup_s.push_back(static_cast<double>(Now() - t0) / 1e9);
      // `target` closes here, outside the timed region.
    }
  }
  out.EndArray();
  if (w.wire) WriteOpenLoop(run, o.rate, open_loop_s, open_loop_metrics);
  out.Key("latency");
  run->latency.Write(&out);
  out.Key("setup_s").BeginArray();
  for (const double s : run->setup_s) out.Value(s);
  out.EndArray();

  if (o.trace) {
    ZS_RETURN_IF_ERROR(ScrapePass(run));
    ZS_RETURN_IF_ERROR(LayerExtras(run));
    out.Key("ledger");
    run->ledger.WriteSummary(&out);
    if (!o.trace_file.empty()) {
      ZS_RETURN_IF_ERROR(run->ledger.WriteChromeTrace(o.trace_file));
    }
  }
  return Status::OK();
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value, nullptr);
    } else if (key == "--rate") {
      o->rate = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      o->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-file") {
      o->trace_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->rate > 0 &&
         o->seconds > 0;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: zbench --workload NAME --seed N --seconds S "
                 "--rate EV_PER_S [--trace 0|1] [--trace-file PATH]\n");
    return 2;
  }
  // --rate is the wire workload's open-loop rate; the others ignore it.
  auto workload = MakeWorkload(o.workload, o.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "zbench: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  Run run;
  run.w = &*workload;
  auto reference = ReferenceDigest(*workload);
  if (!reference.ok()) {
    std::fprintf(stderr, "zbench: reference: %s\n",
                 reference.status().ToString().c_str());
    return 2;
  }
  run.reference = *reference;

  JsonWriter& out = run.out;
  out.BeginObject();
  out.Field("workload", o.workload);
  out.Field("seed", o.seed);
  out.Field("events", static_cast<uint64_t>(workload->events.size()));
  out.Field("batch", static_cast<uint64_t>(workload->batch));
  out.Field("shards", workload->shards);
  out.Field("query", workload->query);
  out.Field("reference_matches", reference->count);
  const Status status = RunAll(&run, o);
  if (!status.ok()) {
    std::fprintf(stderr, "zbench: %s\n", status.ToString().c_str());
    return 2;
  }
  out.Field("attempted", run.attempted);
  out.Field("failed", run.failed);
  out.Field("correct", run.correct);
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
  return run.correct ? 0 : 1;
}

}  // namespace
}  // namespace zbench

int main(int argc, char** argv) { return zbench::Main(argc, argv); }
