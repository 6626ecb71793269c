// zstream_server: the standalone ZStream network server.
//
//   zstream_server [--port N] [--bind ADDR] [--shards N]
//                  [--queue-capacity N] [--drop-policy block|drop]
//                  [--reorder-slack N] [--metrics-port N]
//                  [--slow-event-ms N] [--trace-sample N]
//                  [--trace-ring-mb N] [--trace-dump-dir DIR]
//                  [--ddl "STATEMENT"]...
//
// Starts an empty session (optionally seeded with --ddl statements,
// applied in order), binds the sharded runtime, and serves the framed
// protocol until SIGINT/SIGTERM. --port 0 picks an ephemeral port; the
// chosen port is printed on the "listening" line, which scripts parse:
//
//   zstream_server listening on 127.0.0.1:41873 (shards=2, ...)
//
// --queue-capacity N is each shard queue's hard bound in queued events
// (default 4096): its memory bound, and where --drop-policy drop drops.
// Under the default block policy, ingest waits earlier, once a shard
// queue holds about 1 ms of work at the worker's measured cost per event.
//
// --metrics-port N opens the HTTP observability side port (GET
// /metrics, /metrics.json, /healthz); 0 picks an ephemeral port. The
// bound port is printed on its own line, which scripts parse:
//
//   zstream_server metrics on http://127.0.0.1:45127/metrics
//
// --slow-event-ms N arms the slow-event log: any ingest step (a chunk
// of a shard run plus the assembly round it triggers) whose evaluation
// in a plan exceeds the threshold is reported (rate-limited) through
// ZS_LOG(Warn), tagged with the run's trace id when sampled, and
// triggers a flight-recorder ring snapshot when --trace-dump-dir is
// set.
//
// --trace-sample N arms end-to-end tracing: every Nth ingest batch is
// traced through decode, queueing, evaluation and fanout (1 = every
// batch). The window is served at GET /trace on the metrics port and
// over the kTraceRequest frame (zstream_cli trace). --trace-ring-mb
// bounds the in-memory span window; --trace-dump-dir DIR arms the
// flight recorder (ring snapshots on slow events and fatal signals).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "api/zstream.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--bind ADDR] [--shards N]\n"
      "          [--queue-capacity N] [--drop-policy block|drop]\n"
      "          [--reorder-slack N] [--metrics-port N]\n"
      "          [--slow-event-ms N] [--trace-sample N]\n"
      "          [--trace-ring-mb N] [--trace-dump-dir DIR]\n"
      "          [--ddl \"STATEMENT\"]...\n"
      "  --queue-capacity N  per-shard hard bound in queued events (4096);\n"
      "                      blocking ingest waits at ~1 ms of queued work\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zstream;

  net::ServerOptions server_options;
  server_options.port = 7979;
  runtime::RuntimeOptions runtime_options;
  runtime_options.num_shards = 2;
  std::vector<std::string> bootstrap_ddl;
  uint32_t trace_sample = 0;
  size_t trace_ring_mb = 4;
  std::string trace_dump_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--bind") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.bind_address = v;
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      runtime_options.num_shards = std::atoi(v);
    } else if (arg == "--queue-capacity") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      runtime_options.queue_capacity =
          static_cast<size_t>(std::atoll(v));
    } else if (arg == "--drop-policy") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (std::strcmp(v, "block") == 0) {
        runtime_options.backpressure = runtime::BackpressurePolicy::kBlock;
      } else if (std::strcmp(v, "drop") == 0) {
        runtime_options.backpressure =
            runtime::BackpressurePolicy::kDropNewest;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--reorder-slack") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      runtime_options.reorder_slack = std::atoll(v);
    } else if (arg == "--metrics-port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.metrics_port = std::atoi(v);
    } else if (arg == "--slow-event-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      runtime_options.slow_event_ns = std::atoll(v) * 1000000;
    } else if (arg == "--trace-sample") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      trace_sample = static_cast<uint32_t>(std::atoll(v));
    } else if (arg == "--trace-ring-mb") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      trace_ring_mb = static_cast<size_t>(std::atoll(v));
      if (trace_ring_mb == 0) trace_ring_mb = 1;
    } else if (arg == "--trace-dump-dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      trace_dump_dir = v;
    } else if (arg == "--ddl") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      bootstrap_ddl.push_back(v);
    } else {
      return Usage(argv[0]);
    }
  }

  if (trace_sample > 0) {
    obs::TraceOptions topts;
    topts.sample_every = trace_sample;
    // 1 control/net lane + one per shard worker; split the requested
    // window evenly across lanes (64 bytes per span slot).
    topts.num_lanes = static_cast<uint32_t>(
        1 + (runtime_options.num_shards > 0 ? runtime_options.num_shards
                                            : 1));
    topts.ring_slots =
        (trace_ring_mb << 20) / sizeof(obs::Span) / topts.num_lanes;
    obs::Tracer::Global().Configure(topts);
  }
  if (!trace_dump_dir.empty()) {
    obs::FlightRecorder::Global().Configure(trace_dump_dir);
    obs::FlightRecorder::InstallSignalHandler();
  }

  ZStream session;
  for (const std::string& stmt : bootstrap_ddl) {
    auto result = session.Execute(stmt);
    if (!result.ok()) {
      std::fprintf(stderr, "--ddl failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", result->message.c_str());
  }

  auto server = net::Server::Create(&session, runtime_options,
                                    server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  if (Status st = (*server)->Start(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "zstream_server listening on %s:%u (shards=%d, queue=%zu, "
      "backpressure=%s, reorder_slack=%lld)\n",
      (*server)->bind_address().c_str(), (*server)->port(),
      (*server)->runtime().num_shards(), runtime_options.queue_capacity,
      runtime_options.backpressure == runtime::BackpressurePolicy::kBlock
          ? "block"
          : "drop",
      static_cast<long long>(runtime_options.reorder_slack));
  if ((*server)->metrics_port() != 0) {
    std::printf("zstream_server metrics on http://%s:%u/metrics\n",
                (*server)->bind_address().c_str(),
                (*server)->metrics_port());
  }
  if (trace_sample > 0) {
    std::printf(
        "zstream_server tracing 1-in-%u batches (ring=%zuMB, dump=%s)\n",
        trace_sample, trace_ring_mb,
        trace_dump_dir.empty() ? "off" : trace_dump_dir.c_str());
  }
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down\n");
  (*server)->Stop();
  return 0;
}
