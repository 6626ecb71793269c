// zstream_cli: command-line client for a running zstream_server.
//
//   zstream_cli [--host H] [--port N] exec "STATEMENT"...
//   zstream_cli [--host H] [--port N] replay stock|weblog
//               [--stream S] [--events N] [--symbols N] [--batch N]
//               [--connections N] [--partition-field I] [--flush]
//               [--expect QUERY=COUNT]
//   zstream_cli [--host H] [--port N] tail QUERY [--count N]
//               [--timeout-ms N]
//   zstream_cli [--host H] [--port N] stats
//               [--watch [--interval-ms N] [--ticks N]]
//   zstream_cli [--host H] [--port N] metrics [--json]
//   zstream_cli [--host H] [--port N] trace [--out FILE]
//   zstream_cli [--host H] [--port N] flush
//
// `replay` regenerates the deterministic stock/weblog workload (same
// seeds as the benchmarks) and streams it over the wire; with --flush
// it then prints `query NAME matches=N` for every served query, and
// --expect QUERY=COUNT turns the run into an assertion (exit 1 on
// mismatch) — the CI smoke test's hook.
//
// `stats` reads the server's metrics registry (the `metrics` scrape)
// and prints one totals line: events ingested and traced, matches,
// shard drops and queue depth. `stats --watch` polls it on an interval
// and prints one delta line per tick (ingest rate, match rate,
// aggregate shard queue depth) — a poor man's `top` for a running
// server. `metrics` fetches the whole registry snapshot over the wire
// (the same document the HTTP /metrics side port serves); `metrics
// --json` is its JSON rendering.
// `trace` fetches the server's span window as chrome://tracing /
// Perfetto JSON (the /trace side-port document); --out writes it to a
// file ready to load into a trace viewer.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/protocol.h"

#include "net/client.h"
#include "workload/net_replay.h"
#include "workload/stock_gen.h"
#include "workload/weblog_gen.h"

namespace {

using namespace zstream;

int Usage() {
  std::fprintf(stderr,
               "usage: zstream_cli [--host H] [--port N] "
               "exec|replay|tail|stats|metrics|trace|flush ...\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int RunExec(net::Client& client, const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "exec needs at least one statement\n");
    return 2;
  }
  for (const std::string& stmt : args) {
    auto reply = client.Execute(stmt);
    if (!reply.ok()) return Fail(reply.status());
    if (!reply->message.empty()) std::printf("%s\n", reply->message.c_str());
    for (const QueryInfo& row : reply->rows) {
      std::printf("%s ON %s: %s\n", row.name.c_str(), row.stream.c_str(),
                  row.text.c_str());
    }
  }
  return 0;
}

int RunReplay(net::Client& client, const std::string& host, uint16_t port,
              std::vector<std::string> args) {
  if (args.empty()) {
    std::fprintf(stderr, "replay needs a workload (stock|weblog)\n");
    return 2;
  }
  const std::string workload = args[0];
  std::string stream = workload;
  int64_t num_events = 100000;
  int symbols = 0;
  NetReplayOptions options;
  bool flush = false;
  std::string expect_query;
  uint64_t expect_count = 0;
  bool has_expect = false;

  for (size_t i = 1; i < args.size(); ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < args.size() ? args[++i].c_str() : nullptr;
    };
    if (args[i] == "--stream") {
      const char* v = next();
      if (v == nullptr) return Usage();
      stream = v;
    } else if (args[i] == "--events") {
      const char* v = next();
      if (v == nullptr) return Usage();
      num_events = std::atoll(v);
    } else if (args[i] == "--symbols") {
      const char* v = next();
      if (v == nullptr) return Usage();
      symbols = std::atoi(v);
    } else if (args[i] == "--batch") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.batch_size = static_cast<size_t>(std::atoll(v));
    } else if (args[i] == "--connections") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.num_connections = std::atoi(v);
    } else if (args[i] == "--partition-field") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.partition_field = std::atoi(v);
    } else if (args[i] == "--flush") {
      flush = true;
    } else if (args[i] == "--expect") {
      const char* v = next();
      if (v == nullptr) return Usage();
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr) return Usage();
      expect_query.assign(v, eq);
      expect_count = std::strtoull(eq + 1, nullptr, 10);
      has_expect = true;
      flush = true;
    } else {
      return Usage();
    }
  }

  std::vector<EventPtr> events;
  if (workload == "stock") {
    StockGenOptions gen;
    gen.num_events = num_events;
    if (symbols > 0) {
      gen.names.clear();
      gen.weights.clear();
      for (int s = 0; s < symbols; ++s) {
        gen.names.push_back("SYM" + std::to_string(s));
        gen.weights.push_back(1.0);
      }
    }
    events = GenerateStockTrades(gen);
  } else if (workload == "weblog") {
    WebLogGenOptions gen;
    gen.total_records = num_events;
    events = GenerateWebLog(gen);
  } else {
    std::fprintf(stderr, "unknown workload '%s' (stock|weblog)\n",
                 workload.c_str());
    return 2;
  }

  auto result = ReplayOverWire(host, port, stream, events, options);
  if (!result.ok()) return Fail(result.status());
  std::printf(
      "replayed %zu events in %.3f s (%.0f ev/s, accepted=%llu, "
      "dropped=%llu%s)\n",
      events.size(), result->elapsed_s, result->events_per_sec,
      static_cast<unsigned long long>(result->accepted),
      static_cast<unsigned long long>(result->dropped),
      result->throttled ? ", throttled" : "");

  if (!flush) return 0;
  auto ack = client.Flush();
  if (!ack.ok()) return Fail(ack.status());
  bool expect_seen = false;
  bool expect_ok = true;
  for (const auto& [name, matches] : ack->queries) {
    std::printf("query %s matches=%llu\n", name.c_str(),
                static_cast<unsigned long long>(matches));
    if (has_expect && name == expect_query) {
      expect_seen = true;
      expect_ok = matches == expect_count;
    }
  }
  if (has_expect && (!expect_seen || !expect_ok)) {
    std::fprintf(stderr,
                 "expectation failed: wanted %s=%llu, %s\n",
                 expect_query.c_str(),
                 static_cast<unsigned long long>(expect_count),
                 expect_seen ? "count differs" : "query not found");
    return 1;
  }
  return 0;
}

int RunTail(net::Client& client, std::vector<std::string> args) {
  if (args.empty()) {
    std::fprintf(stderr, "tail needs a query name\n");
    return 2;
  }
  const std::string query = args[0];
  size_t count = 10;
  int timeout_ms = 10000;
  for (size_t i = 1; i < args.size(); ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < args.size() ? args[++i].c_str() : nullptr;
    };
    if (args[i] == "--count") {
      const char* v = next();
      if (v == nullptr) return Usage();
      count = static_cast<size_t>(std::atoll(v));
    } else if (args[i] == "--timeout-ms") {
      const char* v = next();
      if (v == nullptr) return Usage();
      timeout_ms = std::atoi(v);
    } else {
      return Usage();
    }
  }
  auto sub = client.Subscribe(query);
  if (!sub.ok()) return Fail(sub.status());
  std::printf("subscribed to %s on stream %s\n", sub->query.c_str(),
              sub->stream.c_str());
  std::fflush(stdout);
  auto got = client.WaitForMatches(count, timeout_ms);
  if (!got.ok()) return Fail(got.status());
  for (const net::NetMatch& m : client.TakeMatches()) {
    std::printf("match query=%s %s\n", m.query.c_str(),
                m.match.ToString().c_str());
  }
  return 0;
}

// Sums every series of `family` in a Prometheus text document (the
// `metrics` scrape): both `family 5` and `family{shard="0"} 3` lines
// count; comments and longer names sharing the prefix do not. The
// value is the last space-separated token, so label values may hold
// spaces.
uint64_t SumFamily(const std::string& doc, const std::string& family) {
  uint64_t total = 0;
  size_t pos = 0;
  while (pos < doc.size()) {
    size_t end = doc.find('\n', pos);
    if (end == std::string::npos) end = doc.size();
    const std::string_view line(doc.data() + pos, end - pos);
    pos = end + 1;
    if (!line.starts_with(family) || line.size() <= family.size() ||
        (line[family.size()] != ' ' && line[family.size()] != '{')) {
      continue;
    }
    const size_t space = line.rfind(' ');
    total += std::strtoull(std::string(line.substr(space + 1)).c_str(),
                           nullptr, 10);
  }
  return total;
}

// One reading of the registry counters `stats` reports.
struct StatsSample {
  uint64_t ingested = 0;
  uint64_t traced = 0;
  uint64_t matches = 0;
  uint64_t dropped = 0;      // summed over shards
  uint64_t queue_depth = 0;  // summed over shards
};

Result<StatsSample> ReadStats(net::Client& client) {
  ZS_ASSIGN_OR_RETURN(std::string doc, client.Metrics());
  StatsSample s;
  s.ingested = SumFamily(doc, "zstream_events_ingested_total");
  s.traced = SumFamily(doc, "zstream_events_traced_total");
  s.matches = SumFamily(doc, "zstream_matches_total");
  s.dropped = SumFamily(doc, "zstream_shard_events_dropped_total");
  s.queue_depth = SumFamily(doc, "zstream_shard_queue_depth");
  return s;
}

int RunStatsWatch(net::Client& client, int interval_ms, int64_t ticks) {
  auto prev = ReadStats(client);
  if (!prev.ok()) return Fail(prev.status());
  std::printf("%10s %12s %10s %12s %10s %10s\n", "t", "ev/s", "traced/s",
              "matches/s", "dropped", "queue");
  std::fflush(stdout);
  const auto start = std::chrono::steady_clock::now();
  auto last = start;
  for (int64_t tick = 0; ticks < 0 || tick < ticks; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    auto cur = ReadStats(client);
    if (!cur.ok()) return Fail(cur.status());
    const auto now = std::chrono::steady_clock::now();
    const double dt =
        std::chrono::duration<double>(now - last).count();
    const double t =
        std::chrono::duration<double>(now - start).count();
    last = now;
    const double ev_s =
        dt > 0 ? (cur->ingested - prev->ingested) / dt : 0.0;
    const double traced_s =
        dt > 0 ? (cur->traced - prev->traced) / dt : 0.0;
    const double match_s =
        dt > 0 ? (cur->matches - prev->matches) / dt : 0.0;
    std::printf("%9.1fs %12.0f %10.0f %12.1f %10llu %10llu\n", t, ev_s,
                traced_s, match_s,
                static_cast<unsigned long long>(cur->dropped),
                static_cast<unsigned long long>(cur->queue_depth));
    std::fflush(stdout);
    prev = cur;
  }
  return 0;
}

int RunStats(net::Client& client, const std::vector<std::string>& args) {
  bool watch = false;
  int interval_ms = 1000;
  int64_t ticks = -1;  // watch forever by default
  for (size_t i = 0; i < args.size(); ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < args.size() ? args[++i].c_str() : nullptr;
    };
    if (args[i] == "--watch") {
      watch = true;
    } else if (args[i] == "--interval-ms") {
      const char* v = next();
      if (v == nullptr) return Usage();
      interval_ms = std::atoi(v);
      if (interval_ms <= 0) interval_ms = 1000;
    } else if (args[i] == "--ticks") {
      const char* v = next();
      if (v == nullptr) return Usage();
      ticks = std::atoll(v);
    } else {
      return Usage();
    }
  }
  if (watch) return RunStatsWatch(client, interval_ms, ticks);
  auto totals = ReadStats(client);
  if (!totals.ok()) return Fail(totals.status());
  std::printf(
      "events_ingested=%llu events_traced=%llu matches=%llu dropped=%llu "
      "queue_depth=%llu\n",
      static_cast<unsigned long long>(totals->ingested),
      static_cast<unsigned long long>(totals->traced),
      static_cast<unsigned long long>(totals->matches),
      static_cast<unsigned long long>(totals->dropped),
      static_cast<unsigned long long>(totals->queue_depth));
  return 0;
}

int RunMetrics(net::Client& client, const std::vector<std::string>& args) {
  uint8_t format = net::kMetricsFormatPrometheus;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      format = net::kMetricsFormatJson;
    } else {
      return Usage();
    }
  }
  auto doc = client.Metrics(format);
  if (!doc.ok()) return Fail(doc.status());
  std::printf("%s", doc->c_str());
  if (!doc->empty() && doc->back() != '\n') std::printf("\n");
  return 0;
}

int RunTrace(net::Client& client, const std::vector<std::string>& args) {
  std::string out_path;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else {
      return Usage();
    }
  }
  auto doc = client.Trace();
  if (!doc.ok()) return Fail(doc.status());
  if (out_path.empty()) {
    std::printf("%s\n", doc->c_str());
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  const size_t written = std::fwrite(doc->data(), 1, doc->size(), f);
  std::fclose(f);
  if (written != doc->size()) {
    std::fprintf(stderr, "short write to %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %zu bytes to %s (load in chrome://tracing or "
              "https://ui.perfetto.dev)\n",
              doc->size(), out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7979;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else {
      break;
    }
  }
  if (i >= argc) return Usage();
  const std::string command = argv[i++];
  std::vector<std::string> args(argv + i, argv + argc);

  auto client = net::Client::Connect(host, port);
  if (!client.ok()) return Fail(client.status());

  if (command == "exec") return RunExec(**client, args);
  if (command == "replay") return RunReplay(**client, host, port, args);
  if (command == "tail") return RunTail(**client, args);
  if (command == "stats") return RunStats(**client, args);
  if (command == "metrics") return RunMetrics(**client, args);
  if (command == "trace") return RunTrace(**client, args);
  if (command == "flush") {
    auto ack = (*client)->Flush();
    if (!ack.ok()) return Fail(ack.status());
    for (const auto& [name, matches] : ack->queries) {
      std::printf("query %s matches=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(matches));
    }
    return 0;
  }
  return Usage();
}
