// Post-mortem flight recorder (ISSUE 9).
//
// The tracer's per-lane rings always hold the most recent window of
// spans (old slots are overwritten). The flight recorder turns that
// window into a durable artifact: a Chrome-trace JSON file written to a
// configured dump directory. Dumps fire three ways:
//
//   - on demand (tests, future admin surface) via Dump();
//   - on slow-event detection via TriggerDump(), rate-limited so a
//     storm of slow events produces one snapshot per interval, wired
//     into the engine's slow_event_ns path (exec/engine.cc);
//   - on fatal signal in zstream_server via InstallSignalHandler().
//     Rendering JSON from a signal handler is not async-signal-safe;
//     this is a deliberate best-effort last gasp on a path that is
//     about to crash anyway — the handler re-raises the default
//     disposition afterwards so the crash still reports normally.
#ifndef ZSTREAM_OBS_FLIGHT_RECORDER_H_
#define ZSTREAM_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/macros.h"
#include "common/result.h"
#include "common/sync.h"

namespace zstream::obs {

class FlightRecorder {
 public:
  FlightRecorder() = default;
  ZS_DISALLOW_COPY_AND_ASSIGN(FlightRecorder);

  static FlightRecorder& Global();

  /// Arms the recorder: dumps land in `dump_dir` (created if missing),
  /// and TriggerDump() fires at most once per `min_interval_ns`.
  /// An empty dump_dir disarms it.
  void Configure(std::string dump_dir,
                 uint64_t min_interval_ns = 1'000'000'000);

  bool armed() const;

  /// Renders the tracer's current rings to
  /// `<dump_dir>/trace-<reason>-<seq>.json` and returns the path.
  /// Fails when unarmed or the file cannot be written.
  Result<std::string> Dump(const std::string& reason);

  /// Rate-limited fire-and-forget Dump for hot-adjacent callers (the
  /// slow-event path). Cheap when unarmed or inside the rate window:
  /// one relaxed load + compare. `reason` must be a literal-ish token
  /// safe for a filename ([a-z0-9-]).
  void TriggerDump(const char* reason);

  /// Installs SIGSEGV/SIGABRT/SIGBUS handlers that attempt one dump
  /// (reason "signal") and then re-raise with the default disposition.
  /// Call once from zstream_server main after Configure.
  static void InstallSignalHandler();

  /// Completed dumps since Configure (test observability).
  uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }

 private:
  mutable zs::Mutex mu_;
  std::string dump_dir_ ZS_GUARDED_BY(mu_);
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> min_interval_ns_{1'000'000'000};
  std::atomic<uint64_t> last_dump_ns_{0};
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> dumps_{0};
};

}  // namespace zstream::obs

#endif  // ZSTREAM_OBS_FLIGHT_RECORDER_H_
