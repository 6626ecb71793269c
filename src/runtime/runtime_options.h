// Construction-time options for runtime::StreamRuntime, split from
// stream_runtime.h so the api layer can expose a defaulted
// `ZStream::StartRuntime(const RuntimeOptions& = {})` without pulling
// the runtime implementation headers into the public facade. This
// header is self-contained on purpose; keep it free of runtime
// internals.
#ifndef ZSTREAM_RUNTIME_RUNTIME_OPTIONS_H_
#define ZSTREAM_RUNTIME_RUNTIME_OPTIONS_H_

#include <cstddef>

#include "common/timestamp.h"

namespace zstream::runtime {

enum class BackpressurePolicy : char {
  /// Ingest waits while a target shard's queue holds about 1 ms of work
  /// (its queued events × the worker's measured cost per event) or is
  /// full; nothing is lost.
  kBlock,
  /// Ingest never waits: the events that do not fit under a shard's
  /// queue_capacity are dropped for that shard and counted.
  kDropNewest,
};

struct RuntimeOptions {
  /// Worker shards; <= 0 means std::thread::hardware_concurrency().
  int num_shards = 4;
  /// Per-shard queue bound in events (a control message counts as one):
  /// the memory bound, and the only bound at which kDropNewest drops.
  /// Under kBlock the drain-time bound above usually binds first. One
  /// ingest call's events for a shard travel as one queue slot; a call
  /// bigger than this is split across slots in order.
  size_t queue_capacity = 4096;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Bounded out-of-orderness absorbed at the shard ingest path
  /// (Section 4.1's reordering operator, placed between the shard queue
  /// and the engines; the system's only reorder stage): each shard
  /// buffers up to `reorder_slack` time units per stream and releases
  /// events in timestamp order. Events arriving later than the slack
  /// allows are dropped and counted (zstream_shard_reorder_late_total;
  /// still-buffered events show up as zstream_shard_reorder_pending).
  /// 0 disables the stage: events reach the engines in queue order.
  Duration reorder_slack = 0;
  /// Default slow-event log threshold (wall nanoseconds) applied to
  /// every engine registered without its own EngineOptions::slow_event_ns.
  /// Checked per ingest step (one chunk of a dispatched span up to a
  /// batch boundary plus the assembly round it triggers): a step over
  /// it emits one rate-limited ZS_LOG(Warn) naming the query and its
  /// hottest plan node. 0 disables.
  int64_t slow_event_ns = 0;
};

}  // namespace zstream::runtime

#endif  // ZSTREAM_RUNTIME_RUNTIME_OPTIONS_H_
