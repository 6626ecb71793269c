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
  kBlock,       // Ingest blocks while a target shard's queue is full
  kDropNewest,  // Ingest drops the event for that shard and counts it
};

struct RuntimeOptions {
  /// Worker shards; <= 0 means std::thread::hardware_concurrency().
  int num_shards = 4;
  /// Per-shard ring capacity (events + control messages).
  size_t queue_capacity = 4096;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Max events a worker pops (and processes) per queue lock.
  int shard_batch_size = 256;
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
