// Reordering stage for out-of-order input (Section 4.1):
//
//   "ZStream assumes that primitive events from data sources
//    continuously stream into leaf buffers in time order. If disorder
//    is a problem, a reordering operator may be placed just after the
//    leaf buffer."
//
// This stage buffers events inside a bounded disorder window (`slack`)
// and releases them in timestamp order: when an event with timestamp t
// arrives, every buffered event with timestamp <= t - slack can no
// longer be displaced and is emitted. Events arriving more than `slack`
// late are dropped and counted. The runtime places one stage per stream
// on each shard, between the shard queue and the engines.
#ifndef ZSTREAM_EXEC_REORDER_H_
#define ZSTREAM_EXEC_REORDER_H_

#include <algorithm>
#include <map>
#include <vector>

#include "common/timestamp.h"
#include "event/event.h"

namespace zstream {

/// \brief Bounded out-of-orderness buffer that releases events in
/// timestamp order into a caller-owned span.
class ReorderStage {
 public:
  explicit ReorderStage(Duration slack) : slack_(slack) {}

  /// Accepts an event with bounded disorder; appends to `*out` every
  /// event whose position can no longer change, in timestamp order.
  void Push(EventPtr event, std::vector<EventPtr>* out) {
    const Timestamp ts = event->timestamp();
    if (ts < emitted_through_) {
      ++late_dropped_;
      return;
    }
    pending_.emplace(ts, std::move(event));
    max_seen_ = std::max(max_seen_, ts);
    // Saturates: a timestamp within `slack` of the int64 floor releases
    // nothing instead of overflowing.
    EmitThrough(max_seen_ >= kMinTimestamp + slack_ ? max_seen_ - slack_
                                                    : kMinTimestamp,
                out);
  }

  /// Appends everything still pending (stream end / flush barrier).
  void Flush(std::vector<EventPtr>* out) { EmitThrough(kMaxTimestamp, out); }

  /// Events dropped for arriving later than the slack allows.
  uint64_t late_dropped() const { return late_dropped_; }
  size_t pending() const { return pending_.size(); }

 private:
  void EmitThrough(Timestamp bound, std::vector<EventPtr>* out) {
    while (!pending_.empty() && pending_.begin()->first <= bound) {
      emitted_through_ = pending_.begin()->first;
      out->push_back(std::move(pending_.begin()->second));
      pending_.erase(pending_.begin());
    }
  }

  Duration slack_;
  std::multimap<Timestamp, EventPtr> pending_;
  Timestamp max_seen_ = kMinTimestamp;
  Timestamp emitted_through_ = kMinTimestamp;
  uint64_t late_dropped_ = 0;
};

}  // namespace zstream

#endif  // ZSTREAM_EXEC_REORDER_H_
