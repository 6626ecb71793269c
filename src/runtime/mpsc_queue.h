// Bounded multi-producer single-consumer ring queue, bounded by drain
// time.
//
// One instance backs each StreamRuntime shard: any number of producer
// threads (event routers, the control plane) push; exactly one shard
// worker pops. A slot carries one item of `units` units (the runtime's
// unit is one event: a slot is one ingest call's run of events for the
// shard, or one control message counted as one unit).
//
// Two bounds, both in units:
//   - `capacity` is the hard, memory bound. TryPush() stops only there
//     (placing the prefix that fits); the runtime's drop policy drops
//     what it could not place.
//   - the drain budget bounds what a blocking Push() queues: it waits
//     while the queued units would take the consumer at least
//     `drain_budget_ns` to drain at the cost the consumer last reported
//     (SetDrainCost). Until the first report it waits for the queue to
//     empty, so no guessed cost is needed. An empty queue always admits
//     one whole item, so an item costlier than the budget still passes.
// A slot count bound would let the queue hold 4096 events whatever they
// cost: at ~2 us an event that is ~8 ms of waiting in front of every
// match, nearly all of the runtime's detection latency. Bounded by time,
// the wait in front of the engines stays at about the budget.
//
// Items are swapped, not copied: Push() hands the producer back what the
// slot held, and Pop() leaves the consumer's previous item in the slot.
// An item that owns buffers (the runtime's event vectors) thus travels
// producer -> ring -> consumer -> ring -> producer and keeps its
// capacity, so steady state allocates nothing. Emptied items are kept at
// the front of the free run, where the next pushes take them, so the
// ring holds no more of them than were ever in flight at once.
//
// A mutex + two condition variables keep this simple and provably
// TSan-clean: a slot is a whole run, so the few lock rounds per slot
// (push, pop, cost report) are not what bounds throughput. The lock
// state is verified at compile time by Clang thread-safety analysis
// (see common/sync.h): every mutable field is guarded by mu_.
#ifndef ZSTREAM_RUNTIME_MPSC_QUEUE_H_
#define ZSTREAM_RUNTIME_MPSC_QUEUE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/sync.h"

namespace zstream::runtime {

template <typename T>
class MpscRingQueue {
 public:
  MpscRingQueue(size_t capacity, uint64_t drain_budget_ns)
      : capacity_(capacity < 1 ? 1 : capacity),
        drain_budget_ns_(drain_budget_ns),
        ring_(capacity_) {}
  ZS_DISALLOW_COPY_AND_ASSIGN(MpscRingQueue);

  /// Blocking push of one item carrying `units` (1..capacity) units:
  /// waits until the queue is empty, or the units fit under the capacity
  /// and the queued units drain within the budget. Swaps *item into the
  /// slot; *item comes back holding the slot's previous (emptied) item.
  /// Returns false, leaving *item as it was, once closed.
  ZS_HOT bool Push(T* item, size_t units = 1) {
    ZS_DCHECK(units >= 1 && units <= capacity_);
    {
      zs::MutexLock lock(mu_);
      while (!closed_ && !Admits(units)) not_full_.Wait(mu_);
      if (closed_) return false;
      Place(item, units);
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Non-blocking push that ignores the drain budget: places as much of
  /// *item as fits under the capacity and returns the units placed (0,
  /// leaving *item as it was, when full or closed). When only k < units
  /// fit, `keep_first(item, k)` first cuts *item to its first k units:
  /// the newest are the ones left out.
  template <typename KeepFirst>
  ZS_HOT size_t TryPush(T* item, size_t units, KeepFirst keep_first) {
    ZS_DCHECK(units >= 1);
    {
      zs::MutexLock lock(mu_);
      const size_t room = closed_ ? 0 : capacity_ - units_;
      if (room == 0) return 0;
      if (units > room) {
        keep_first(item, room);
        units = room;
      }
      Place(item, units);
    }
    not_empty_.NotifyOne();
    return units;
  }

  /// Blocks until an item is queued, then swaps it into *out and keeps
  /// *out's previous item for a later push to reuse. Returns false only
  /// once the queue is closed AND drained.
  ZS_HOT bool Pop(T* out) {
    {
      zs::MutexLock lock(mu_);
      while (count_ == 0 && !closed_) not_empty_.Wait(mu_);
      if (count_ == 0) return false;
      const size_t popped = head_;
      Slot& slot = ring_[popped];
      std::swap(*out, slot.item);
      units_ -= slot.units;
      head_ = (head_ + 1) % capacity_;
      --count_;
      // Park the emptied item behind the others at the front of the free
      // run, which starts at the tail and now ends at `popped`.
      const size_t front = (head_ + count_ + recycled_) % capacity_;
      if (front != popped) std::swap(slot.item, ring_[front].item);
      ++recycled_;
    }
    not_full_.NotifyAll();
    return true;
  }

  /// Consumer side: the measured cost of draining one unit, in
  /// nanoseconds (>= 1). Blocking pushes admit while queued units × cost
  /// stays under the drain budget.
  void SetDrainCost(uint64_t ns_per_unit) {
    zs::MutexLock lock(mu_);
    cost_ns_ = ns_per_unit;
  }
  /// The last cost reported; 0 until the consumer measured one.
  uint64_t drain_cost() const {
    zs::MutexLock lock(mu_);
    return cost_ns_;
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain what remains.
  void Close() {
    {
      zs::MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  /// Queued units (not slots).
  size_t size() const {
    zs::MutexLock lock(mu_);
    return units_;
  }
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    T item{};
    size_t units = 0;
  };

  bool Admits(size_t units) const ZS_REQUIRES(mu_) {
    if (count_ == 0) return true;
    if (units_ + units > capacity_) return false;
    // queued × cost < budget, i.e. queued < ⌈budget / cost⌉; with no
    // cost measured yet, wait for empty.
    return cost_ns_ > 0 &&
           units_ < (drain_budget_ns_ + cost_ns_ - 1) / cost_ns_;
  }

  ZS_HOT void Place(T* item, size_t units) ZS_REQUIRES(mu_) {
    Slot& slot = ring_[(head_ + count_) % capacity_];
    std::swap(*item, slot.item);
    slot.units = units;
    units_ += units;
    ++count_;
    if (recycled_ > 0) --recycled_;
  }

  const size_t capacity_;
  const uint64_t drain_budget_ns_;
  mutable zs::Mutex mu_;
  zs::CondVar not_empty_;
  zs::CondVar not_full_;
  /// Every slot carries >= 1 unit, so `capacity_` slots always suffice.
  std::vector<Slot> ring_ ZS_GUARDED_BY(mu_);
  size_t head_ ZS_GUARDED_BY(mu_) = 0;
  size_t count_ ZS_GUARDED_BY(mu_) = 0;  // queued slots
  size_t units_ ZS_GUARDED_BY(mu_) = 0;  // queued units
  uint64_t cost_ns_ ZS_GUARDED_BY(mu_) = 0;  // ns per unit; 0: unmeasured
  /// Emptied items at the front of the free run (see Pop).
  size_t recycled_ ZS_GUARDED_BY(mu_) = 0;
  bool closed_ ZS_GUARDED_BY(mu_) = false;
};

}  // namespace zstream::runtime

#endif  // ZSTREAM_RUNTIME_MPSC_QUEUE_H_
