// Buffer invariants: end-timestamp order, watermarks, EAT purging,
// hash-index consistency, memory accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/buffer.h"
#include "event/event.h"

namespace zstream {
namespace {

EventPtr Ev(Timestamp ts) { return EventBuilder(StockSchema()).At(ts).Build(); }

EventPtr Named(const std::string& name, Timestamp ts) {
  return EventBuilder(StockSchema()).Set("name", Value(name)).At(ts).Build();
}

// Appends a one-class record spanning [start, end] through the generic
// slot path, binding `event` (a fresh event at `end` when null) and
// carrying `group` when set.
RecordId Add(Buffer& b, Timestamp start, Timestamp end,
             const EventGroupPtr& group = nullptr, EventPtr event = nullptr) {
  const EventPtr slot = event != nullptr ? std::move(event) : Ev(end);
  return b.AppendSlots(start, end, &slot, /*fallback=*/nullptr,
                       /*num_slots=*/1, group);
}

TEST(Buffer, AppendAssignsSequentialIds) {
  MemoryTracker t;
  Buffer b(&t, /*count_event_bytes=*/false, /*arity=*/1);
  EXPECT_EQ(Add(b, 1, 1), 0u);
  EXPECT_EQ(Add(b, 2, 2), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.Get(1).end_ts, 2);
}

TEST(Buffer, WatermarkTracksConsumption) {
  MemoryTracker t;
  Buffer b(&t, /*count_event_bytes=*/false, /*arity=*/1);
  Add(b, 1, 1);
  Add(b, 2, 2);
  EXPECT_TRUE(b.HasUnconsumed());
  EXPECT_EQ(*b.FirstUnconsumedEndTs(), 1);
  b.SetWatermark(2);
  EXPECT_FALSE(b.HasUnconsumed());
  b.RewindWatermark();
  EXPECT_EQ(b.watermark(), 0u);
}

TEST(Buffer, PurgeBeforeRemovesExpiredPrefix) {
  MemoryTracker t;
  Buffer b(&t, /*count_event_bytes=*/false, /*arity=*/1);
  for (int i = 0; i < 10; ++i) Add(b, i, i);
  b.PurgeBefore(5);
  EXPECT_EQ(b.base_id(), 5u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.Get(5).end_ts, 5);
  // Watermark below base clamps.
  EXPECT_EQ(b.watermark(), 5u);
}

TEST(Buffer, PurgeStopsAtFirstLiveRecord) {
  MemoryTracker t;
  Buffer b(&t, /*count_event_bytes=*/false, /*arity=*/1);
  // A record with early end but late start blocks the purge behind it.
  Add(b, 10, 10);
  Add(b, 2, 11);  // start 2 (expired) but behind a live record
  b.PurgeBefore(5);
  EXPECT_EQ(b.size(), 2u);  // front record is live, so nothing popped
}

TEST(Buffer, ClearReleasesEverything) {
  MemoryTracker t;
  Buffer b(&t, /*count_event_bytes=*/false, /*arity=*/1);
  for (int i = 0; i < 4; ++i) Add(b, i, i);
  const auto bytes = t.current_bytes();
  EXPECT_GT(bytes, 0);
  b.Clear();
  EXPECT_EQ(t.current_bytes(), 0);
  EXPECT_EQ(b.base_id(), 4u);
  // Ids continue monotonically after a clear.
  EXPECT_EQ(Add(b, 9, 9), 4u);
}

TEST(Buffer, MemoryAccountingLeafCountsEvents) {
  MemoryTracker t_leaf, t_internal;
  Buffer leaf(&t_leaf, /*count_event_bytes=*/true, /*arity=*/1);
  Buffer internal(&t_internal, /*count_event_bytes=*/false, /*arity=*/1);
  Add(leaf, 1, 1);
  Add(internal, 1, 1);
  EXPECT_GT(t_leaf.current_bytes(), t_internal.current_bytes());
}

TEST(Buffer, SharedKleeneGroupChargedOncePerBuffer) {
  // Regression: many records referencing one Kleene group used to charge
  // the group payload once per record, inflating peak_mb by the group's
  // fan-out. The payload must be charged once per distinct resident
  // group, and released when the last referencing record goes away.
  auto group = std::make_shared<EventGroup>();
  for (int i = 0; i < 8; ++i) {
    group->push_back(EventBuilder(StockSchema()).At(i).Build());
  }
  const size_t group_bytes = Buffer::GroupByteSize(*group);
  ASSERT_GT(group_bytes, 0u);

  MemoryTracker t;
  Buffer b(&t, /*count_event_bytes=*/false, /*arity=*/1);
  Add(b, 1, 1);
  const int64_t before = t.current_bytes();
  Add(b, 2, 2, group);
  const int64_t first = t.current_bytes() - before;
  Add(b, 3, 3, group);
  Add(b, 4, 4, group);
  const int64_t all = t.current_bytes() - before;
  // The first referencing record pays the payload...
  EXPECT_GE(first, static_cast<int64_t>(group_bytes));
  // ...and two more references add strictly less than two more payloads.
  EXPECT_LT(all - first, 2 * static_cast<int64_t>(group_bytes));

  // A distinct group is a new payload.
  auto other = std::make_shared<EventGroup>(*group);
  const int64_t before_other = t.current_bytes();
  Add(b, 5, 5, other);
  EXPECT_GE(t.current_bytes() - before_other,
            static_cast<int64_t>(Buffer::GroupByteSize(*other)));

  b.Clear();
  EXPECT_EQ(t.current_bytes(), 0);
}

TEST(Buffer, SharedGroupReleasedOnPartialPurge) {
  // Purging only some of the records sharing a group must keep the
  // payload charged; purging the last reference releases it.
  auto group = std::make_shared<EventGroup>();
  group->push_back(EventBuilder(StockSchema()).At(0).Build());
  const auto group_bytes =
      static_cast<int64_t>(Buffer::GroupByteSize(*group));

  MemoryTracker t;
  Buffer b(&t, /*count_event_bytes=*/false, /*arity=*/1);
  Add(b, 1, 1, group);
  Add(b, 10, 10, group);
  const int64_t with_both = t.current_bytes();
  // Dropping one of the two referencing records must NOT release the
  // payload (the survivor still references it); with internal buffers
  // not charging event bytes, nothing is released at all.
  b.PurgeBefore(5);
  const int64_t with_one = t.current_bytes();
  EXPECT_EQ(with_one, with_both);
  EXPECT_GE(with_one, group_bytes);
  b.PurgeBefore(20);  // last reference gone -> payload released
  EXPECT_GE(with_one - t.current_bytes(), group_bytes);
  b.Clear();
  EXPECT_EQ(t.current_bytes(), 0);
}

TEST(Buffer, HashIndexProbeFindsMatchingRecords) {
  MemoryTracker t;
  Buffer b(&t, /*count_event_bytes=*/false, /*arity=*/1);
  b.EnableHashIndex(/*class_idx=*/0, /*field_idx=*/1);
  b.AppendEvent(0, Named("X", 1));
  b.AppendEvent(0, Named("Y", 2));
  b.AppendEvent(0, Named("X", 3));
  ASSERT_TRUE(b.has_hash_index());
  const auto& xs = b.hash_index()->Probe(Value("X"));
  EXPECT_EQ(xs, (std::vector<uint64_t>{0, 2}));
  EXPECT_TRUE(b.hash_index()->Probe(Value("Z")).empty());
}

TEST(Buffer, HashIndexBuiltOverExistingRecords) {
  MemoryTracker t;
  Buffer b(&t, /*count_event_bytes=*/false, /*arity=*/1);
  Add(b, 1, 1, /*group=*/nullptr, Named("X", 1));
  b.EnableHashIndex(0, 1);
  EXPECT_EQ(b.hash_index()->Probe(Value("X")).size(), 1u);
}

// A keyed buffer purges a few rows per round, never a large block; the
// index must still shed dead ids, or every probe walks the stream's whole
// history for its key.
TEST(Buffer, HashIndexStaysBoundedUnderSmallPurges) {
  MemoryTracker t;
  Buffer b(&t, /*count_event_bytes=*/false, /*arity=*/1);
  b.EnableHashIndex(/*class_idx=*/0, /*field_idx=*/1);
  const std::vector<std::string> keys = {"A", "B", "C", "D"};
  constexpr Timestamp kWindow = 40;
  size_t max_probe = 0;
  size_t max_bound = 0;
  for (Timestamp ts = 0; ts < 20000; ++ts) {
    const std::string& key = keys[static_cast<size_t>(ts) % keys.size()];
    b.AppendEvent(0, EventBuilder(StockSchema())
                         .Set("name", Value(key))
                         .At(ts)
                         .Build());
    b.PurgeBefore(ts - kWindow);  // a round's worth: one or two rows
    size_t live = 0;
    for (RecordId id = b.base_id(); id < b.end_id(); ++id) {
      live += b.Get(id).slots[0]->value(1) == Value("A") ? 1 : 0;
    }
    const size_t probe = b.hash_index()->Probe(Value("A")).size();
    const size_t bound =
        live + std::max(Buffer::kIndexCompactSlack,
                        b.hash_index()->bucket_count());
    ASSERT_LE(probe, bound) << "at ts " << ts;
    max_probe = std::max(max_probe, probe);
    max_bound = std::max(max_bound, bound);
  }
  // Bounded by the window, not by the 5000 "A" rows appended overall.
  EXPECT_LE(max_probe, max_bound);
  EXPECT_LT(max_bound, 100u);
}

TEST(HashIndex, CompactDropsPurgedIds) {
  HashIndex idx(0, 1);
  for (uint64_t id = 0; id < 10; ++id) idx.Insert(Value("X"), id);
  idx.Compact(7);
  EXPECT_EQ(idx.Probe(Value("X")), (std::vector<uint64_t>{7, 8, 9}));
}

}  // namespace
}  // namespace zstream
