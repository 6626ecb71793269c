#include "exec/buffer.h"

#include <algorithm>

#include "common/macros.h"

namespace zstream {

namespace {
/// Cached recycled chunks per buffer; enough to absorb the clear/refill
/// cycle of internal right-side buffers without unbounded hoarding.
constexpr size_t kMaxFreeChunks = 8;
}  // namespace

Buffer::~Buffer() { Clear(); }

size_t Buffer::ChunkOverheadBytes(const Chunk& c) const {
  size_t bytes = sizeof(Chunk);
  bytes += c.start.capacity() * sizeof(Timestamp);
  bytes += c.end.capacity() * sizeof(Timestamp);
  bytes += c.slots.capacity() * sizeof(EventPtr);
  bytes += c.groups.capacity() * sizeof(EventGroupPtr);
  return bytes;
}

void Buffer::Account(size_t bytes) {
  tracked_bytes_ += bytes;
  if (tracker_ != nullptr) tracker_->Allocate(bytes);
}

void Buffer::Unaccount(size_t bytes) {
  ZS_DCHECK(tracked_bytes_ >= bytes);
  tracked_bytes_ -= bytes;
  if (tracker_ != nullptr) tracker_->Release(bytes);
}

Buffer::Chunk& Buffer::AcquireChunk() {
  std::unique_ptr<Chunk> c;
  if (!free_chunks_.empty()) {
    c = std::move(free_chunks_.back());
    free_chunks_.pop_back();
  } else {
    // zs-hotpath-allow(pooled: reached only when the per-buffer chunk
    // pool is empty — steady state recycles retired chunks instead)
    c = std::make_unique<Chunk>();
    c->start.resize(kChunkCap);
    c->end.resize(kChunkCap);
    c->slots.resize(kChunkCap * static_cast<size_t>(arity_));
  }
  c->first_id = next_id_;
  c->count = 0;
  Account(ChunkOverheadBytes(*c));
  chunks_.push_back(std::move(c));
  return *chunks_.back();
}

void Buffer::EnsureGroupColumn(Chunk& c) {
  if (!c.groups.empty()) return;
  c.groups.resize(kChunkCap);
  Account(c.groups.capacity() * sizeof(EventGroupPtr));
}

void Buffer::ChargeGroup(const EventGroupPtr& g) {
  uint32_t& refs = group_refs_[g.get()];
  if (++refs == 1) Account(GroupByteSize(*g));
}

void Buffer::ReleaseGroup(const EventGroupPtr& g) {
  auto it = group_refs_.find(g.get());
  ZS_DCHECK(it != group_refs_.end());
  if (--it->second == 0) {
    Unaccount(GroupByteSize(*g));
    group_refs_.erase(it);
  }
}

ZS_HOT Buffer::Chunk* Buffer::AppendRow(Timestamp start_ts, Timestamp end_ts,
                                        uint32_t* row_out) {
  ZS_DCHECK(arity_ > 0);
  ZS_DCHECK(end_ts >= last_end_ts_ || empty());
  Chunk* c = chunks_.empty() ? nullptr : chunks_.back().get();
  if (c == nullptr || c->count == kChunkCap) {
    c = &AcquireChunk();
  }
  const uint32_t row = c->count;
  c->start[row] = start_ts;
  c->end[row] = end_ts;
  last_end_ts_ = end_ts;
  *row_out = row;
  return c;
}

ZS_HOT void Buffer::FinishAppend(Chunk& c, uint32_t row, RecordId id) {
  ++c.count;
  ++next_id_;
  if (count_event_bytes_) {
    size_t bytes = 0;
    const EventPtr* s = &c.slots[row * static_cast<size_t>(arity_)];
    for (int i = 0; i < arity_; ++i) {
      if (s[i] != nullptr) bytes += s[i]->ByteSize();
    }
    Account(bytes);
  }
  if (index_.has_value()) {
    const EventPtr& key_event =
        c.slots[row * static_cast<size_t>(arity_) +
                static_cast<size_t>(index_->class_idx())];
    if (key_event != nullptr) {
      index_->Insert(key_event->value(index_->field_idx()), id);
    }
  }
}

ZS_HOT RecordId Buffer::AppendEvent(int class_idx, const EventPtr& event) {
  const Timestamp ts = event->timestamp();
  uint32_t row = 0;
  Chunk* c = AppendRow(ts, ts, &row);
  c->slots[row * static_cast<size_t>(arity_) + static_cast<size_t>(class_idx)] =
      event;
  const RecordId id = next_id_;
  FinishAppend(*c, row, id);
  return id;
}

ZS_HOT RecordId Buffer::AppendMerged(const RecordRef& a, const RecordRef& b,
                                     Timestamp start_ts, Timestamp end_ts) {
  uint32_t row = 0;
  Chunk* c = AppendRow(start_ts, end_ts, &row);
  EventPtr* dst = &c->slots[row * static_cast<size_t>(arity_)];
  for (int i = 0; i < arity_; ++i) {
    dst[i] = a.slots[i] != nullptr ? a.slots[i] : b.slots[i];
  }
  const EventGroupPtr* g =
      a.has_group() ? a.group_sp : (b.has_group() ? b.group_sp : nullptr);
  if (g != nullptr) {
    EnsureGroupColumn(*c);
    c->groups[row] = *g;
    ChargeGroup(*g);
  }
  const RecordId id = next_id_;
  FinishAppend(*c, row, id);
  return id;
}

ZS_HOT RecordId Buffer::AppendRef(const RecordRef& r) {
  uint32_t row = 0;
  Chunk* c = AppendRow(r.start_ts, r.end_ts, &row);
  EventPtr* dst = &c->slots[row * static_cast<size_t>(arity_)];
  for (int i = 0; i < arity_; ++i) dst[i] = r.slots[i];
  if (r.has_group()) {
    EnsureGroupColumn(*c);
    c->groups[row] = *r.group_sp;
    ChargeGroup(*r.group_sp);
  }
  const RecordId id = next_id_;
  FinishAppend(*c, row, id);
  return id;
}

RecordId Buffer::AppendSlots(Timestamp start_ts, Timestamp end_ts,
                             const EventPtr* slots, const EventPtr* fallback,
                             int num_slots, const EventGroupPtr& group) {
  ZS_DCHECK(num_slots == arity_);
  uint32_t row = 0;
  Chunk* c = AppendRow(start_ts, end_ts, &row);
  EventPtr* dst = &c->slots[row * static_cast<size_t>(arity_)];
  for (int i = 0; i < num_slots; ++i) {
    dst[i] = slots[i] != nullptr || fallback == nullptr ? slots[i]
                                                         : fallback[i];
  }
  if (group != nullptr) {
    EnsureGroupColumn(*c);
    c->groups[row] = group;
    ChargeGroup(group);
  }
  const RecordId id = next_id_;
  FinishAppend(*c, row, id);
  return id;
}

ZS_HOT RecordRef Buffer::Get(RecordId id) const {
  ZS_DCHECK(id >= base_id_ && id < next_id_);
  const size_t off = static_cast<size_t>(id - chunks_.front()->first_id);
  const Chunk& c = *chunks_[off / kChunkCap];
  const size_t row = off % kChunkCap;
  RecordRef ref;
  ref.start_ts = c.start[row];
  ref.end_ts = c.end[row];
  ref.slots = &c.slots[row * static_cast<size_t>(arity_)];
  ref.num_slots = arity_;
  ref.group_sp = c.groups.empty() ? nullptr : &c.groups[row];
  return ref;
}

void Buffer::ReleaseRow(Chunk& c, uint32_t row) {
  EventPtr* s = &c.slots[row * static_cast<size_t>(arity_)];
  if (count_event_bytes_) {
    size_t bytes = 0;
    for (int i = 0; i < arity_; ++i) {
      if (s[i] != nullptr) bytes += s[i]->ByteSize();
    }
    Unaccount(bytes);
  }
  for (int i = 0; i < arity_; ++i) s[i] = nullptr;
  if (!c.groups.empty() && c.groups[row] != nullptr) {
    ReleaseGroup(c.groups[row]);
    c.groups[row] = nullptr;
  }
}

void Buffer::RetireFrontChunk() {
  std::unique_ptr<Chunk> c = std::move(chunks_.front());
  chunks_.pop_front();
  Unaccount(ChunkOverheadBytes(*c));
  if (free_chunks_.size() < kMaxFreeChunks) {
    free_chunks_.push_back(std::move(c));
  }
}

void Buffer::PurgeBefore(Timestamp eat) {
  size_t removed = 0;
  while (base_id_ < next_id_) {
    Chunk& front = *chunks_.front();
    const size_t row = static_cast<size_t>(base_id_ - front.first_id);
    if (front.start[row] >= eat) break;
    ReleaseRow(front, static_cast<uint32_t>(row));
    ++base_id_;
    ++removed;
    if (base_id_ - front.first_id == kChunkCap) RetireFrontChunk();
  }
  // Amortize index cleanup over the rows purged since the last sweep, so
  // the sweep's O(buckets) cost is paid for by as many purged rows —
  // whether they went one at a time or in bulk.
  if (index_.has_value()) {
    purged_since_compact_ += removed;
    if (purged_since_compact_ >=
        std::max(kIndexCompactSlack, index_->bucket_count())) {
      index_->Compact(base_id_);
      purged_since_compact_ = 0;
    }
  }
}

void Buffer::Clear() {
  while (base_id_ < next_id_) {
    Chunk& front = *chunks_.front();
    const size_t row = static_cast<size_t>(base_id_ - front.first_id);
    ReleaseRow(front, static_cast<uint32_t>(row));
    ++base_id_;
    if (base_id_ - front.first_id == kChunkCap) RetireFrontChunk();
  }
  // A trailing partially-filled chunk survives the loop above.
  while (!chunks_.empty()) RetireFrontChunk();
  ZS_DCHECK(group_refs_.empty());
  if (index_.has_value()) index_->Compact(base_id_);
  purged_since_compact_ = 0;
}

void Buffer::EnableHashIndex(int class_idx, int field_idx) {
  if (index_.has_value() && index_->class_idx() == class_idx &&
      index_->field_idx() == field_idx) {
    return;
  }
  index_.emplace(class_idx, field_idx);
  purged_since_compact_ = 0;
  for (RecordId id = base_id_; id < next_id_; ++id) {
    const RecordRef r = Get(id);
    const EventPtr& key_event = r.slots[class_idx];
    if (key_event != nullptr) {
      index_->Insert(key_event->value(field_idx), id);
    }
  }
}

void Buffer::DisableHashIndex() { index_.reset(); }

}  // namespace zstream
