// Equality hash indexes over buffers (Section 5.2.2).
//
// Maps an attribute value to the sequence ids of the records whose key
// slot carries that value, in insertion (== end-timestamp) order. Probes
// during SEQ/CONJ evaluation replace the inner scan with a bucket walk.
#ifndef ZSTREAM_EXEC_HASH_INDEX_H_
#define ZSTREAM_EXEC_HASH_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/value.h"

namespace zstream {

/// \brief Value -> record-id multimap for one buffer.
class HashIndex {
 public:
  HashIndex(int class_idx, int field_idx)
      : class_idx_(class_idx), field_idx_(field_idx) {}

  int class_idx() const { return class_idx_; }
  int field_idx() const { return field_idx_; }

  /// Indexes record `id` under `key`, which the buffer read from the
  /// record's slot `class_idx()`, field `field_idx()` (records with an
  /// unbound slot or a null key are not indexed).
  void Insert(Value key, uint64_t id) {
    if (key.is_null()) return;
    buckets_[std::move(key)].push_back(id);
  }

  /// Ids (ascending) of records whose key equals `key`; may contain ids
  /// below the buffer's base id (purged) — callers skip those.
  const std::vector<uint64_t>& Probe(const Value& key) const {
    auto it = buckets_.find(key);
    return it == buckets_.end() ? kEmpty : it->second;
  }

  /// Drops bucket prefixes below `base_id` (amortized cleanup after
  /// purges).
  void Compact(uint64_t base_id);

  size_t bucket_count() const { return buckets_.size(); }

 private:
  static const std::vector<uint64_t> kEmpty;

  int class_idx_;
  int field_idx_;
  std::unordered_map<Value, std::vector<uint64_t>, ValueHasher> buckets_;
};

}  // namespace zstream

#endif  // ZSTREAM_EXEC_HASH_INDEX_H_
