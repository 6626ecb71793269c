// Completed pattern matches, as delivered to consumers.
//
// A Match is a borrowed view: its slots and group point straight into
// the operator buffers that assembled it (Section 4's batch-iterator
// model hands matches out of the root once per round), so delivering one
// costs no allocation and no refcount traffic. The view is valid only
// for the duration of the delivery call; a consumer that keeps a match
// past the call copies it into an OwnedMatch.
#ifndef ZSTREAM_EXEC_MATCH_H_
#define ZSTREAM_EXEC_MATCH_H_

#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "common/timestamp.h"
#include "event/event.h"

namespace zstream {

class Pattern;

/// \brief Borrowed slot array of a match, indexed by pattern class.
///
/// A merged result reads each slot from `slots` when bound there, else
/// from `fallback` (the other input record of the root operator), so the
/// union of two buffered records is viewed without being staged.
class MatchSlots {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = EventPtr;
    using difference_type = std::ptrdiff_t;
    using pointer = const EventPtr*;
    using reference = const EventPtr&;

    Iterator() = default;
    Iterator(const MatchSlots* slots, size_t i) : slots_(slots), i_(i) {}
    const EventPtr& operator*() const { return (*slots_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator prev = *this;
      ++i_;
      return prev;
    }
    bool operator==(const Iterator& o) const { return i_ == o.i_; }

   private:
    const MatchSlots* slots_ = nullptr;
    size_t i_ = 0;
  };

  MatchSlots() = default;
  MatchSlots(const EventPtr* slots, int num_slots,
             const EventPtr* fallback = nullptr)
      : slots_(slots), fallback_(fallback), size_(num_slots) {}

  size_t size() const { return static_cast<size_t>(size_); }

  /// Null when class `i` is unbound (negated classes, untaken branches).
  const EventPtr& operator[](size_t i) const {
    const EventPtr& s = slots_[i];
    return s != nullptr || fallback_ == nullptr ? s : fallback_[i];
  }

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

 private:
  const EventPtr* slots_ = nullptr;
  const EventPtr* fallback_ = nullptr;
  int size_ = 0;
};

/// \brief One completed pattern match: a view valid for the duration of
/// the delivery call. Copy it into an OwnedMatch to keep it.
struct Match {
  TimeSpan span;
  /// Component events slotted by pattern class (negated classes null).
  MatchSlots slots;
  /// Kleene-closure events, when present.
  const EventGroup* group = nullptr;
  /// Owning handle of `group` when the emitter holds one, so a copy
  /// shares the group instead of copying it; null otherwise.
  const EventGroupPtr* group_owner = nullptr;

  std::string ToString() const;
};

/// \brief An owning copy of a match, for consumers that keep matches
/// past the delivery call (collecting sinks, the wire fanout queue,
/// decoded wire matches). The Match base views the copy's own storage.
/// Copying a view costs one allocation (the slot array) plus one
/// refcount per bound slot; the group is shared when the view carries
/// its owner and copied otherwise.
class OwnedMatch : public Match {
 public:
  OwnedMatch() = default;
  explicit OwnedMatch(const Match& match);
  OwnedMatch(TimeSpan span, std::vector<EventPtr> slots,
             EventGroupPtr group);

  OwnedMatch(const OwnedMatch& other)
      : OwnedMatch(static_cast<const Match&>(other)) {}
  OwnedMatch(OwnedMatch&& other) noexcept;
  OwnedMatch& operator=(const OwnedMatch& other);
  OwnedMatch& operator=(OwnedMatch&& other) noexcept;

 private:
  /// Points the Match base at this object's storage.
  void Bind();

  std::vector<EventPtr> slot_storage_;
  EventGroupPtr group_storage_;
};

/// Evaluates the pattern's RETURN clause against a match.
std::vector<Value> ProjectMatch(const Pattern& pattern, const Match& match);

}  // namespace zstream

#endif  // ZSTREAM_EXEC_MATCH_H_
