// NFA-based baseline in the style of SASE (Wu, Diao, Rizvi, SIGMOD'06),
// reimplemented from the description in the ZStream paper's Sections 1
// and 6:
//
//   * one stack (deque) per positive event class, in pattern order;
//   * each stack entry carries a RIP (recent-indexed-pointer): the id
//     bound into the previous class's stack below which predecessors
//     must lie;
//   * when a final-class event arrives, composite events are constructed
//     by a backward search over this DAG, evaluating multi-class
//     predicates as classes bind;
//   * negation is applied as a post-filtering step on completed
//     combinations (the paper's Figure 2 discussion);
//   * no materialization: partial combinations are re-enumerated per
//     final event, matching the paper's NFA implementation note.
//
// The evaluation order this induces mirrors a right-deep tree plan,
// which is exactly the behaviour Figure 8/10 report for the NFA.
#ifndef ZSTREAM_NFA_NFA_ENGINE_H_
#define ZSTREAM_NFA_NFA_ENGINE_H_

#include <deque>
#include <memory>
#include <vector>

#include "common/memory_tracker.h"
#include "nfa/record.h"
#include "plan/pattern.h"

namespace zstream {

/// \brief SASE-style NFA evaluator for sequential patterns (with
/// optional negated classes handled as post-filters).
class NfaEngine {
 public:
  /// Supports sequence-shaped patterns; conjunction, disjunction and
  /// Kleene closure return NotSupported (the paper's NFA lacked them
  /// too — see Section 6.5's note on Query 8).
  static Result<std::unique_ptr<NfaEngine>> Create(
      PatternPtr pattern, MemoryTracker* tracker = nullptr);

  ZS_DISALLOW_COPY_AND_ASSIGN(NfaEngine);

  void Push(const EventPtr& event);
  void Finish() {}  // the NFA evaluates per event; nothing is pending

  uint64_t num_matches() const { return num_matches_; }
  uint64_t events_pushed() const { return events_pushed_; }
  MemoryTracker& memory() { return *tracker_; }

 private:
  NfaEngine(PatternPtr pattern, MemoryTracker* tracker);

  struct Entry {
    EventPtr event;
    uint64_t rip;  // id bound into the previous positive class's stack
  };
  struct Stack {
    std::deque<Entry> entries;
    uint64_t base_id = 0;
    uint64_t end_id() const { return base_id + entries.size(); }
    const Entry& Get(uint64_t id) const {
      return entries[static_cast<size_t>(id - base_id)];
    }
  };

  bool Admit(int class_idx, const EventPtr& event) const;
  void Search(const EventPtr& final_event);
  void SearchLevel(int level, Timestamp eat);
  bool IsNegated(const Record& candidate, int pos_idx_before) const;
  void PurgeBefore(Timestamp eat);

  PatternPtr pattern_;
  MemoryTracker* tracker_;
  std::unique_ptr<MemoryTracker> owned_tracker_;

  std::vector<int> positive_;            // class indices, pattern order
  std::vector<Stack> stacks_;            // one per positive class
  std::vector<std::deque<EventPtr>> neg_stacks_;  // one per negated class
  std::vector<int> negated_;             // class indices of negations
  /// Multi-class predicates grouped by the search level (lowest
  /// positive position) at which they become evaluable.
  std::vector<std::vector<ExprPtr>> preds_by_level_;
  std::vector<ExprPtr> neg_preds_;  // predicates touching negated classes

  /// Per-class partition-key field indices when the pattern is
  /// hash-partitioned (the analyzer strips the equality predicates, so
  /// the search enforces key equality itself); empty otherwise.
  std::vector<int> key_fields_;

  // Scratch state for the backward search.
  Record candidate_;
  Value search_key_;  // final event's partition key, valid per Search
  uint64_t num_matches_ = 0;
  uint64_t events_pushed_ = 0;
  uint64_t output_checksum_ = 0;  // keeps output construction observable
};

}  // namespace zstream

#endif  // ZSTREAM_NFA_NFA_ENGINE_H_
