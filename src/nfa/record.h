// The NFA baseline's candidate binding.
//
// One (partial) match: a pointer per pattern class to its bound
// primitive event plus the match span. Slots are indexed by class so the
// shared expression evaluator reads them directly; a Kleene group rides
// along as a shared vector. The tree engines never build these — their
// buffers store records column-wise (exec/buffer.h).
#ifndef ZSTREAM_NFA_RECORD_H_
#define ZSTREAM_NFA_RECORD_H_

#include <vector>

#include "common/timestamp.h"
#include "event/event.h"
#include "expr/expr.h"

namespace zstream {

/// \brief A candidate binding of the NFA engine.
struct Record {
  Timestamp start_ts = 0;
  Timestamp end_ts = 0;
  /// One entry per pattern class; nullptr when unbound. Negated-class
  /// slots hold the *negating* event (never part of the output span).
  std::vector<EventPtr> slots;
  EventGroupPtr group;  // Kleene-closure events, when the pattern has one

  /// Binding of a single primitive event to `class_idx`.
  static Record FromEvent(int class_idx, int num_classes,
                          const EventPtr& event);

  EvalInput ToEvalInput(int group_class = -1) const {
    EvalInput in;
    in.slots = slots.data();
    in.num_slots = static_cast<int>(slots.size());
    in.group = group == nullptr ? nullptr : group.get();
    in.group_class = group_class;
    return in;
  }
};

}  // namespace zstream

#endif  // ZSTREAM_NFA_RECORD_H_
