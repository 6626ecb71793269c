#include "nfa/record.h"

#include "common/macros.h"

namespace zstream {

ZS_HOT Record Record::FromEvent(int class_idx, int num_classes,
                                const EventPtr& event) {
  Record r;
  r.start_ts = event->timestamp();
  r.end_ts = event->timestamp();
  r.slots.assign(static_cast<size_t>(num_classes), nullptr);
  r.slots[static_cast<size_t>(class_idx)] = event;
  return r;
}

}  // namespace zstream
