#include "exec/match.h"

#include <sstream>

#include "plan/pattern.h"

namespace zstream {

std::string Match::ToString() const {
  std::ostringstream os;
  os << "match[" << span.start << "," << span.end << "](";
  bool first = true;
  for (const EventPtr& slot : slots) {
    if (slot == nullptr) continue;
    if (!first) os << "; ";
    first = false;
    os << slot->ToString();
  }
  if (group != nullptr) {
    os << "; group size=" << group->size();
  }
  os << ")";
  return os.str();
}

OwnedMatch::OwnedMatch(const Match& match) {
  span = match.span;
  slot_storage_.reserve(match.slots.size());
  for (const EventPtr& slot : match.slots) slot_storage_.push_back(slot);
  if (match.group_owner != nullptr) {
    group_storage_ = *match.group_owner;
  } else if (match.group != nullptr) {
    group_storage_ = std::make_shared<EventGroup>(*match.group);
  }
  Bind();
}

OwnedMatch::OwnedMatch(TimeSpan match_span, std::vector<EventPtr> slots,
                       EventGroupPtr group)
    : slot_storage_(std::move(slots)), group_storage_(std::move(group)) {
  span = match_span;
  Bind();
}

OwnedMatch::OwnedMatch(OwnedMatch&& other) noexcept
    : Match(other),
      slot_storage_(std::move(other.slot_storage_)),
      group_storage_(std::move(other.group_storage_)) {
  Bind();
  other.Bind();
}

OwnedMatch& OwnedMatch::operator=(const OwnedMatch& other) {
  if (this != &other) *this = OwnedMatch(other);
  return *this;
}

OwnedMatch& OwnedMatch::operator=(OwnedMatch&& other) noexcept {
  if (this != &other) {
    span = other.span;
    slot_storage_ = std::move(other.slot_storage_);
    group_storage_ = std::move(other.group_storage_);
    Bind();
    other.Bind();
  }
  return *this;
}

void OwnedMatch::Bind() {
  slots = MatchSlots(slot_storage_.data(),
                     static_cast<int>(slot_storage_.size()));
  group = group_storage_.get();
  group_owner = group_storage_ != nullptr ? &group_storage_ : nullptr;
}

std::vector<Value> ProjectMatch(const Pattern& pattern, const Match& match) {
  // Expressions evaluate over a contiguous slot array; the view may
  // merge two source records, so flatten it into non-owning aliases.
  std::vector<EventPtr> flat;
  flat.reserve(match.slots.size());
  for (const EventPtr& slot : match.slots) {
    flat.push_back(EventPtr(EventPtr(), slot.get()));
  }
  EvalInput in;
  in.slots = flat.data();
  in.num_slots = static_cast<int>(flat.size());
  in.group = match.group;
  in.group_class = pattern.KleeneClass();

  std::vector<Value> out;
  out.reserve(pattern.return_items.size());
  for (const ReturnItem& item : pattern.return_items) {
    if (item.expr != nullptr) {
      out.push_back(item.expr->Eval(in));
    } else {
      const EventPtr& e = match.slots[static_cast<size_t>(item.class_idx)];
      out.push_back(e == nullptr ? Value::Null() : Value(e->ToString()));
    }
  }
  return out;
}

}  // namespace zstream
