#include "runtime/match_sink.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace zstream::runtime {

std::string CanonicalMatchKey(const Match& match) {
  std::ostringstream os;
  os << match.span.start << ":" << match.span.end << "/";
  for (size_t i = 0; i < match.slots.size(); ++i) {
    if (match.slots[i] != nullptr) {
      os << i << "@" << match.slots[i]->timestamp() << "|";
    }
  }
  if (match.group != nullptr) {
    os << "g{";
    for (const EventPtr& e : *match.group) os << e->timestamp() << ",";
    os << "}";
  }
  return os.str();
}

namespace {

/// -1, 0 or 1 as `a` sorts before, with or after `b`; absent < present.
int CompareEvent(const EventPtr& a, const EventPtr& b) {
  if (a == nullptr || b == nullptr) {
    return static_cast<int>(a != nullptr) - static_cast<int>(b != nullptr);
  }
  const Timestamp ta = a->timestamp();
  const Timestamp tb = b->timestamp();
  return ta < tb ? -1 : (ta > tb ? 1 : 0);
}

}  // namespace

bool MatchLess(const Match& a, const Match& b) {
  if (a.span.start != b.span.start) return a.span.start < b.span.start;
  if (a.span.end != b.span.end) return a.span.end < b.span.end;
  const size_t n = std::min(a.slots.size(), b.slots.size());
  for (size_t i = 0; i < n; ++i) {
    if (const int c = CompareEvent(a.slots[i], b.slots[i]); c != 0) {
      return c < 0;
    }
  }
  if (a.slots.size() != b.slots.size()) {
    return a.slots.size() < b.slots.size();
  }
  if (a.group == nullptr || b.group == nullptr) {
    return a.group == nullptr && b.group != nullptr;
  }
  return std::lexicographical_compare(
      a.group->begin(), a.group->end(), b.group->begin(), b.group->end(),
      [](const EventPtr& x, const EventPtr& y) {
        return CompareEvent(x, y) < 0;
      });
}

void AppendMatchSortKey(const Match& match, std::vector<int64_t>* key) {
  constexpr int64_t kAbsent = std::numeric_limits<int64_t>::min();
  const auto stamp = [](const EventPtr& e) {
    return e != nullptr ? e->timestamp() : kAbsent;
  };
  key->push_back(match.span.start);
  key->push_back(match.span.end);
  for (const EventPtr& slot : match.slots) key->push_back(stamp(slot));
  if (match.group != nullptr) {
    // Present-but-empty sorts after absent: the marker makes the key
    // longer than the slots alone.
    key->push_back(0);
    for (const EventPtr& e : *match.group) key->push_back(stamp(e));
  }
}

bool RuntimeMatchLess(const OwnedRuntimeMatch& a,
                      const OwnedRuntimeMatch& b) {
  if (a.query != b.query) return a.query < b.query;
  return MatchLess(a.match, b.match);
}

void CollectingMatchSink::Publish(RuntimeMatch&& match) {
  OwnedRuntimeMatch kept(match);  // copied outside the lock
  zs::MutexLock lock(mu_);
  matches_.push_back(std::move(kept));
}

size_t CollectingMatchSink::size() const {
  zs::MutexLock lock(mu_);
  return matches_.size();
}

std::vector<OwnedRuntimeMatch> CollectingMatchSink::Take() {
  std::vector<OwnedRuntimeMatch> out;
  {
    zs::MutexLock lock(mu_);
    out.swap(matches_);
  }
  std::sort(out.begin(), out.end(), RuntimeMatchLess);
  return out;
}

std::vector<std::string> CollectingMatchSink::SortedKeys() const {
  std::vector<std::string> keys;
  {
    zs::MutexLock lock(mu_);
    keys.reserve(matches_.size());
    for (const OwnedRuntimeMatch& m : matches_) {
      keys.push_back(CanonicalMatchKey(m.match));
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace zstream::runtime
