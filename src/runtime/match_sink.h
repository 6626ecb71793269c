// Thread-safe match delivery for the concurrent runtime.
//
// Shard workers publish matches as they drain engine roots; a MatchSink
// is the runtime's only cross-thread output channel, so implementations
// must be safe under concurrent Publish. A published match is a view
// valid only during Publish (exec/match.h); sinks that keep matches copy
// them into an OwnedRuntimeMatch. CollectingMatchSink additionally
// re-establishes a deterministic order: Take() sorts by
// RuntimeMatchLess, which is independent of shard count and thread
// interleaving — the property the determinism tests assert.
#ifndef ZSTREAM_RUNTIME_MATCH_SINK_H_
#define ZSTREAM_RUNTIME_MATCH_SINK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sync.h"
#include "exec/match.h"

namespace zstream::runtime {

/// Runtime-wide query handle (assigned by StreamRuntime::RegisterQuery).
using QueryId = int64_t;

/// \brief One match, tagged with its source query and shard. `match` is
/// a view valid for the duration of the Publish call.
struct RuntimeMatch {
  QueryId query = 0;
  int shard = 0;
  /// Trace id of the sampled ingest whose processing emitted this
  /// match (obs/trace.h); 0 when untraced or emitted at a Finish
  /// barrier. Carried through fanout so server and client spans join.
  uint64_t trace_id = 0;
  Match match;
};

/// \brief An owning copy of a RuntimeMatch, for sinks that keep matches
/// past Publish.
struct OwnedRuntimeMatch {
  OwnedRuntimeMatch() = default;
  explicit OwnedRuntimeMatch(const RuntimeMatch& m)
      : query(m.query), shard(m.shard), trace_id(m.trace_id),
        match(m.match) {}

  QueryId query = 0;
  int shard = 0;
  uint64_t trace_id = 0;
  OwnedMatch match;
};

/// Canonical, interleaving-independent rendering of a match: the span
/// plus every bound slot's (class, timestamp) and the Kleene group
/// timestamps. For display and multiset comparison; ordering uses
/// MatchLess.
std::string CanonicalMatchKey(const Match& match);

/// Total order over match content, field by field: span start, span
/// end, then each slot's presence and timestamp, then the group's
/// presence and timestamps. Independent of shard count and delivery
/// interleaving.
bool MatchLess(const Match& a, const Match& b);

/// Appends the compact sort key of a match: span start, span end, each
/// slot's timestamp (an absent slot as INT64_MIN, below every event
/// timestamp), then, when the match has a Kleene group, a marker word
/// and the group's timestamps. For matches of one query (one slot
/// count), comparing keys lexicographically orders exactly as MatchLess
/// does, so a consumer that keeps matches as bytes (the network
/// server's fanout) sorts them without keeping the events.
void AppendMatchSortKey(const Match& match, std::vector<int64_t>* key);

/// The deterministic delivery order — query, then MatchLess — shared by
/// CollectingMatchSink::Take and the network server's match fanout, so
/// "ordered" means the same thing in-process and over the wire.
bool RuntimeMatchLess(const OwnedRuntimeMatch& a,
                      const OwnedRuntimeMatch& b);

/// \brief Consumer interface; Publish is called from shard workers.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void Publish(RuntimeMatch&& match) = 0;
};

/// \brief Accumulates owning copies of matches; Take() hands them out in
/// canonical order.
class CollectingMatchSink : public MatchSink {
 public:
  void Publish(RuntimeMatch&& match) override;

  size_t size() const;

  /// Removes and returns everything published so far, sorted by
  /// RuntimeMatchLess — chronological within a query, and identical
  /// across runs with different shard interleavings.
  std::vector<OwnedRuntimeMatch> Take();

  /// Sorted canonical keys of everything published so far (kept), for
  /// direct comparison against a single-threaded run.
  std::vector<std::string> SortedKeys() const;

 private:
  mutable zs::Mutex mu_;
  std::vector<OwnedRuntimeMatch> matches_ ZS_GUARDED_BY(mu_);
};

/// \brief Serializes an arbitrary callback behind a mutex (for sinks
/// that forward to non-thread-safe consumers).
class CallbackMatchSink : public MatchSink {
 public:
  explicit CallbackMatchSink(std::function<void(RuntimeMatch&&)> fn)
      : fn_(std::move(fn)) {}

  void Publish(RuntimeMatch&& match) override {
    zs::MutexLock lock(mu_);
    fn_(std::move(match));
  }

 private:
  zs::Mutex mu_;
  std::function<void(RuntimeMatch&&)> fn_ ZS_GUARDED_BY(mu_);
};

}  // namespace zstream::runtime

#endif  // ZSTREAM_RUNTIME_MATCH_SINK_H_
