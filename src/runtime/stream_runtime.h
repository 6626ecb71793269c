// Concurrent streaming runtime: a sharded, multi-query server layer on
// top of the single-threaded ZStream engines.
//
//   producers --> Ingest() --router--> shard queues --> shard workers
//                                                          |  per-shard
//                                                          |  engines
//                                                          v
//                                          MatchSink (thread-safe, ordered)
//
// Each of N shards owns one worker thread, one bounded MPSC ring queue
// and one engine instance per registered query that routes there. The
// route follows the pattern: a query with a partition key (the
// analyzer's Section 5.2.2 key) gets each event on the shard its key
// hashes to, so every key's events land on exactly one shard and the
// sharded match set equals the single-threaded one exactly; a keyless
// query runs whole on one shard (assigned round-robin across queries,
// so many queries still spread over all cores). Each ingest call's
// events for a shard travel as one queue slot and reach the engines as
// one run. A shard queue is bounded by drain time: a blocking producer
// waits while the queue holds about 1 ms of the worker's measured work
// (so detection latency is not a full queue's wait), and
// queue_capacity events bound its memory. Backpressure is configurable:
// block the producer, or drop-newest with per-shard drop counters.
//
// Queries register and unregister at runtime; both are barriers (they
// return once every shard has installed/retired its engine), so events
// ingested after RegisterQuery() returns are guaranteed to be seen.
// Plan adaptation is per engine (EngineOptions::adaptive): each shard
// engine, and each partition of a keyed one, re-plans from its own
// statistics (Section 5.3). ExplainAnalyze reads the live plans back
// from the engines at a barrier.
#ifndef ZSTREAM_RUNTIME_STREAM_RUNTIME_H_
#define ZSTREAM_RUNTIME_STREAM_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/zstream.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "runtime/match_sink.h"
#include "runtime/runtime_options.h"

namespace zstream::runtime {

using StreamId = int;

struct QueryOptions {
  /// Thread-safe match consumer (not owned; may be null: count only).
  MatchSink* sink = nullptr;
};

/// \brief Test/diagnostic hook: parks a shard worker until opened, so a
/// test can deterministically fill a queue (see PauseShard).
class Gate {
 public:
  /// Worker side: signal parked, then block until Open().
  void Park();
  /// Blocks until the worker has parked.
  void WaitParked();
  /// Releases the worker.
  void Open();

 private:
  zs::Mutex mu_;
  zs::CondVar cv_;
  bool parked_ ZS_GUARDED_BY(mu_) = false;
  bool open_ ZS_GUARDED_BY(mu_) = false;
};

/// \brief The sharded multi-query runtime.
class StreamRuntime {
 public:
  static Result<std::unique_ptr<StreamRuntime>> Create(
      const RuntimeOptions& options = {});

  ~StreamRuntime();
  ZS_DISALLOW_COPY_AND_ASSIGN(StreamRuntime);

  /// Declares a named input stream carrying events of `schema`.
  Result<StreamId> AddStream(const std::string& name, SchemaPtr schema);

  /// Looks up a stream by name.
  Result<StreamId> stream(const std::string& name) const;

  /// Names of the bound streams, in StreamId order.
  std::vector<std::string> StreamNames() const;

  /// The schema the stream was bound with.
  Result<SchemaPtr> schema(StreamId stream) const;

  /// Compiles `text` against the stream's schema (parse -> rewrite ->
  /// analyze -> plan) and instantiates it on its target shards. Returns
  /// once every shard has the engine installed: events ingested after
  /// this returns are guaranteed to be evaluated.
  Result<QueryId> RegisterQuery(StreamId stream, const std::string& text,
                                const CompileOptions& compile = {},
                                const QueryOptions& options = {});

  /// Same, for an already analyzed pattern + plan (a session's compiled
  /// query, or a benchmark's).
  Result<QueryId> RegisterQuery(StreamId stream, PatternPtr pattern,
                                const PhysicalPlan& plan,
                                const EngineOptions& engine = {},
                                const QueryOptions& options = {});

  /// Flushes and retires the query on every shard; returns its final
  /// match count. The count stays in zstream_matches_total; the query's
  /// `query=` series leave the registry.
  Result<uint64_t> UnregisterQuery(QueryId id);

  /// Routes `events` to the shards that need them and enqueues them with
  /// one queue lock per target shard. Thread-safe (any number of
  /// producers). Returns the number of (event, shard) deliveries
  /// dropped; a null event, an unknown stream and a stopped runtime
  /// count every event they refuse.
  uint64_t IngestBatch(StreamId stream, std::span<const EventPtr> events);

  /// Same, with an externally-minted trace id (obs/trace.h) — the server
  /// passes the id decoded from the wire so client and server spans
  /// share one trace; 0 means untraced. The overload above samples
  /// locally via the global tracer.
  uint64_t IngestBatch(StreamId stream, std::span<const EventPtr> events,
                       uint64_t trace_id);

  /// A batch of one. Returns false when the event was refused or any
  /// target shard dropped it under kDropNewest.
  bool Ingest(StreamId stream, const EventPtr& event);

  /// Barrier: every event enqueued before this call is processed and
  /// every engine has flushed (Engine::Finish), so match counters and
  /// sinks are complete for everything ingested so far.
  Status Flush();

  /// Closes the queues, drains them, and joins the workers. Idempotent;
  /// also called by the destructor. Ingest fails afterwards.
  void Stop();

  /// Matches delivered so far (complete after Flush).
  Result<uint64_t> query_matches(QueryId id) const;

  /// Peak tracked bytes across the query's shard engines (the shared
  /// thread-safe MemoryTracker).
  Result<int64_t> query_peak_bytes(QueryId id) const;

  /// Number of shards actually hosting an engine for the query.
  Result<int> query_shard_count(QueryId id) const;

  /// The query's live plan trees annotated with per-node counters
  /// (EXPLAIN ANALYZE), one tree per distinct plan its engines run. A
  /// barrier: every shard worker snapshots its engine's profile at a
  /// message boundary, so counters are consistent with everything
  /// processed so far. Also refreshes the query's observed-pairs and
  /// plan-cost metrics.
  Result<std::string> ExplainAnalyze(QueryId id);

  /// This runtime's metrics registry (shard/queue/query series, see
  /// docs/observability.md). Instrument pointers stay valid for the
  /// runtime's lifetime.
  obs::Registry& metrics_registry() { return registry_; }

  /// The one refresh step: mirrors the live ingest, shard and query
  /// counters into the registry (which otherwise only sees latency
  /// observations, written in-line by the shard workers). Every reader
  /// of the registry — the renderers below, the server's scrapes,
  /// tests — calls it first. Cheap and lock-light; safe from any
  /// thread, MatchSink callbacks included.
  void UpdateMetrics();

  /// UpdateMetrics + render: Prometheus text exposition / stable JSON.
  std::string MetricsPrometheus();
  std::string MetricsJson();

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Test/diagnostic hook: enqueues a gate on `shard`'s queue and
  /// returns it; the worker parks at the gate until Open().
  std::shared_ptr<Gate> PauseShard(int shard);

 private:
  struct Shard;        // defined in stream_runtime.cc
  struct QueryState;   // defined in stream_runtime.cc
  struct ShardMsg;     // defined in stream_runtime.cc
  struct Control;      // defined in stream_runtime.cc

  /// Routing entry snapshot used by Ingest without touching QueryState.
  struct RouteEntry {
    QueryId query = 0;
    int key_field = -1;  // partition key field; -1 when keyless
    int pinned_shard = 0;
  };
  /// A key hash the router already computed for an event, handed to the
  /// shard worker so it never hashes the same key twice; field -1: none.
  struct KeyHint {
    int field = -1;
    size_t hash = 0;
  };
  struct StreamInfo {
    std::string name;
    SchemaPtr schema;
    std::vector<RouteEntry> routes;
  };

  explicit StreamRuntime(const RuntimeOptions& options);

  void WorkerLoop(Shard* shard);
  /// The one routing rule, used by the router and the shard workers
  /// alike: the shard an event of a query belongs to. A query with a
  /// partition key hashes the event's key; a keyless one (key_field -1)
  /// runs on its pinned shard. Reuses `hint` when it holds this field's
  /// hash, and leaves the hash there for the next keyed query.
  int ShardOf(int key_field, int pinned_shard, const Event& event,
              KeyHint* hint) const;
  /// Offers a timestamp-ordered span of `stream` events to every engine
  /// on `shard`, as one EngineCore::PushBatch per engine. Keyed queries
  /// filter the span to the events ShardOf names this shard for,
  /// reusing the router's hashes of field `hashed_field` from `hashes`
  /// (parallel to `events`), or re-hashing when `hashed_field` is -1.
  void DispatchRun(Shard* shard, StreamId stream,
                   const std::vector<EventPtr>& events, int hashed_field,
                   const size_t* hashes);
  /// Publishes the match tallies the shard's engine callbacks counted
  /// since the last call: one counter add and one latency-histogram
  /// observation (at `now`) per query, instead of per match. Called
  /// after every dispatch and before every barrier acknowledges, so
  /// query_matches and the histogram count are exact at Flush.
  void PublishMatchTallies(Shard* shard, uint64_t now);
  /// Enqueues one ingest call's run for `shard` under the backpressure
  /// policy and leaves `run` empty for the caller's next call; returns
  /// the events dropped.
  uint64_t EnqueueRun(Shard* shard, ShardMsg* run);
  /// Drains the shard's reorder stage for `only` (every stream when -1)
  /// into its engines (stream end / flush barrier) and refreshes the
  /// shard's published reorder counters.
  void FlushReorder(Shard* shard, StreamId only);
  /// Sends a copy of `proto` (a control message) to each of the given
  /// shards and waits until every worker that got it has handled it.
  /// Returns false when any queue was already closed (runtime
  /// stopping), i.e. some worker never saw the message. Callers must NOT
  /// hold control_mu_: a worker can block on control_mu_ inside a
  /// MatchSink callback, and waiting on it here would deadlock.
  bool SyncShards(const std::vector<int>& shard_indices,
                  const ShardMsg& proto);
  std::vector<int> TargetShards(const QueryState& qs) const;

  RuntimeOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable zs::SharedMutex route_mu_;
  std::vector<StreamInfo> streams_ ZS_GUARDED_BY(route_mu_);

  mutable zs::Mutex control_mu_;  // queries_, registration round-robin
  std::unordered_map<QueryId, std::shared_ptr<QueryState>> queries_
      ZS_GUARDED_BY(control_mu_);
  /// Final match counts of unregistered queries, so
  /// zstream_matches_total never runs backwards when a query retires.
  uint64_t retired_matches_ ZS_GUARDED_BY(control_mu_) = 0;
  QueryId next_query_id_ ZS_GUARDED_BY(control_mu_) = 1;
  int next_pin_ ZS_GUARDED_BY(control_mu_) = 0;

  std::atomic<uint64_t> events_ingested_{0};
  /// Events ingested carrying a nonzero trace id (sampled locally or
  /// propagated from the wire).
  std::atomic<uint64_t> events_traced_{0};
  std::atomic<bool> stopped_{false};
  std::chrono::steady_clock::time_point start_time_;

  /// Per-runtime (not process-global) so concurrent runtimes — and
  /// tests — never see each other's series. Owns the per-query
  /// detection-latency histograms, written by shard workers in-line.
  obs::Registry registry_;

  /// Gates handed out by PauseShard; Stop() opens any still closed so a
  /// forgotten gate can never deadlock worker join.
  zs::Mutex gates_mu_;
  std::vector<std::weak_ptr<Gate>> gates_ ZS_GUARDED_BY(gates_mu_);
};

}  // namespace zstream::runtime

#endif  // ZSTREAM_RUNTIME_STREAM_RUNTIME_H_
