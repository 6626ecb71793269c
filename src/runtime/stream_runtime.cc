#include "runtime/stream_runtime.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/sync.h"
#include "exec/reorder.h"
#include "obs/trace.h"
#include "runtime/mpsc_queue.h"

namespace zstream::runtime {

// ---------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------

namespace {

/// How long a shard queue may take to drain before a blocking producer
/// waits: the bound on queue wait in front of every match. 1 ms keeps a
/// couple of typical runs queued (a 256-event run of paper Query 6 with
/// an adaptive engine and a digesting sink takes ~0.5 ms on a 4-vCPU
/// Xeon), so the worker always has the next run when it finishes one and
/// never waits on a producer's wake-up, while the wait a match sees
/// stays near a millisecond instead of a full 4096-event queue's ~8 ms.
constexpr uint64_t kDrainBudgetNs = 1'000'000;

/// Arrival barrier between the control plane and shard workers.
struct SyncPoint {
  void Arrive() {
    zs::MutexLock lock(mu);
    ++arrived;
    cv.NotifyAll();
  }
  void WaitFor(int n) {
    zs::MutexLock lock(mu);
    while (arrived < n) cv.Wait(mu);
  }

  zs::Mutex mu;
  zs::CondVar cv;
  int arrived ZS_GUARDED_BY(mu) = 0;
};

}  // namespace

void Gate::Park() {
  zs::MutexLock lock(mu_);
  parked_ = true;
  cv_.NotifyAll();
  while (!open_) cv_.Wait(mu_);
}

void Gate::WaitParked() {
  zs::MutexLock lock(mu_);
  while (!parked_) cv_.Wait(mu_);
}

void Gate::Open() {
  zs::MutexLock lock(mu_);
  open_ = true;
  cv_.NotifyAll();
}

/// A control message's payload. One instance is shared by every shard
/// the message goes to, so a control slot carries one pointer.
struct StreamRuntime::Control {
  std::shared_ptr<QueryState> query;  // kRegister/kUnregister/kCollectProfile
  std::shared_ptr<Gate> gate;         // kGate
  SyncPoint sync;                     // every kind but kGate
  /// kCollectProfile (EXPLAIN ANALYZE): each shard worker folds its
  /// engine's live plans in at a message boundary.
  zs::Mutex profile_mu;
  PlanProfiles live ZS_GUARDED_BY(profile_mu);
  uint64_t events_pushed ZS_GUARDED_BY(profile_mu) = 0;
};

/// One registered query. Engines are indexed by shard and driven only by
/// that shard's worker; everything cross-thread is atomic or immutable
/// after registration.
struct StreamRuntime::QueryState {
  QueryId id = 0;
  StreamId stream = -1;
  PatternPtr pattern;
  /// The registered plan; engines adapt away from it on their own.
  PhysicalPlan plan;
  int key_field = -1;  // the pattern's partition key field; -1: keyless
  int pinned_shard = 0;  // a keyless query's one shard
  MatchSink* sink = nullptr;
  std::atomic<uint64_t> matches{0};
  /// Matches counted on each shard since its last PublishMatchTallies;
  /// slot s is touched only by shard s's worker.
  struct alignas(64) ShardTally {
    uint64_t pending = 0;
  };
  std::vector<ShardTally> tallies;
  /// Metric label / slow-event log name ("q<id>" unless the caller set
  /// EngineOptions::label).
  std::string label;
  /// Ingest-to-emission latency for this query, owned by the runtime's
  /// registry (null only if registration raced Stop()).
  obs::Histogram* latency = nullptr;
  /// The estimated cost of the plan most engines run and the observed
  /// operator-pairs total — the predicted-vs-observed pair in /metrics.
  /// Both are refreshed at ExplainAnalyze barriers (the cost starts as
  /// the registered plan's).
  std::atomic<double> plan_cost{0.0};
  std::atomic<uint64_t> observed_pairs{0};
  /// Shared by every shard engine (MemoryTracker is thread-safe).
  std::unique_ptr<MemoryTracker> tracker;
  std::vector<std::unique_ptr<EngineCore>> engines;  // [shard] or null
};

/// One queue slot: a run of events or a control message.
struct StreamRuntime::ShardMsg {
  enum class Kind : char {
    kEvents,
    kRegister,
    kUnregister,
    kFinishAll,     // flush barrier: Finish every engine on the shard
    kCollectProfile,  // EXPLAIN ANALYZE: fold live plans at a barrier
    kGate,
  };

  Kind kind = Kind::kEvents;
  StreamId stream = -1;
  /// kEvents: the field every entry of `key_hashes` hashes; -1: none.
  int hashed_field = -1;
  /// kEvents: one ingest call's events for this shard, in order — a run.
  std::vector<EventPtr> events;
  /// kEvents: the router's key hashes, parallel to `events` (see
  /// ShardOf); empty when `hashed_field` is -1.
  std::vector<size_t> key_hashes;
  /// kEvents: MonotonicNanos at the ingest call — the start of the
  /// detection latency measured when the run's processing emits a match.
  uint64_t arrival_ns = 0;
  /// kEvents: trace id of the sampled ingest call (obs/trace.h); 0 =
  /// untraced. The shard worker sets it as the thread's current trace
  /// around dispatch.
  uint64_t trace_id = 0;
  std::shared_ptr<Control> control;

  /// Cuts the run to its first `n` events.
  void KeepFirst(size_t n) {
    events.resize(n);
    if (!key_hashes.empty()) key_hashes.resize(n);
  }
  /// Empties the slot for reuse; the vectors keep their capacity.
  void Clear() {
    events.clear();
    key_hashes.clear();
    control.reset();
  }
};

struct StreamRuntime::Shard {
  Shard(int idx, size_t capacity)
      : index(idx), queue(capacity, kDrainBudgetNs) {}

  int index;
  MpscRingQueue<ShardMsg> queue;
  std::thread thread;

  // Counters read by the control plane while the worker runs.
  std::atomic<uint64_t> events_processed{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> reorder_late{0};
  std::atomic<uint64_t> reorder_pending{0};

  // Worker-thread-local: engines hosted on this shard.
  struct Entry {
    QueryState* query;
    EngineCore* engine;
  };
  std::vector<Entry> entries;

  // Worker-thread-local: arrival stamp of the most recently dispatched
  // run. PublishMatchTallies measures detection latency from it: for
  // matches of a dispatch that is the triggering ingest; Finish-time
  // matches are measured from the last run the shard saw.
  uint64_t last_arrival_ns = 0;

  // Worker-thread-local: smoothed wall nanoseconds per event of the runs
  // this worker dispatched (engines and the sink calls they make
  // included), reported to the queue, whose blocking pushes wait at
  // kDrainBudgetNs of queued work. 0 until the first run.
  double drain_ns_per_event = 0;

  void RecordDrain(size_t events, uint64_t ns) {
    const double sample = static_cast<double>(ns) / static_cast<double>(events);
    // EWMA with weight 1/8: follows a regime change within a few dozen
    // runs, shrugs off one preempted run.
    drain_ns_per_event = drain_ns_per_event == 0
                             ? sample
                             : drain_ns_per_event +
                                   (sample - drain_ns_per_event) / 8;
    queue.SetDrainCost(
        std::max<uint64_t>(1, std::llround(drain_ns_per_event)));
  }

  // Worker-thread-local scratch for DispatchRun: the span a reorder
  // stage released, and the per-query filtered subset for hash-routed
  // queries. Reused across runs to stay allocation-free.
  std::vector<EventPtr> span_scratch;
  std::vector<EventPtr> filter_scratch;

  // Worker-thread-local: one Section-4.1 reorder stage per stream,
  // created lazily when RuntimeOptions::reorder_slack > 0. Sits between
  // the shard queue and the engines, so every engine on the shard sees
  // timestamp-ordered input even when producers interleave. The only
  // reorder stage in the system: engines drop late events.
  std::unordered_map<StreamId, ReorderStage> reorder;

  void PublishReorderCounters() {
    uint64_t late = 0;
    uint64_t pending = 0;
    for (const auto& [stream, stage] : reorder) {
      late += stage.late_dropped();
      pending += stage.pending();
    }
    reorder_late.store(late, std::memory_order_relaxed);
    reorder_pending.store(pending, std::memory_order_relaxed);
  }
};

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

StreamRuntime::StreamRuntime(const RuntimeOptions& options)
    : options_(options) {
  if (options_.num_shards <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options_.num_shards = hw == 0 ? 1 : static_cast<int>(hw);
  }
  options_.num_shards = std::min(options_.num_shards, 64);  // route bitmask
  start_time_ = std::chrono::steady_clock::now();
}

Result<std::unique_ptr<StreamRuntime>> StreamRuntime::Create(
    const RuntimeOptions& options) {
  if (options.queue_capacity < 2) {
    return Status::InvalidArgument(
        "queue_capacity must be >= 2 (events + control messages)");
  }
  auto runtime = std::unique_ptr<StreamRuntime>(new StreamRuntime(options));
  for (int s = 0; s < runtime->options_.num_shards; ++s) {
    runtime->shards_.push_back(
        std::make_unique<Shard>(s, runtime->options_.queue_capacity));
  }
  for (auto& shard : runtime->shards_) {
    Shard* raw = shard.get();
    raw->thread = std::thread([rt = runtime.get(), raw] {
      rt->WorkerLoop(raw);
    });
  }
  return runtime;
}

StreamRuntime::~StreamRuntime() { Stop(); }

void StreamRuntime::Stop() {
  if (stopped_.exchange(true)) return;
  for (auto& shard : shards_) shard->queue.Close();
  {
    // A worker parked at a forgotten PauseShard gate would never see
    // the queue close; open every outstanding gate before joining.
    zs::MutexLock lock(gates_mu_);
    for (const std::weak_ptr<Gate>& weak : gates_) {
      if (auto gate = weak.lock()) gate->Open();
    }
    gates_.clear();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

// ---------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------

ZS_HOT int StreamRuntime::ShardOf(int key_field, int pinned_shard,
                                  const Event& event, KeyHint* hint) const {
  if (key_field < 0) return pinned_shard;
  if (hint->field != key_field) {
    hint->field = key_field;
    hint->hash = event.value(key_field).Hash();
  }
  return static_cast<int>(hint->hash % shards_.size());
}

ZS_HOT void StreamRuntime::DispatchRun(Shard* shard, StreamId stream,
                                       const std::vector<EventPtr>& events,
                                       int hashed_field,
                                       const size_t* hashes) {
  for (Shard::Entry& entry : shard->entries) {
    const QueryState* q = entry.query;
    if (q->stream != stream) continue;
    if (q->key_field < 0) {
      // A keyless query's engine lives only on its pinned shard.
      entry.engine->PushBatch(EventBatch{events.data(), events.size()});
      continue;
    }
    // Several queries can route one event to this shard: keep only the
    // events whose key hashes here, reusing the router's hashes. In the
    // common case (every keyed query on the stream keyed on one field)
    // that is an integer compare, not a second Value::Hash.
    std::vector<EventPtr>& mine = shard->filter_scratch;
    mine.clear();
    for (size_t i = 0; i < events.size(); ++i) {
      KeyHint hint = hashed_field >= 0 ? KeyHint{hashed_field, hashes[i]}
                                       : KeyHint{};
      if (ShardOf(q->key_field, q->pinned_shard, *events[i], &hint) ==
          shard->index) {
        mine.push_back(events[i]);  // zs-hotpath-allow(amortized: scratch capacity reused across runs)
      }
    }
    if (!mine.empty()) {
      entry.engine->PushBatch(EventBatch{mine.data(), mine.size()});
    }
  }
}

ZS_HOT void StreamRuntime::PublishMatchTallies(Shard* shard, uint64_t now) {
  for (Shard::Entry& entry : shard->entries) {
    QueryState* q = entry.query;
    uint64_t& pending = q->tallies[static_cast<size_t>(shard->index)].pending;
    if (pending == 0) continue;
    q->matches.fetch_add(pending, std::memory_order_relaxed);
    if (q->latency != nullptr) {
      q->latency->Observe(now - shard->last_arrival_ns, pending);
    }
    pending = 0;
  }
}

void StreamRuntime::FlushReorder(Shard* shard, StreamId only) {
  std::vector<EventPtr>& span = shard->span_scratch;
  for (auto& [stream, stage] : shard->reorder) {
    if (only >= 0 && stream != only) continue;
    span.clear();
    stage.Flush(&span);
    if (!span.empty()) {
      DispatchRun(shard, stream, span, /*hashed_field=*/-1, nullptr);
    }
  }
  span.clear();
  shard->PublishReorderCounters();
}

ZS_HOT void StreamRuntime::WorkerLoop(Shard* shard) {
  const bool reordering = options_.reorder_slack > 0;
  // Spans recorded from this thread (queue wait, exec, operator, match)
  // land in the shard's own ring lane; lane 0 stays the control lane.
  obs::SetCurrentLane(static_cast<uint32_t>(1 + shard->index));
  // The slot being handled. Emptied, it goes back into the ring at the
  // next Pop, and a producer stages its next run in it.
  ShardMsg msg;
  while (shard->queue.Pop(&msg)) {
    shard->batches.fetch_add(1, std::memory_order_relaxed);
    switch (msg.kind) {
      case ShardMsg::Kind::kEvents: {
        // A run: one ingest call's events for this shard, one arrival
        // stamp and one trace id. It reaches the engines as one span,
        // directly or through the stream's reorder stage, and its wall
        // time feeds the shard's drain estimate.
        const size_t n = msg.events.size();
        // Matches the run emits (including the reorder releases it
        // triggers) measure latency from its arrival.
        shard->last_arrival_ns = msg.arrival_ns;
        obs::SetCurrentTrace(msg.trace_id);
        const uint64_t start = obs::MonotonicNanos();
        if (msg.trace_id != 0) {
          // Queue residency: enqueue stamp to dequeue, on this shard's
          // lane.
          obs::TraceRecord(obs::CurrentLane(), obs::SpanKind::kQueueWait,
                           msg.trace_id, msg.arrival_ns, start, nullptr,
                           static_cast<uint64_t>(shard->index));
        }
        if (reordering) {
          // Released events lose their router key hashes: they may mix
          // runs, so keyed queries re-hash them in DispatchRun.
          std::vector<EventPtr>& span = shard->span_scratch;
          ReorderStage& stage =
              shard->reorder.try_emplace(msg.stream, options_.reorder_slack)
                  .first->second;
          for (EventPtr& event : msg.events) {
            stage.Push(std::move(event), &span);
          }
          if (!span.empty()) {
            DispatchRun(shard, msg.stream, span, /*hashed_field=*/-1,
                        nullptr);
          }
          span.clear();
          shard->PublishReorderCounters();
        } else {
          DispatchRun(shard, msg.stream, msg.events, msg.hashed_field,
                      msg.key_hashes.data());
        }
        const uint64_t end = obs::MonotonicNanos();
        PublishMatchTallies(shard, end);
        shard->RecordDrain(n, end - start);
        obs::SetCurrentTrace(0);
        shard->events_processed.fetch_add(n, std::memory_order_relaxed);
        break;
      }
      case ShardMsg::Kind::kRegister: {
        QueryState* q = msg.control->query.get();
        EngineCore* engine =
            q->engines[static_cast<size_t>(shard->index)].get();
        shard->entries.push_back(Shard::Entry{q, engine});
        msg.control->sync.Arrive();
        break;
      }
      case ShardMsg::Kind::kUnregister: {
        const QueryState* q = msg.control->query.get();
        auto it = std::find_if(
            shard->entries.begin(), shard->entries.end(),
            [q](const Shard::Entry& e) { return e.query == q; });
        if (it != shard->entries.end()) {
          // Release the stream's reorder buffer first so the final
          // match count covers everything ingested before the retire.
          // Side effect (as at the kFinishAll barrier): other queries on
          // the stream see those events now, and later arrivals below
          // the flushed frontier count as late.
          if (reordering) FlushReorder(shard, q->stream);
          it->engine->Finish();  // deliver pending matches first
          PublishMatchTallies(shard, obs::MonotonicNanos());
          shard->entries.erase(it);
        }
        msg.control->sync.Arrive();
        break;
      }
      case ShardMsg::Kind::kFinishAll: {
        // Release everything still buffered in the reorder stages first,
        // so the barrier's promise ("every event enqueued before this
        // call is processed") covers them. Events arriving after the
        // barrier with timestamps below the flush point count as late.
        if (reordering) FlushReorder(shard, /*only=*/-1);
        for (Shard::Entry& entry : shard->entries) entry.engine->Finish();
        PublishMatchTallies(shard, obs::MonotonicNanos());
        msg.control->sync.Arrive();
        break;
      }
      case ShardMsg::Kind::kCollectProfile: {
        Control* ctl = msg.control.get();
        for (Shard::Entry& entry : shard->entries) {
          if (entry.query != ctl->query.get()) continue;
          PlanProfiles part = entry.engine->Profile();
          const uint64_t pushed = entry.engine->events_pushed();
          zs::MutexLock lock(ctl->profile_mu);
          ctl->events_pushed += pushed;
          FoldPlanProfiles(&ctl->live, std::move(part));
        }
        ctl->sync.Arrive();
        break;
      }
      case ShardMsg::Kind::kGate: {
        msg.control->gate->Park();
        break;
      }
    }
    msg.Clear();
  }
  // Queue closed and drained: flush so counters and sinks are complete.
  if (reordering) FlushReorder(shard, /*only=*/-1);
  for (Shard::Entry& entry : shard->entries) entry.engine->Finish();
  PublishMatchTallies(shard, obs::MonotonicNanos());
}

// ---------------------------------------------------------------------
// Streams and routing
// ---------------------------------------------------------------------

Result<StreamId> StreamRuntime::AddStream(const std::string& name,
                                          SchemaPtr schema) {
  if (schema == nullptr) {
    return Status::InvalidArgument("stream schema must not be null");
  }
  zs::WriterMutexLock lock(route_mu_);
  for (const StreamInfo& info : streams_) {
    if (info.name == name) {
      return Status::InvalidArgument("stream '" + name +
                                     "' already exists");
    }
  }
  streams_.push_back(StreamInfo{name, std::move(schema), {}});
  return static_cast<StreamId>(streams_.size() - 1);
}

Result<StreamId> StreamRuntime::stream(const std::string& name) const {
  zs::ReaderMutexLock lock(route_mu_);
  for (size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].name == name) return static_cast<StreamId>(i);
  }
  return Status::NotFound("no stream named '" + name + "'");
}

std::vector<std::string> StreamRuntime::StreamNames() const {
  zs::ReaderMutexLock lock(route_mu_);
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const StreamInfo& info : streams_) names.push_back(info.name);
  return names;
}

Result<SchemaPtr> StreamRuntime::schema(StreamId stream) const {
  zs::ReaderMutexLock lock(route_mu_);
  if (stream < 0 || static_cast<size_t>(stream) >= streams_.size()) {
    return Status::NotFound("unknown stream id");
  }
  return streams_[static_cast<size_t>(stream)].schema;
}

// ---------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------

bool StreamRuntime::Ingest(StreamId stream, const EventPtr& event) {
  return IngestBatch(stream, std::span<const EventPtr>(&event, 1)) == 0;
}

uint64_t StreamRuntime::IngestBatch(StreamId stream,
                                    std::span<const EventPtr> events) {
  return IngestBatch(stream, events, obs::TraceSampleBatch());
}

ZS_HOT uint64_t StreamRuntime::IngestBatch(StreamId stream,
                                           std::span<const EventPtr> events,
                                           uint64_t trace_id) {
  if (stopped_.load(std::memory_order_relaxed)) return events.size();
  // One stamp per batch: latency for a batch's matches is measured from
  // the batch's enqueue, which is what a producer of that batch observes.
  const uint64_t arrival_ns = obs::MonotonicNanos();
  // Per-thread staging, one run per shard: every call leaves them empty
  // and the next reuses their capacity (or the capacity of the emptied
  // slot a push handed back).
  thread_local std::vector<ShardMsg> staged;
  if (staged.size() < shards_.size()) {
    staged.resize(shards_.size());  // zs-hotpath-allow(once per thread)
  }
  uint64_t refused = 0;
  {
    zs::ReaderMutexLock lock(route_mu_);
    if (stream < 0 || static_cast<size_t>(stream) >= streams_.size()) {
      return events.size();
    }
    const std::vector<RouteEntry>& routes =
        streams_[static_cast<size_t>(stream)].routes;
    for (const EventPtr& event : events) {
      if (event == nullptr) {
        ++refused;
        continue;
      }
      uint64_t mask = 0;
      KeyHint hint;
      for (const RouteEntry& route : routes) {
        mask |= 1ULL << ShardOf(route.key_field, route.pinned_shard, *event,
                                &hint);
      }
      // The routes are the same for every event of the call, so the
      // field the hint ends on is too: one hashed_field per run.
      for (size_t s = 0; mask != 0; ++s, mask >>= 1) {
        if ((mask & 1) == 0) continue;
        ShardMsg& run = staged[s];
        run.events.push_back(event);  // zs-hotpath-allow(amortized: run capacity recycled through the shard queue)
        run.hashed_field = hint.field;
        if (hint.field >= 0) {
          run.key_hashes.push_back(hint.hash);  // zs-hotpath-allow(amortized: run capacity recycled through the shard queue)
        }
      }
    }
  }
  const uint64_t accepted = events.size() - refused;
  events_ingested_.fetch_add(accepted, std::memory_order_relaxed);
  if (trace_id != 0) {
    events_traced_.fetch_add(accepted, std::memory_order_relaxed);
  }
  uint64_t drops = refused;
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardMsg& run = staged[s];
    if (run.events.empty()) continue;
    run.kind = ShardMsg::Kind::kEvents;
    run.stream = stream;
    run.arrival_ns = arrival_ns;
    run.trace_id = trace_id;
    drops += EnqueueRun(shards_[s].get(), &run);
  }
  return drops;
}

ZS_HOT uint64_t StreamRuntime::EnqueueRun(Shard* shard, ShardMsg* run) {
  MpscRingQueue<ShardMsg>& queue = shard->queue;
  const size_t n = run->events.size();
  uint64_t dropped = 0;
  if (options_.backpressure == BackpressurePolicy::kDropNewest) {
    // Only the capacity drops: the events that do not fit are the tail.
    dropped = n - queue.TryPush(run, n, [](ShardMsg* m, size_t keep) {
                m->KeepFirst(keep);
              });
    if (dropped != 0) {
      shard->dropped.fetch_add(dropped, std::memory_order_relaxed);
    }
  } else if (n <= queue.capacity()) {
    // Push falls short only when the runtime stopped.
    if (!queue.Push(run, n)) dropped = n;
  } else {
    // Bigger than the whole queue: capacity-sized slots, in order.
    const size_t cap = queue.capacity();
    ShardMsg chunk;
    for (size_t at = 0; at < n && dropped == 0; at += cap) {
      const size_t len = std::min(cap, n - at);
      const auto first = static_cast<std::ptrdiff_t>(at);
      const auto last = static_cast<std::ptrdiff_t>(at + len);
      chunk.kind = run->kind;
      chunk.stream = run->stream;
      chunk.hashed_field = run->hashed_field;
      chunk.arrival_ns = run->arrival_ns;
      chunk.trace_id = run->trace_id;
      chunk.events.assign(  // zs-hotpath-allow(only calls bigger than the whole queue; later chunks reuse the slot a push handed back)
          run->events.begin() + first, run->events.begin() + last);
      if (!run->key_hashes.empty()) {
        chunk.key_hashes.assign(  // zs-hotpath-allow(as for events)
            run->key_hashes.begin() + first, run->key_hashes.begin() + last);
      }
      if (!queue.Push(&chunk, len)) dropped = n - at;
      chunk.Clear();
    }
  }
  run->Clear();
  return dropped;
}

// ---------------------------------------------------------------------
// Query registration
// ---------------------------------------------------------------------

std::vector<int> StreamRuntime::TargetShards(const QueryState& qs) const {
  std::vector<int> out;
  if (qs.key_field < 0) {
    out.push_back(qs.pinned_shard);
  } else {
    for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
      out.push_back(s);
    }
  }
  return out;
}

bool StreamRuntime::SyncShards(const std::vector<int>& shard_indices,
                               const ShardMsg& proto) {
  int delivered = 0;
  for (int s : shard_indices) {
    ShardMsg msg = proto;  // shares proto.control
    if (shards_[static_cast<size_t>(s)]->queue.Push(&msg)) ++delivered;
  }
  proto.control->sync.WaitFor(delivered);
  return delivered == static_cast<int>(shard_indices.size());
}

Result<QueryId> StreamRuntime::RegisterQuery(StreamId stream,
                                             const std::string& text,
                                             const CompileOptions& compile,
                                             const QueryOptions& options) {
  ZS_ASSIGN_OR_RETURN(SchemaPtr bound, schema(stream));
  ZS_ASSIGN_OR_RETURN(PatternPtr pattern,
                      AnalyzeQuery(text, bound, compile.analyzer));
  ZS_ASSIGN_OR_RETURN(PhysicalPlan plan, BuildPlan(pattern, compile));
  return RegisterQuery(stream, std::move(pattern), plan, compile.engine,
                       options);
}

Result<QueryId> StreamRuntime::RegisterQuery(
    StreamId stream, PatternPtr pattern, const PhysicalPlan& plan,
    const EngineOptions& engine_options, const QueryOptions& options) {
  ZS_RETURN_IF_ERROR(schema(stream).status());
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("runtime is stopped");
  }

  // NOTE: control_mu_ is only held for id reservation and the final map
  // insert — never across SyncShards. A worker can block on control_mu_
  // through a MatchSink callback (sink -> query_matches), so waiting on
  // workers while holding it would deadlock.
  auto qs = std::make_shared<QueryState>();
  QueryState* q = qs.get();
  {
    zs::MutexLock control(control_mu_);
    q->id = next_query_id_++;
    if (!pattern->partition.has_value()) {
      q->pinned_shard = next_pin_++ % static_cast<int>(shards_.size());
    }
  }
  qs->stream = stream;
  qs->pattern = pattern;
  qs->plan = plan;
  qs->sink = options.sink;
  qs->tracker = std::make_unique<MemoryTracker>();
  qs->engines.resize(shards_.size());
  qs->tallies.resize(shards_.size());
  if (pattern->partition.has_value()) {
    qs->key_field = pattern->partition->field_indices.front();
  }

  EngineOptions eopts = engine_options;
  if (eopts.slow_event_ns == 0) eopts.slow_event_ns = options_.slow_event_ns;
  qs->label = eopts.label.empty() ? "q" + std::to_string(qs->id)
                                  : eopts.label;
  eopts.label = qs->label;
  qs->plan_cost.store(plan.estimated_cost, std::memory_order_relaxed);
  qs->latency = registry_.GetHistogram(
      "zstream_detection_latency_seconds", {{"query", qs->label}},
      "Ingest-to-emission latency of each match", 1e-9);

  const std::vector<int> targets = TargetShards(*qs);
  for (int s : targets) {
    std::unique_ptr<EngineCore> engine;
    if (pattern->partition.has_value()) {
      ZS_ASSIGN_OR_RETURN(auto pe, PartitionedEngine::Create(
                                       pattern, plan, eopts,
                                       qs->tracker.get()));
      engine = std::move(pe);
    } else {
      ZS_ASSIGN_OR_RETURN(auto se, Engine::Create(pattern, plan, eopts,
                                                  qs->tracker.get()));
      engine = std::move(se);
    }
    // Counted on the worker thread; PublishMatchTallies folds the tally
    // into the shared counter and latency histogram once per dispatch.
    engine->SetMatchCallback(
        [id = qs->id, s, sink = options.sink,
         tally = &qs->tallies[static_cast<size_t>(s)]](Match&& m) {
          ++tally->pending;
          if (sink != nullptr) {
            // Published on the worker thread, so the thread-local trace
            // id still names the sampled ingest that emitted this match;
            // fanout/delivery spans downstream join the same trace.
            sink->Publish(
                RuntimeMatch{id, s, obs::CurrentTraceId(), std::move(m)});
          }
        });
    qs->engines[static_cast<size_t>(s)] = std::move(engine);
  }

  // Install on every target shard; barrier so events ingested after we
  // return are guaranteed to be evaluated.
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kRegister;
  msg.control = std::make_shared<Control>();
  msg.control->query = qs;
  if (!SyncShards(targets, msg)) {
    // Stop() raced with us: some worker never installed the engine, so
    // the registration guarantee cannot hold. Nothing was published;
    // qs (and its engines, which no worker ever saw) die here.
    return Status::FailedPrecondition("runtime stopped during register");
  }

  // Only now publish the route: nothing can reach a shard that has not
  // installed the engine yet.
  {
    zs::WriterMutexLock lock(route_mu_);
    streams_[static_cast<size_t>(stream)].routes.push_back(
        RouteEntry{qs->id, qs->key_field, qs->pinned_shard});
  }
  const QueryId id = qs->id;
  {
    zs::MutexLock control(control_mu_);
    queries_.emplace(id, std::move(qs));
  }
  return id;
}

Result<uint64_t> StreamRuntime::UnregisterQuery(QueryId id) {
  std::shared_ptr<QueryState> qs;
  {
    zs::MutexLock control(control_mu_);
    auto it = queries_.find(id);
    if (it == queries_.end()) {
      return Status::NotFound("no query with that id");
    }
    qs = it->second;
  }
  {
    zs::WriterMutexLock lock(route_mu_);
    auto& routes = streams_[static_cast<size_t>(qs->stream)].routes;
    routes.erase(std::remove_if(routes.begin(), routes.end(),
                                [id](const RouteEntry& e) {
                                  return e.query == id;
                                }),
                 routes.end());
  }
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kUnregister;
  msg.control = std::make_shared<Control>();
  msg.control->query = qs;
  if (!SyncShards(TargetShards(*qs), msg)) {
    // Runtime is stopping: some worker never processed the retire
    // message and may still touch the engines while draining. Leave the
    // QueryState registered so the engines outlive the workers (they
    // are destroyed with the runtime, after Stop() joins).
    return Status::FailedPrecondition(
        "runtime stopped while unregistering; query retired with it");
  }
  const uint64_t final_matches = qs->matches.load(std::memory_order_relaxed);
  {
    zs::MutexLock control(control_mu_);
    queries_.erase(id);
    // The runtime-wide matches total stays monotone, and the query's
    // own series leave the registry so a later query under the same
    // label starts from zero (unless a live query still shares it).
    retired_matches_ += final_matches;
    const bool label_in_use = std::any_of(
        queries_.begin(), queries_.end(),
        [&](const auto& entry) { return entry.second->label == qs->label; });
    if (!label_in_use) registry_.RemoveSeriesLabeled("query", qs->label);
  }
  return final_matches;
}

// ---------------------------------------------------------------------
// Barriers and diagnostics
// ---------------------------------------------------------------------

Status StreamRuntime::Flush() {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("runtime is stopped");
  }
  // No control_mu_ here: shards_ is immutable after Create, and a
  // worker's Finish -> MatchSink callback may itself take control_mu_
  // via an accessor (query_matches, UpdateMetrics).
  std::vector<int> all;
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    all.push_back(s);
  }
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kFinishAll;
  msg.control = std::make_shared<Control>();
  SyncShards(all, msg);
  return Status::OK();
}

Result<uint64_t> StreamRuntime::query_matches(QueryId id) const {
  zs::MutexLock control(control_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) return Status::NotFound("no query with that id");
  return it->second->matches.load(std::memory_order_relaxed);
}

Result<int64_t> StreamRuntime::query_peak_bytes(QueryId id) const {
  zs::MutexLock control(control_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) return Status::NotFound("no query with that id");
  return it->second->tracker->peak_bytes();
}

Result<int> StreamRuntime::query_shard_count(QueryId id) const {
  zs::MutexLock control(control_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) return Status::NotFound("no query with that id");
  return static_cast<int>(TargetShards(*it->second).size());
}

Result<std::string> StreamRuntime::ExplainAnalyze(QueryId id) {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("runtime is stopped");
  }
  std::shared_ptr<QueryState> qs;
  {
    zs::MutexLock control(control_mu_);
    auto it = queries_.find(id);
    if (it == queries_.end()) {
      return Status::NotFound("no query with that id");
    }
    qs = it->second;
  }
  QueryState* q = qs.get();
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kCollectProfile;
  msg.control = std::make_shared<Control>();
  msg.control->query = qs;
  if (!SyncShards(TargetShards(*qs), msg)) {
    return Status::FailedPrecondition("runtime stopped during profile");
  }

  // The SyncShards barrier ordered the workers' profile writes before
  // this point; the uncontended lock makes that visible to the analysis.
  PlanProfiles live;
  uint64_t events_pushed = 0;
  {
    Control* ctl = msg.control.get();
    zs::MutexLock lock(ctl->profile_mu);
    live = std::move(ctl->live);
    events_pushed = ctl->events_pushed;
  }
  uint64_t pairs = 0;
  for (const PlanProfile& p : live) pairs += p.root.TotalPairs();
  const double cost =
      live.empty() ? q->plan.estimated_cost : live.front().estimated_cost;
  q->observed_pairs.store(pairs, std::memory_order_relaxed);
  q->plan_cost.store(cost, std::memory_order_relaxed);

  std::ostringstream os;
  os << "query=" << q->label << " plan="
     << (live.empty() ? q->plan.Explain(*q->pattern) : live.front().plan);
  os.precision(6);
  os << " cost_est=" << cost << " observed_pairs=" << pairs << " shards="
     << TargetShards(*qs).size() << "\n";
  os << "events_pushed=" << events_pushed << " matches="
     << q->matches.load(std::memory_order_relaxed) << "\n";
  if (live.empty()) {
    os << "(no engine profile collected)\n";
  } else {
    os << RenderPlanProfiles(live);
  }
  return os.str();
}

void StreamRuntime::UpdateMetrics() {
  obs::Registry& reg = registry_;
  reg.GetGauge("zstream_uptime_seconds", {},
               "Seconds since the runtime was created")
      ->Set(static_cast<int64_t>(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_time_)
              .count()));
  reg.GetCounter("zstream_events_ingested_total", {},
                 "Events accepted by Ingest/IngestBatch")
      ->Store(events_ingested_.load(std::memory_order_relaxed));
  reg.GetCounter("zstream_events_traced_total", {},
                 "Events ingested carrying a sampled trace id")
      ->Store(events_traced_.load(std::memory_order_relaxed));
  for (const auto& shard : shards_) {
    const obs::Labels labels = {{"shard", std::to_string(shard->index)}};
    reg.GetCounter("zstream_shard_events_processed_total", labels,
                   "Events dispatched to engines, per shard")
        ->Store(shard->events_processed.load(std::memory_order_relaxed));
    reg.GetCounter("zstream_shard_batches_total", labels,
                   "Queue slots popped (one per ingest call's run or "
                   "control message), per shard")
        ->Store(shard->batches.load(std::memory_order_relaxed));
    reg.GetCounter("zstream_shard_events_dropped_total", labels,
                   "Events dropped on a full queue (kDropNewest)")
        ->Store(shard->dropped.load(std::memory_order_relaxed));
    reg.GetCounter("zstream_shard_reorder_late_total", labels,
                   "Events dropped for arriving beyond the reorder slack")
        ->Store(shard->reorder_late.load(std::memory_order_relaxed));
    reg.GetGauge("zstream_shard_queue_depth", labels,
                 "Events (and control messages) waiting in the shard's "
                 "queue")
        ->Set(static_cast<int64_t>(shard->queue.size()));
    reg.GetGauge("zstream_shard_drain_ns_per_event", labels,
                 "The shard worker's smoothed wall time per event, sink "
                 "included; blocking ingest waits at 1 ms of queued "
                 "events at this cost (0 until its first run)")
        ->Set(static_cast<int64_t>(shard->queue.drain_cost()));
    reg.GetGauge("zstream_shard_reorder_pending", labels,
                 "Events buffered in the shard's reorder stages")
        ->Set(static_cast<int64_t>(
            shard->reorder_pending.load(std::memory_order_relaxed)));
  }
  // Under control_mu_ so UnregisterQuery's retire (tally + series
  // removal) is never interleaved with this mirror: a retired query's
  // series cannot be re-created here, and the matches total moves from
  // the live sum to the retired tally in one step.
  zs::MutexLock control(control_mu_);
  uint64_t matches = retired_matches_;
  for (const auto& [qid, qs] : queries_) {
    const uint64_t query_matches = qs->matches.load(std::memory_order_relaxed);
    matches += query_matches;
    const obs::Labels labels = {{"query", qs->label}};
    reg.GetCounter("zstream_query_matches_total", labels,
                   "Matches emitted by the query")
        ->Store(query_matches);
    reg.GetGauge("zstream_query_plan_cost_estimate", labels,
                 "Estimated cost of the plan most of the query's "
                 "engines run (rounded; refreshed at ExplainAnalyze "
                 "barriers)")
        ->Set(static_cast<int64_t>(
            qs->plan_cost.load(std::memory_order_relaxed)));
    reg.GetCounter("zstream_query_pairs_observed_total", labels,
                   "Operator input combinations tried (refreshed at "
                   "ExplainAnalyze barriers)")
        ->Store(qs->observed_pairs.load(std::memory_order_relaxed));
    reg.GetGauge("zstream_query_peak_bytes", labels,
                 "Peak tracked engine memory across the query's shards")
        ->Set(qs->tracker->peak_bytes());
  }
  reg.GetCounter("zstream_matches_total", {},
                 "Matches emitted by every query this runtime has served, "
                 "unregistered ones included")
      ->Store(matches);
  reg.GetGauge("zstream_queries", {}, "Currently registered queries")
      ->Set(static_cast<int64_t>(queries_.size()));
}

std::string StreamRuntime::MetricsPrometheus() {
  UpdateMetrics();
  return registry_.RenderPrometheus();
}

std::string StreamRuntime::MetricsJson() {
  UpdateMetrics();
  return registry_.RenderJson();
}

std::shared_ptr<Gate> StreamRuntime::PauseShard(int shard) {
  if (shard < 0 || static_cast<size_t>(shard) >= shards_.size() ||
      stopped_.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  auto gate = std::make_shared<Gate>();
  {
    zs::MutexLock lock(gates_mu_);
    gates_.push_back(gate);
  }
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kGate;
  msg.control = std::make_shared<Control>();
  msg.control->gate = gate;
  if (!shards_[static_cast<size_t>(shard)]->queue.Push(&msg)) {
    return nullptr;
  }
  return gate;
}

}  // namespace zstream::runtime
