#include "runtime/stream_runtime.h"

#include <algorithm>
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

/// Count-down barrier between the control plane and shard workers.
struct SyncPoint {
  explicit SyncPoint(int n) : remaining(n) {}

  void Arrive() {
    zs::MutexLock lock(mu);
    if (--remaining <= 0) cv.NotifyAll();
  }
  void Wait() {
    zs::MutexLock lock(mu);
    while (remaining > 0) cv.Wait(mu);
  }

  zs::Mutex mu;
  zs::CondVar cv;
  int remaining ZS_GUARDED_BY(mu);
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

/// Profile collection rendezvous for ExplainAnalyze: each shard worker
/// folds its engine's live plans in at a message boundary.
struct StreamRuntime::ProfileCtx {
  zs::Mutex mu;
  PlanProfiles live ZS_GUARDED_BY(mu);
  uint64_t events_pushed ZS_GUARDED_BY(mu) = 0;
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

struct StreamRuntime::ShardMsg {
  enum class Kind : char {
    kEvent,
    kRegister,
    kUnregister,
    kFinishAll,     // flush barrier: Finish every engine on the shard
    kCollectProfile,  // EXPLAIN ANALYZE: fold live plans at a barrier
    kGate,
  };

  Kind kind = Kind::kEvent;
  StreamId stream = -1;
  EventPtr event;
  /// kEvent: MonotonicNanos at Ingest — the start of the detection
  /// latency measured when this event's processing emits a match.
  uint64_t arrival_ns = 0;
  /// kEvent: trace id of the sampled ingest batch this event belongs
  /// to (obs/trace.h); 0 = untraced. The shard worker sets it as the
  /// thread's current trace around dispatch.
  uint64_t trace_id = 0;
  /// kEvent: the key hash the router computed (see ShardOf).
  KeyHint key_hint;
  std::shared_ptr<QueryState> query;
  std::shared_ptr<SyncPoint> sync;
  std::shared_ptr<ProfileCtx> profile;
  std::shared_ptr<Gate> gate;
};

struct StreamRuntime::Shard {
  Shard(int idx, size_t capacity) : index(idx), queue(capacity) {}

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
  // event. PublishMatchTallies measures detection latency from it: for
  // matches of a dispatch that is the triggering ingest; Finish-time
  // matches are measured from the last event the shard saw.
  uint64_t last_arrival_ns = 0;

  // Worker-thread-local scratch for DispatchRun: the contiguous event
  // span handed to PushBatch (a run, or what a reorder stage released),
  // and the per-query filtered subset for hash-routed queries. Reused
  // across runs to stay allocation-free.
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
  if (options_.shard_batch_size < 1) options_.shard_batch_size = 1;
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
                                       const ShardMsg* hints) {
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
      KeyHint hint = hints != nullptr ? hints[i].key_hint : KeyHint{};
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

ZS_HOT void StreamRuntime::PublishMatchTallies(Shard* shard) {
  uint64_t now = 0;
  for (Shard::Entry& entry : shard->entries) {
    QueryState* q = entry.query;
    uint64_t& pending = q->tallies[static_cast<size_t>(shard->index)].pending;
    if (pending == 0) continue;
    q->matches.fetch_add(pending, std::memory_order_relaxed);
    if (q->latency != nullptr) {
      if (now == 0) now = obs::MonotonicNanos();
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
    if (!span.empty()) DispatchRun(shard, stream, span, /*hints=*/nullptr);
  }
  span.clear();
  shard->PublishReorderCounters();
}

ZS_HOT void StreamRuntime::WorkerLoop(Shard* shard) {
  const bool reordering = options_.reorder_slack > 0;
  // Spans recorded from this thread (queue wait, exec, operator, match)
  // land in the shard's own ring lane; lane 0 stays the control lane.
  obs::SetCurrentLane(static_cast<uint32_t>(1 + shard->index));
  std::vector<ShardMsg> batch;
  batch.reserve(static_cast<size_t>(options_.shard_batch_size));
  while (shard->queue.PopBatch(&batch,
                               static_cast<size_t>(
                                   options_.shard_batch_size)) > 0) {
    shard->batches.fetch_add(1, std::memory_order_relaxed);
    for (size_t bi = 0; bi < batch.size(); ++bi) {
      ShardMsg& msg = batch[bi];
      switch (msg.kind) {
        case ShardMsg::Kind::kEvent: {
          // A run: consecutive events of one stream, one ingest batch
          // (arrival stamp) and one trace id. It reaches the engines as
          // one span, directly or through the stream's reorder stage.
          size_t run_end = bi + 1;
          while (run_end < batch.size() &&
                 batch[run_end].kind == ShardMsg::Kind::kEvent &&
                 batch[run_end].stream == msg.stream &&
                 batch[run_end].trace_id == msg.trace_id &&
                 batch[run_end].arrival_ns == msg.arrival_ns) {
            ++run_end;
          }
          // Matches the run emits (including the reorder releases it
          // triggers) measure latency from its arrival.
          shard->last_arrival_ns = msg.arrival_ns;
          obs::SetCurrentTrace(msg.trace_id);
          if (msg.trace_id != 0) {
            // Queue residency: enqueue stamp to dequeue, on this shard's
            // lane. The dominant latency contributor under load.
            obs::TraceRecord(obs::CurrentLane(), obs::SpanKind::kQueueWait,
                             msg.trace_id, msg.arrival_ns,
                             obs::MonotonicNanos(), nullptr,
                             static_cast<uint64_t>(shard->index));
          }
          std::vector<EventPtr>& span = shard->span_scratch;
          span.clear();
          if (reordering) {
            // Released events lose their router key hints: they may mix
            // runs, so keyed queries re-hash them in DispatchRun.
            ReorderStage& stage =
                shard->reorder.try_emplace(msg.stream, options_.reorder_slack)
                    .first->second;
            for (size_t i = bi; i < run_end; ++i) {
              stage.Push(std::move(batch[i].event), &span);
            }
            if (!span.empty()) {
              DispatchRun(shard, msg.stream, span, /*hints=*/nullptr);
            }
          } else {
            for (size_t i = bi; i < run_end; ++i) {
              span.push_back(std::move(batch[i].event));  // zs-hotpath-allow(amortized: scratch capacity reused across runs)
            }
            DispatchRun(shard, msg.stream, span, &batch[bi]);
          }
          span.clear();
          PublishMatchTallies(shard);
          obs::SetCurrentTrace(0);
          shard->events_processed.fetch_add(run_end - bi,
                                            std::memory_order_relaxed);
          bi = run_end - 1;
          break;
        }
        case ShardMsg::Kind::kRegister: {
          EngineCore* engine =
              msg.query->engines[static_cast<size_t>(shard->index)].get();
          shard->entries.push_back(Shard::Entry{msg.query.get(), engine});
          msg.sync->Arrive();
          break;
        }
        case ShardMsg::Kind::kUnregister: {
          const QueryId id = msg.query->id;
          auto it = std::find_if(
              shard->entries.begin(), shard->entries.end(),
              [id](const Shard::Entry& e) { return e.query->id == id; });
          if (it != shard->entries.end()) {
            // Release the stream's reorder buffer first so the final
            // match count covers everything ingested before the
            // retire. Side effect (as at the kFinishAll barrier):
            // other queries on the stream see those events now, and
            // later arrivals below the flushed frontier count as late.
            if (reordering) FlushReorder(shard, msg.query->stream);
            it->engine->Finish();  // deliver pending matches first
            PublishMatchTallies(shard);
            shard->entries.erase(it);
          }
          msg.sync->Arrive();
          break;
        }
        case ShardMsg::Kind::kFinishAll: {
          // Release everything still buffered in the reorder stages
          // first, so the barrier's promise ("every event enqueued
          // before this call is processed") covers them. Events
          // arriving after the barrier with timestamps below the flush
          // point count as late.
          if (reordering) FlushReorder(shard, /*only=*/-1);
          for (Shard::Entry& entry : shard->entries) entry.engine->Finish();
          PublishMatchTallies(shard);
          msg.sync->Arrive();
          break;
        }
        case ShardMsg::Kind::kCollectProfile: {
          const QueryId id = msg.query->id;
          for (Shard::Entry& entry : shard->entries) {
            if (entry.query->id != id) continue;
            ProfileCtx* ctx = msg.profile.get();
            PlanProfiles part = entry.engine->Profile();
            const uint64_t pushed = entry.engine->events_pushed();
            zs::MutexLock lock(ctx->mu);
            ctx->events_pushed += pushed;
            FoldPlanProfiles(&ctx->live, std::move(part));
          }
          msg.sync->Arrive();
          break;
        }
        case ShardMsg::Kind::kGate: {
          msg.gate->Park();
          break;
        }
      }
    }
    if (reordering) shard->PublishReorderCounters();
  }
  // Queue closed and drained: flush so counters and sinks are complete.
  if (reordering) FlushReorder(shard, /*only=*/-1);
  for (Shard::Entry& entry : shard->entries) entry.engine->Finish();
  PublishMatchTallies(shard);
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
  // Per-thread staging, one message vector per shard: every call leaves
  // them empty and the next reuses their capacity.
  thread_local std::vector<std::vector<ShardMsg>> staged;
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
      for (size_t s = 0; mask != 0; ++s, mask >>= 1) {
        if ((mask & 1) == 0) continue;
        ShardMsg msg;
        msg.kind = ShardMsg::Kind::kEvent;
        msg.stream = stream;
        msg.event = event;
        msg.arrival_ns = arrival_ns;
        msg.trace_id = trace_id;
        msg.key_hint = hint;
        staged[s].push_back(std::move(msg));  // zs-hotpath-allow(amortized: staging capacity reused across calls)
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
    std::vector<ShardMsg>& msgs = staged[s];
    if (msgs.empty()) continue;
    if (options_.backpressure == BackpressurePolicy::kBlock) {
      // PushAll falls short only when the runtime stopped mid-batch.
      drops += msgs.size() - shards_[s]->queue.PushAll(&msgs);
    } else {
      for (ShardMsg& msg : msgs) {
        if (!shards_[s]->queue.TryPush(std::move(msg))) {
          shards_[s]->dropped.fetch_add(1, std::memory_order_relaxed);
          ++drops;
        }
      }
    }
    msgs.clear();
  }
  return drops;
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
                               ShardMsg&& proto) {
  auto sync = std::make_shared<SyncPoint>(
      static_cast<int>(shard_indices.size()));
  proto.sync = sync;
  bool all_delivered = true;
  for (int s : shard_indices) {
    ShardMsg msg = proto;  // shared_ptr copies
    if (!shards_[static_cast<size_t>(s)]->queue.Push(std::move(msg))) {
      sync->Arrive();  // queue closed: account for the missing worker ack
      all_delivered = false;
    }
  }
  sync->Wait();
  return all_delivered;
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
  msg.query = qs;
  if (!SyncShards(targets, std::move(msg))) {
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
  msg.query = qs;
  if (!SyncShards(TargetShards(*qs), std::move(msg))) {
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
  SyncShards(all, std::move(msg));
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
  auto profile = std::make_shared<ProfileCtx>();
  ProfileCtx* pctx = profile.get();
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kCollectProfile;
  msg.query = qs;
  msg.profile = profile;
  if (!SyncShards(TargetShards(*qs), std::move(msg))) {
    return Status::FailedPrecondition("runtime stopped during profile");
  }

  // The SyncShards barrier ordered the workers' profile writes before
  // this point; the uncontended lock makes that visible to the analysis.
  PlanProfiles live;
  uint64_t events_pushed = 0;
  {
    zs::MutexLock lock(pctx->mu);
    live = std::move(pctx->live);
    events_pushed = pctx->events_pushed;
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
                   "Queue batches popped, per shard")
        ->Store(shard->batches.load(std::memory_order_relaxed));
    reg.GetCounter("zstream_shard_events_dropped_total", labels,
                   "Events dropped on a full queue (kDropNewest)")
        ->Store(shard->dropped.load(std::memory_order_relaxed));
    reg.GetCounter("zstream_shard_reorder_late_total", labels,
                   "Events dropped for arriving beyond the reorder slack")
        ->Store(shard->reorder_late.load(std::memory_order_relaxed));
    reg.GetGauge("zstream_shard_queue_depth", labels,
                 "Messages waiting in the shard's ring queue")
        ->Set(static_cast<int64_t>(shard->queue.size()));
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
  msg.gate = gate;
  if (!shards_[static_cast<size_t>(shard)]->queue.Push(std::move(msg))) {
    return nullptr;
  }
  return gate;
}

}  // namespace zstream::runtime
