// The served path under test. Each pass opens a fresh target, so no
// state leaks between passes.
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "ledger.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "runtime/stream_runtime.h"
#include "zbench.h"

namespace zbench {

using namespace zstream;
using Span = Ledger::Span;

namespace {

/// Thread-safe by construction: shard worker s only ever publishes
/// matches tagged shard s, so each slot has a single writer. Readers
/// look only after StreamRuntime::Flush, whose barrier orders the
/// workers' writes before it returns.
class DigestSink final : public runtime::MatchSink {
 public:
  DigestSink(int shards, const Schedule* schedule)
      : slots_(static_cast<size_t>(shards)), schedule_(schedule) {}

  void Publish(runtime::RuntimeMatch&& match) override {
    slots_[static_cast<size_t>(match.shard)].receiver.Receive(match.match,
                                                              schedule_);
  }

  MatchDigest Digest() const {
    MatchDigest total;
    for (const Slot& s : slots_) total.Merge(s.receiver.digest);
    return total;
  }

  std::vector<LatencySample> TakeLatencies() {
    std::vector<LatencySample> out;
    for (Slot& s : slots_) {
      out.insert(out.end(), s.receiver.latency.begin(),
                 s.receiver.latency.end());
      s.receiver.latency.clear();
    }
    return out;
  }

 private:
  struct alignas(64) Slot {
    Receiver receiver;
  };
  std::vector<Slot> slots_;
  const Schedule* schedule_;
};

class InProcessTarget final : public Target {
 public:
  static Result<std::unique_ptr<Target>> Open(const Workload& w,
                                              Schedule* schedule,
                                              Ledger* ledger) {
    auto t = std::unique_ptr<InProcessTarget>(
        new InProcessTarget(w, schedule, ledger));
    {
      Span span(ledger, "api.create_stream");
      ZS_RETURN_IF_ERROR(t->session_.Execute(w.stream_ddl).status());
    }
    runtime::RuntimeOptions options;
    options.num_shards = w.shards;
    {
      Span span(ledger, "runtime.start");
      ZS_ASSIGN_OR_RETURN(t->runtime_, t->session_.StartRuntime(options));
    }
    ZS_ASSIGN_OR_RETURN(t->stream_id_, t->runtime_->stream(w.stream));
    runtime::QueryOptions query_options;
    query_options.sink = &t->sink_;
    {
      Span span(ledger, "runtime.register_query");
      ZS_ASSIGN_OR_RETURN(
          t->query_id_, t->runtime_->RegisterQuery(t->stream_id_, w.text,
                                                   w.compile, query_options));
    }
    return std::unique_ptr<Target>(std::move(t));
  }

  uint64_t Ingest(const std::vector<EventPtr>& batch) override {
    Span span(ledger_, "runtime.ingest_batch");
    return runtime_->IngestBatch(stream_id_, batch);
  }

  Status Flush() override {
    Span span(ledger_, "runtime.flush");
    return runtime_->Flush();
  }

  Result<std::string> Metrics() override {
    return "{\"runtime\": " + runtime_->MetricsJson() +
           ", \"process\": " + obs::Registry::Default().RenderJson() + "}";
  }

  MatchDigest Digest() const override { return sink_.Digest(); }

  std::vector<LatencySample> TakeLatencies() override {
    return sink_.TakeLatencies();
  }

 private:
  InProcessTarget(const Workload& w, Schedule* schedule, Ledger* ledger)
      : ledger_(ledger), sink_(w.shards, schedule) {}

  Ledger* ledger_;
  DigestSink sink_;  // outlives runtime_, whose workers publish into it
  ZStream session_;
  std::unique_ptr<runtime::StreamRuntime> runtime_;
  runtime::StreamId stream_id_ = 0;
  runtime::QueryId query_id_ = 0;
};

/// One connection ingests; a second, subscribed connection receives
/// every match on its own thread, as a separate consumer would.
class WireTarget final : public Target {
 public:
  static Result<std::unique_ptr<Target>> Open(const Workload& w,
                                              Schedule* schedule,
                                              Ledger* ledger) {
    auto t = std::unique_ptr<WireTarget>(new WireTarget(w, schedule, ledger));
    runtime::RuntimeOptions options;
    options.num_shards = w.shards;
    {
      Span span(ledger, "net.server_start");
      ZS_ASSIGN_OR_RETURN(t->server_,
                          net::Server::Create(&t->session_, options));
      ZS_RETURN_IF_ERROR(t->server_->Start());
    }
    {
      Span span(ledger, "net.connect");
      ZS_ASSIGN_OR_RETURN(t->producer_,
                          net::Client::Connect("127.0.0.1", t->server_->port()));
    }
    {
      Span span(ledger, "api.create_stream");
      ZS_RETURN_IF_ERROR(t->producer_->Execute(w.stream_ddl).status());
    }
    {
      Span span(ledger, "query.create_query");
      ZS_RETURN_IF_ERROR(t->producer_->Execute(w.CreateQueryDdl()).status());
    }
    {
      Span span(ledger, "net.connect");
      ZS_ASSIGN_OR_RETURN(t->subscriber_,
                          net::Client::Connect("127.0.0.1", t->server_->port()));
    }
    {
      Span span(ledger, "net.subscribe");
      ZS_RETURN_IF_ERROR(t->subscriber_->Subscribe(w.query).status());
    }
    WireTarget* raw = t.get();
    t->reader_ = std::thread([raw] { raw->ReadLoop(); });
    return std::unique_ptr<Target>(std::move(t));
  }

  ~WireTarget() override {
    stop_.store(true);
    if (reader_.joinable()) reader_.join();
    subscriber_.reset();
    producer_.reset();
    if (server_ != nullptr) server_->Stop();
  }

  uint64_t Ingest(const std::vector<EventPtr>& batch) override {
    Span span(ledger_, "net.ingest");
    auto ack = producer_->Ingest(stream_, batch, batch.size());
    if (!ack.ok()) return batch.size();
    return ack->accepted >= batch.size() ? 0 : batch.size() - ack->accepted;
  }

  Status Flush() override {
    uint64_t expected = 0;
    {
      Span span(ledger_, "net.flush");
      ZS_ASSIGN_OR_RETURN(net::FlushAck ack, producer_->Flush());
      for (const auto& [name, count] : ack.queries) {
        if (name == query_) expected = count;
      }
    }
    Span span(ledger_, "net.await_matches");
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(60), [&] {
          return received_ >= expected || !read_error_.ok();
        })) {
      std::string msg = "subscriber received ";
      msg += std::to_string(received_);
      msg += " of ";
      msg += std::to_string(expected);
      msg += " matches";
      return Status::Internal(msg);
    }
    return read_error_;
  }

  Result<std::string> Metrics() override {
    return producer_->Metrics(net::kMetricsFormatJson);
  }

  MatchDigest Digest() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return receiver_.digest;
  }

  std::vector<LatencySample> TakeLatencies() override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<LatencySample> out;
    out.swap(receiver_.latency);
    return out;
  }

 private:
  WireTarget(const Workload& w, Schedule* schedule, Ledger* ledger)
      : ledger_(ledger),
        schedule_(schedule),
        stream_(w.stream),
        query_(w.query) {}

  void ReadLoop() {
    while (!stop_.load()) {
      Result<size_t> queued = subscriber_->WaitForMatches(1, 5);
      if (!queued.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        read_error_ = queued.status();
        cv_.notify_all();
        return;
      }
      if (*queued == 0) continue;
      Span span(ledger_, "net.receive_matches");
      std::vector<net::NetMatch> matches = subscriber_->TakeMatches();
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const net::NetMatch& m : matches) {
          receiver_.Receive(m.match, schedule_);
        }
        received_ += matches.size();
      }
      cv_.notify_all();
    }
  }

  Ledger* ledger_;
  const Schedule* schedule_;
  std::string stream_;
  std::string query_;
  ZStream session_;  // outlives server_, which borrows it
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<net::Client> producer_;
  std::unique_ptr<net::Client> subscriber_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Receiver receiver_;
  uint64_t received_ = 0;
  Status read_error_;
  std::atomic<bool> stop_{false};
  std::thread reader_;  // declared last: uses every member above
};

}  // namespace

Result<std::unique_ptr<Target>> OpenTarget(const Workload& workload,
                                           Schedule* schedule,
                                           Ledger* ledger) {
  if (workload.wire) return WireTarget::Open(workload, schedule, ledger);
  return InProcessTarget::Open(workload, schedule, ledger);
}

}  // namespace zbench
