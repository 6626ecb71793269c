// The ZStream network front-end: a TCP server speaking the framed
// protocol of net/protocol.h over a shared session + sharded runtime.
//
//   clients --TCP--> poll loop --DDL--> ZStream session (catalog)
//                        |       \----> StreamRuntime registration
//                        |--rows (bytes)--> StreamRuntime::IngestRows
//                        |<-- matches (bytes) -- shard workers (FanoutSink)
//
// One poll-loop thread owns every connection (non-blocking sockets,
// incremental FrameParser per connection, buffered writes), so the
// session and the query registry need no locking. Both channels between
// the poll loop and the shard workers carry bytes, never events:
//
//   - In: an EVENT_BATCH's rows go to the runtime still encoded. The
//     runtime checks every row (the checks and ZS- codes of ReadEvent;
//     a malformed row refuses the whole batch, so nothing from it is
//     ingested) and routes it by key hashes read from its bytes; the
//     shard worker that runs a row decodes it. An event is built, read
//     and freed on that one core.
//   - Out: a worker publishing a match encodes it straight from the
//     borrowed view into the MATCH body plus a sort key (FanoutSink); a
//     self-pipe wakes the poll loop, which sorts the bytes by key,
//     prefixes the query name and trace id, and queues the frames.
//
// Matches are delivered in the CollectingMatchSink order
// (runtime::RuntimeMatchLess) within each drained batch, and everything
// produced by events ingested before a kFlush is delivered before that
// flush's kFlushAck.
//
// Backpressure: under BackpressurePolicy::kBlock a full shard queue
// blocks the poll loop inside IngestRows, which stops reads and lets the
// TCP window throttle every producer. Under kDropNewest the runtime
// drops and counts; the kIngestAck then carries the drop count with
// kFlagThrottle set — the protocol-level flow-control signal.
//
// Protocol violations (malformed DDL, truncated payloads, oversized
// frames, unknown streams/queries) answer with a coded kError frame and
// leave the connection open; only socket errors and a write buffer
// overrun (slow consumer) close it.
#ifndef ZSTREAM_NET_SERVER_H_
#define ZSTREAM_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/zstream.h"
#include "common/sync.h"
#include "net/protocol.h"
#include "runtime/match_sink.h"
#include "runtime/stream_runtime.h"

namespace zstream::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the outcome from port().
  uint16_t port = 0;
  int listen_backlog = 16;
  int max_connections = 64;
  /// Per-connection inbound frame payload bound (<= kMaxFramePayload).
  uint32_t max_frame_payload = kMaxFramePayload;
  /// A connection whose unsent output exceeds this is dropped (slow or
  /// stalled match subscriber).
  size_t max_write_buffer_bytes = 64u << 20;
  /// HTTP side port serving GET /metrics (Prometheus text),
  /// /metrics.json and /healthz on the same poll loop. -1 disables;
  /// 0 binds an ephemeral port — read the outcome from metrics_port().
  int metrics_port = -1;
};

/// \brief The TCP serving layer over one ZStream session and one
/// StreamRuntime.
///
/// The session is borrowed, must outlive the server, and is *shared*:
/// streams and queries already in its catalog are bound/registered on
/// the runtime at Create, and DDL arriving over the wire executes
/// against it. After Start() the poll thread owns the session — do not
/// mutate it concurrently from other threads.
class Server {
 public:
  static Result<std::unique_ptr<Server>> Create(
      ZStream* session,
      const runtime::RuntimeOptions& runtime_options = {},
      const ServerOptions& options = {});

  ~Server();
  ZS_DISALLOW_COPY_AND_ASSIGN(Server);

  /// Spawns the poll-loop thread. Call once.
  Status Start();

  /// Joins the poll loop, stops the runtime and closes every socket.
  /// Idempotent; also called by the destructor.
  void Stop();

  /// The bound TCP port (resolved when ServerOptions::port was 0).
  uint16_t port() const { return port_; }
  /// The bound HTTP metrics port (0 when the side port is disabled).
  uint16_t metrics_port() const { return metrics_port_; }
  const std::string& bind_address() const { return options_.bind_address; }

  runtime::StreamRuntime& runtime() { return *runtime_; }

  /// Total frames dispatched and matches fanned out (for tests).
  uint64_t frames_dispatched() const {
    return frames_dispatched_.load(std::memory_order_relaxed);
  }
  uint64_t matches_fanned_out() const {
    return matches_fanned_out_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;
  struct HttpConnection;

  /// Thread-safe match funnel. The shard worker that publishes a match
  /// encodes it straight from the borrowed view into bytes (the kMatch
  /// body) plus a compact sort key (runtime::AppendMatchSortKey); the
  /// poll loop, woken through the self-pipe, takes the bytes, sorts
  /// them by key and frames them. No event crosses to the poll thread.
  class FanoutSink : public runtime::MatchSink {
   public:
    explicit FanoutSink(Server* server) : server_(server) {}
    void Publish(runtime::RuntimeMatch&& match) override;

   private:
    friend class Server;
    /// One published match: its body is bodies[body_begin, body_end)
    /// and its sort key keys[key_begin, key_end) of the batch.
    struct Entry {
      runtime::QueryId query = 0;
      uint64_t trace_id = 0;
      size_t key_begin = 0;
      size_t key_end = 0;
      size_t body_begin = 0;
      size_t body_end = 0;
    };
    /// Published matches as bytes. Swapped whole between the sink and
    /// the poll loop, so both sides reuse its capacity.
    struct Batch {
      std::string bodies;
      std::vector<int64_t> keys;
      std::vector<Entry> entries;

      void Clear() {
        bodies.clear();
        keys.clear();
        entries.clear();
      }
    };

    Server* server_;
    zs::Mutex mu_;
    bool signaled_ ZS_GUARDED_BY(mu_) = false;
    Batch pending_ ZS_GUARDED_BY(mu_);
  };

  /// Served queries' catalog entries (CompiledQuery set), by runtime id.
  using ServedMap = std::map<runtime::QueryId, QueryInfo>;

  Server(ZStream* session, const ServerOptions& options);

  Status Listen();
  Status BindCatalog(const runtime::RuntimeOptions& runtime_options);
  /// Serves a catalog query on the runtime, from its CompiledQuery.
  Status RegisterOnRuntime(const QueryInfo& info);
  /// The served query named `name`, or served_.end().
  ServedMap::iterator FindServed(const std::string& name);

  void PollLoop();
  void AcceptPending();
  void HandleReadable(Connection* conn);
  void DispatchFrame(Connection* conn, const FrameParser::Frame& frame);
  void HandleDdl(Connection* conn, const std::string& text);
  void HandleEventBatch(Connection* conn, const std::string& payload);
  void HandleSubscribe(Connection* conn, const std::string& payload);
  void HandleUnsubscribe(Connection* conn, const std::string& payload);
  void HandleMetricsRequest(Connection* conn, const std::string& payload);
  void HandleFlush(Connection* conn);
  void DrainMatches();

  /// The one refresh step of every scrape: mirrors the server-level
  /// series into the runtime registry, then the runtime's own
  /// (StreamRuntime::UpdateMetrics).
  void MirrorMetrics();
  /// The full metrics document: MirrorMetrics, then runtime +
  /// process-default registries rendered (Prometheus families
  /// concatenate; both sets are disjoint).
  std::string MetricsText();
  std::string MetricsJsonDoc();
  void AcceptHttpPending();
  void HandleHttpReadable(HttpConnection* conn);
  void FlushHttpWrites(HttpConnection* conn);

  /// Appends one frame to the connection's write buffer (drops the
  /// connection on overrun) without flushing — fanout queues many and
  /// flushes once.
  void Queue(Connection* conn, MsgType type, uint8_t flags,
             std::string_view payload);
  /// Queue + immediate flush attempt (request/reply path).
  void Send(Connection* conn, MsgType type, uint8_t flags,
            std::string_view payload);
  void SendError(Connection* conn, const Status& status);
  void FlushWrites(Connection* conn);

  ZStream* session_;
  ServerOptions options_;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;

  int listen_fd_ = -1;
  int http_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  FanoutSink sink_{this};
  /// Poll-thread-owned: the batch DrainMatches took from the sink.
  FanoutSink::Batch drained_;
  std::unique_ptr<runtime::StreamRuntime> runtime_;

  /// Poll-thread-owned state (no locks: one thread).
  std::map<int, std::unique_ptr<Connection>> connections_;
  std::map<int, std::unique_ptr<HttpConnection>> http_connections_;
  /// Served queries by runtime id. Ids rise with each registration, so
  /// map order is creation order (the kFlushAck order).
  ServedMap served_;
  uint64_t next_connection_id_ = 1;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> frames_dispatched_{0};
  std::atomic<uint64_t> matches_fanned_out_{0};
};

}  // namespace zstream::net

#endif  // ZSTREAM_NET_SERVER_H_
