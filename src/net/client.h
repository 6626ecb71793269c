// Blocking client library for the ZStream wire protocol.
//
//   auto client = net::Client::Connect("127.0.0.1", port);
//   (*client)->Execute("CREATE STREAM stock (...)");
//   (*client)->Execute("CREATE QUERY rally ON stock AS PATTERN ...");
//   (*client)->Subscribe("rally");
//   (*client)->Ingest("stock", events);
//   auto counts = (*client)->Flush();          // barrier + match counts
//   for (const NetMatch& m : (*client)->TakeMatches()) ...
//
// One Client is one connection and is NOT thread-safe; open one client
// per thread for concurrent producers (see workload/net_replay.h).
// Request methods are synchronous: they send one frame and block until
// the matching reply (or a kError frame, which comes back as the coded
// Status the server attached). kMatch frames arriving while waiting are
// decoded against their subscription's schema and queued; read them
// with TakeMatches()/WaitForMatches().
#ifndef ZSTREAM_NET_CLIENT_H_
#define ZSTREAM_NET_CLIENT_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "net/protocol.h"

namespace zstream::net {

class Client {
 public:
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port);

  ~Client();
  ZS_DISALLOW_COPY_AND_ASSIGN(Client);

  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Executes one DDL statement on the server (CREATE/DROP/SHOW/bare
  /// PATTERN). Server-side failures return the transported coded
  /// Status.
  Result<DdlReply> Execute(const std::string& statement);

  /// Sends `events` to the named stream in frames of at most
  /// `batch_size` events — split earlier whenever the encoded frame
  /// would exceed max_frame_payload() — waiting for each kIngestAck.
  /// The returned ack aggregates all batches; `throttled` is true when
  /// any batch saw drops (the server's flow-control signal under
  /// kDropNewest).
  Result<IngestAck> Ingest(const std::string& stream,
                           const std::vector<EventPtr>& events,
                           size_t batch_size = 1024);

  /// Byte bound for frames this client builds. Defaults to the
  /// protocol maximum; lower it to match a server configured with a
  /// smaller ServerOptions::max_frame_payload.
  void set_max_frame_payload(uint32_t bytes) {
    max_frame_payload_ = std::min(bytes, kMaxFramePayload);
  }
  uint32_t max_frame_payload() const { return max_frame_payload_; }

  /// Subscribes to a served query's matches; the ack carries the
  /// stream's schema, which the client keeps for decoding kMatch
  /// frames.
  Result<SubscribeAck> Subscribe(const std::string& query);
  Status Unsubscribe(const std::string& query);

  /// Runtime barrier: everything ingested so far is fully evaluated and
  /// every resulting match frame has been queued locally before this
  /// returns. The reply carries per-query total match counts.
  Result<FlushAck> Flush();

  /// The server's metrics registry snapshot: Prometheus text by default
  /// (kMetricsFormatPrometheus), or the stable JSON rendering — the
  /// same documents the HTTP /metrics side port serves.
  Result<std::string> Metrics(uint8_t format = kMetricsFormatPrometheus);

  /// The server's trace window as a chrome://tracing / Perfetto JSON
  /// document — the same document the HTTP /trace side port serves.
  Result<std::string> Trace();

  /// Matches received so far (drained; arrival order = server delivery
  /// order).
  std::vector<NetMatch> TakeMatches();
  size_t pending_matches() const { return matches_.size(); }

  /// Blocks until at least `min_count` matches are queued or
  /// `timeout_ms` elapses; returns the number queued.
  Result<size_t> WaitForMatches(size_t min_count, int timeout_ms);

 private:
  Client() = default;

  Status SendFrame(MsgType type, uint8_t flags, std::string_view payload);
  /// Reads frames until one of `expected` arrives (returning it), a
  /// kError frame arrives (returned as its decoded Status), or the
  /// connection drops. kMatch frames are queued along the way.
  Result<FrameParser::Frame> ReadUntil(MsgType expected);
  Status ReadChunk(int timeout_ms);  // one recv into the parser
  void QueueMatch(const FrameParser::Frame& frame);

  int fd_ = -1;
  uint32_t max_frame_payload_ = kMaxFramePayload;
  FrameParser parser_;
  std::vector<NetMatch> matches_;
  /// Subscription schemas keyed by query name (from kSubscribeAck).
  std::map<std::string, SchemaPtr> schemas_;
};

}  // namespace zstream::net

#endif  // ZSTREAM_NET_CLIENT_H_
