#include "net/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zstream::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " +
                          ErrnoToString(errno));
}

Status ConnectionClosed() {
  return Status::FailedPrecondition("connection closed by server");
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port) {
  // Resolve with getaddrinfo so hostnames ("localhost", DNS names) and
  // IPv6 literals work, not just dotted-quad IPv4.
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): gai_strerror returns
    // pointers to immutable static strings on glibc (MT-Safe).
    return Status::InvalidArgument("cannot resolve host '" + host +
                                   "': " + ::gai_strerror(rc));
  }
  auto client = std::unique_ptr<Client>(new Client());
  Status last = Status::Internal("no addresses resolved for '" + host + "'");
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    client->fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (client->fd_ < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(client->fd_, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = Errno("connect");
    ::close(client->fd_);
    client->fd_ = -1;
  }
  ::freeaddrinfo(results);
  if (client->fd_ < 0) return last;
  const int one = 1;
  ::setsockopt(client->fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return client;
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------
// Wire I/O
// ---------------------------------------------------------------------

Status Client::SendFrame(MsgType type, uint8_t flags,
                         std::string_view payload) {
  if (fd_ < 0) return ConnectionClosed();
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  AppendFrame(&frame, type, flags, payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      Close();
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Client::ReadChunk(int timeout_ms) {
  if (fd_ < 0) return ConnectionClosed();
  if (timeout_ms >= 0) {
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) return Errno("poll");
    if (rc == 0) {
      return Status::OutOfRange("timed out waiting for server data");
    }
  }
  char buf[64 << 10];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      Close();
      return ConnectionClosed();
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      Close();
      return Errno("recv");
    }
    parser_.Append(buf, static_cast<size_t>(n));
    return Status::OK();
  }
}

void Client::QueueMatch(const FrameParser::Frame& frame) {
  // Peek the query name to pick the subscription schema, then decode
  // the full frame against it. Matches for queries we never subscribed
  // to (e.g. racing an unsubscribe) are dropped.
  PayloadReader peek(frame.payload);
  auto name = peek.ReadString();
  if (!name.ok()) return;
  const auto schema_it = schemas_.find(*name);
  if (schema_it == schemas_.end()) return;
  PayloadReader reader(frame.payload);
  auto match = ReadMatch(&reader, schema_it->second);
  if (!match.ok()) return;
  if (match->trace_id != 0) {
    const uint64_t now = obs::MonotonicNanos();
    obs::TraceRecord(0, obs::SpanKind::kDeliver, match->trace_id, now, now,
                     match->query.c_str());
  }
  matches_.push_back(std::move(*match));
}

Result<FrameParser::Frame> Client::ReadUntil(MsgType expected) {
  while (true) {
    while (true) {
      auto next = parser_.Next();
      if (!next.ok()) {
        // Our own peer violated the protocol: the stream cannot be
        // trusted any more.
        Close();
        return next.status();
      }
      if (!next->has_value()) break;
      FrameParser::Frame frame = std::move(**next);
      if (frame.header.type == expected) return frame;
      if (frame.header.type == MsgType::kMatch) {
        QueueMatch(frame);
        continue;
      }
      if (frame.header.type == MsgType::kError) {
        PayloadReader reader(frame.payload);
        Status decoded;
        ZS_RETURN_IF_ERROR(DecodeErrorPayload(&reader, &decoded));
        return decoded;
      }
      // Unexpected but well-formed server frame (e.g. a stale ack):
      // skip it.
    }
    ZS_RETURN_IF_ERROR(ReadChunk(/*timeout_ms=*/-1));
  }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

Result<DdlReply> Client::Execute(const std::string& statement) {
  ZS_RETURN_IF_ERROR(SendFrame(MsgType::kDdl, 0, statement));
  ZS_ASSIGN_OR_RETURN(FrameParser::Frame frame,
                      ReadUntil(MsgType::kDdlResult));
  PayloadReader reader(frame.payload);
  return ReadDdlReply(&reader);
}

Result<IngestAck> Client::Ingest(const std::string& stream,
                                 const std::vector<EventPtr>& events,
                                 size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  batch_size = std::min<size_t>(batch_size, kMaxBatchEvents);
  // Batches are bounded by encoded bytes as well as event count:
  // otherwise a batch of large (string-heavy) events could encode past
  // the server's frame bound and be rejected whole. Leave headroom for
  // the stream name + count prefix.
  const size_t byte_limit =
      max_frame_payload_ > (128u << 10)
          ? max_frame_payload_ - (64u << 10)
          : static_cast<size_t>(max_frame_payload_) / 2;
  IngestAck total;
  std::string rows;
  size_t count = 0;

  const auto flush_batch = [&]() -> Status {
    if (count == 0) return Status::OK();
    // Per-batch sampling decision; a sampled batch's trace id travels in
    // the frame so the server's spans join the client's (obs/trace.h).
    const uint64_t trace_id = obs::TraceSampleBatch();
    const uint64_t t0 = trace_id != 0 ? obs::MonotonicNanos() : 0;
    std::string payload;
    payload.reserve(rows.size() + stream.size() + 24);
    PutString(&payload, stream);
    PutU64(&payload, trace_id);
    PutU32(&payload, static_cast<uint32_t>(count));
    payload += rows;
    const uint64_t batch_events = count;
    rows.clear();
    count = 0;
    ZS_RETURN_IF_ERROR(SendFrame(MsgType::kEventBatch, 0, payload));
    ZS_ASSIGN_OR_RETURN(FrameParser::Frame frame,
                        ReadUntil(MsgType::kIngestAck));
    PayloadReader reader(frame.payload);
    ZS_ASSIGN_OR_RETURN(uint64_t accepted, reader.ReadU64());
    ZS_ASSIGN_OR_RETURN(uint64_t dropped, reader.ReadU64());
    total.accepted += accepted;
    total.dropped += dropped;
    total.throttled |= (frame.header.flags & kFlagThrottle) != 0;
    obs::TraceRecord(0, obs::SpanKind::kIngest, trace_id, t0,
                     obs::MonotonicNanos(), stream.c_str(), batch_events);
    return Status::OK();
  };

  std::string row;
  for (const EventPtr& event : events) {
    row.clear();
    AppendEvent(&row, *event);
    // Flush BEFORE the row that would push the frame past the bound (a
    // single row larger than the bound is unsendable either way and
    // surfaces as the server's ZS-N0003).
    if (count > 0 && rows.size() + row.size() > byte_limit) {
      ZS_RETURN_IF_ERROR(flush_batch());
    }
    rows += row;
    ++count;
    if (count >= batch_size) ZS_RETURN_IF_ERROR(flush_batch());
  }
  ZS_RETURN_IF_ERROR(flush_batch());
  return total;
}

Result<SubscribeAck> Client::Subscribe(const std::string& query) {
  std::string payload;
  PutString(&payload, query);
  ZS_RETURN_IF_ERROR(SendFrame(MsgType::kSubscribe, 0, payload));
  ZS_ASSIGN_OR_RETURN(FrameParser::Frame frame,
                      ReadUntil(MsgType::kSubscribeAck));
  PayloadReader reader(frame.payload);
  SubscribeAck ack;
  ZS_ASSIGN_OR_RETURN(ack.query, reader.ReadString());
  ZS_ASSIGN_OR_RETURN(ack.stream, reader.ReadString());
  ZS_ASSIGN_OR_RETURN(ack.schema, ReadSchema(&reader));
  schemas_[ack.query] = ack.schema;
  return ack;
}

Status Client::Unsubscribe(const std::string& query) {
  std::string payload;
  PutString(&payload, query);
  ZS_RETURN_IF_ERROR(SendFrame(MsgType::kUnsubscribe, 0, payload));
  ZS_ASSIGN_OR_RETURN(FrameParser::Frame frame,
                      ReadUntil(MsgType::kUnsubscribeAck));
  (void)frame;
  return Status::OK();
}

Result<FlushAck> Client::Flush() {
  ZS_RETURN_IF_ERROR(SendFrame(MsgType::kFlush, 0, ""));
  ZS_ASSIGN_OR_RETURN(FrameParser::Frame frame,
                      ReadUntil(MsgType::kFlushAck));
  PayloadReader reader(frame.payload);
  return ReadFlushAck(&reader);
}

Result<std::string> Client::Metrics(uint8_t format) {
  std::string payload;
  PutU8(&payload, format);
  ZS_RETURN_IF_ERROR(SendFrame(MsgType::kMetricsRequest, 0, payload));
  ZS_ASSIGN_OR_RETURN(FrameParser::Frame frame,
                      ReadUntil(MsgType::kMetrics));
  return frame.payload;
}

Result<std::string> Client::Trace() {
  ZS_RETURN_IF_ERROR(SendFrame(MsgType::kTraceRequest, 0, ""));
  ZS_ASSIGN_OR_RETURN(FrameParser::Frame frame,
                      ReadUntil(MsgType::kTrace));
  return frame.payload;
}

// ---------------------------------------------------------------------
// Matches
// ---------------------------------------------------------------------

std::vector<NetMatch> Client::TakeMatches() {
  std::vector<NetMatch> out;
  out.swap(matches_);
  return out;
}

Result<size_t> Client::WaitForMatches(size_t min_count, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (matches_.size() < min_count) {
    // Drain anything already buffered first.
    bool progressed = false;
    while (true) {
      auto next = parser_.Next();
      if (!next.ok()) {
        Close();
        return next.status();
      }
      if (!next->has_value()) break;
      if ((*next)->header.type == MsgType::kMatch) QueueMatch(**next);
      progressed = true;
    }
    if (progressed) continue;
    const auto remaining = std::chrono::duration_cast<
        std::chrono::milliseconds>(deadline -
                                   std::chrono::steady_clock::now());
    if (remaining.count() <= 0) break;
    const Status st = ReadChunk(static_cast<int>(remaining.count()));
    if (st.IsOutOfRange()) break;  // timeout
    ZS_RETURN_IF_ERROR(st);
  }
  return matches_.size();
}

}  // namespace zstream::net
