#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/error_codes.h"

namespace zstream::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " +
                          ErrnoToString(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------

struct Server::Connection {
  int fd = -1;
  uint64_t id = 0;
  FrameParser parser;
  /// Buffered outbound bytes [out_off, out.size()).
  std::string out;
  size_t out_off = 0;
  std::vector<std::string> subscriptions;
  bool closing = false;

  explicit Connection(uint32_t max_payload) : parser(max_payload) {}

  bool SubscribedTo(const std::string& query) const {
    return std::find(subscriptions.begin(), subscriptions.end(), query) !=
           subscriptions.end();
  }
};

/// \brief One HTTP/1.0 scrape connection on the metrics side port:
/// read one GET request, write one response, close. No keep-alive.
struct Server::HttpConnection {
  int fd = -1;
  std::string in;
  std::string out;
  size_t out_off = 0;
  bool responded = false;
  bool closing = false;
};

// ---------------------------------------------------------------------
// FanoutSink
// ---------------------------------------------------------------------

void Server::FanoutSink::Publish(runtime::RuntimeMatch&& match) {
  // Encoded on the publishing worker, outside the lock.
  thread_local std::string body;
  thread_local std::vector<int64_t> key;
  body.clear();
  AppendMatchBody(&body, match.match);
  key.clear();
  runtime::AppendMatchSortKey(match.match, &key);
  bool signal = false;
  {
    zs::MutexLock lock(mu_);
    Batch& batch = pending_;
    batch.entries.push_back(Entry{
        match.query, match.trace_id, batch.keys.size(),
        batch.keys.size() + key.size(), batch.bodies.size(),
        batch.bodies.size() + body.size()});
    batch.keys.insert(batch.keys.end(), key.begin(), key.end());
    batch.bodies += body;
    if (!signaled_) {
      signaled_ = true;
      signal = true;
    }
  }
  if (signal) {
    // Non-blocking wake; a full pipe means a wake is already pending.
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(server_->wake_write_fd_, &byte, 1);
  }
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

Server::Server(ZStream* session, const ServerOptions& options)
    : session_(session), options_(options) {
  options_.max_frame_payload =
      std::min(options_.max_frame_payload, kMaxFramePayload);
}

Result<std::unique_ptr<Server>> Server::Create(
    ZStream* session, const runtime::RuntimeOptions& runtime_options,
    const ServerOptions& options) {
  if (session == nullptr) {
    return Status::InvalidArgument("session must not be null");
  }
  auto server = std::unique_ptr<Server>(new Server(session, options));
  ZS_RETURN_IF_ERROR(server->Listen());
  ZS_RETURN_IF_ERROR(server->BindCatalog(runtime_options));
  return server;
}

Server::~Server() { Stop(); }

namespace {

/// Opens a non-blocking listening socket on (address, port); writes the
/// resolved port (ephemeral bind) to *bound_port.
Result<int> OpenListener(const std::string& address, uint16_t port,
                         int backlog, uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address '" + address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st = Errno("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, backlog) < 0) {
    const Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const Status st = Errno("getsockname");
    ::close(fd);
    return st;
  }
  *bound_port = ntohs(bound.sin_port);
  if (Status st = SetNonBlocking(fd); !st.ok()) {
    ::close(fd);
    return st;
  }
  return fd;
}

}  // namespace

Status Server::Listen() {
  ZS_ASSIGN_OR_RETURN(listen_fd_,
                      OpenListener(options_.bind_address, options_.port,
                                   options_.listen_backlog, &port_));
  if (options_.metrics_port >= 0) {
    ZS_ASSIGN_OR_RETURN(
        http_fd_,
        OpenListener(options_.bind_address,
                     static_cast<uint16_t>(options_.metrics_port),
                     options_.listen_backlog, &metrics_port_));
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) return Errno("pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  ZS_RETURN_IF_ERROR(SetNonBlocking(wake_read_fd_));
  ZS_RETURN_IF_ERROR(SetNonBlocking(wake_write_fd_));
  return Status::OK();
}

Status Server::BindCatalog(const runtime::RuntimeOptions& runtime_options) {
  ZS_ASSIGN_OR_RETURN(runtime_,
                      runtime::StreamRuntime::Create(runtime_options));
  for (const std::string& name : session_->catalog().StreamNames()) {
    SchemaPtr schema = *session_->catalog().stream(name);
    ZS_RETURN_IF_ERROR(runtime_->AddStream(name, schema).status());
  }
  // Share the session: queries already registered in the catalog are
  // served too, from their catalog CompiledQuery (the session builds no
  // engine for them; the runtime's shard engines do the work).
  for (const QueryInfo& info : session_->catalog().queries()) {
    ZS_RETURN_IF_ERROR(RegisterOnRuntime(info));
  }
  return Status::OK();
}

Status Server::RegisterOnRuntime(const QueryInfo& info) {
  if (info.compiled == nullptr) {
    return Status::NotFound("query '" + info.name + "' was never compiled")
        .WithErrorCode(errc::kCatalogUnknownQuery);
  }
  ZS_ASSIGN_OR_RETURN(runtime::StreamId stream, runtime_->stream(info.stream));
  runtime::QueryOptions qopts;
  qopts.sink = &sink_;
  ZS_ASSIGN_OR_RETURN(runtime::QueryId id,
                      runtime_->RegisterQuery(stream, info.compiled, qopts));
  served_[id] = info;
  return Status::OK();
}

Server::ServedMap::iterator Server::FindServed(const std::string& name) {
  return std::find_if(served_.begin(), served_.end(), [&](const auto& e) {
    return e.second.name == name;
  });
}

Status Server::Start() {
  if (running_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  thread_ = std::thread([this] { PollLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (stopped_.exchange(true)) return;
  running_.store(false);
  if (wake_write_fd_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
  if (thread_.joinable()) thread_.join();
  // Poll thread is gone: safe to stop the runtime (workers flush their
  // engines; final matches land in the sink and die with the server).
  if (runtime_ != nullptr) runtime_->Stop();
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  for (auto& [fd, conn] : http_connections_) ::close(fd);
  http_connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (http_fd_ >= 0) ::close(http_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  listen_fd_ = http_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
}

// ---------------------------------------------------------------------
// Poll loop
// ---------------------------------------------------------------------

void Server::PollLoop() {
  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  std::vector<HttpConnection*> http_polled;
  while (running_.load(std::memory_order_relaxed)) {
    fds.clear();
    polled.clear();
    http_polled.clear();
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    size_t http_listen_idx = 0;
    if (http_fd_ >= 0) {
      http_listen_idx = fds.size();
      fds.push_back(pollfd{http_fd_, POLLIN, 0});
    }
    const size_t conn_base = fds.size();
    for (auto& [fd, conn] : connections_) {
      short events = POLLIN;
      if (conn->out.size() > conn->out_off) events |= POLLOUT;
      fds.push_back(pollfd{fd, events, 0});
      polled.push_back(conn.get());
    }
    const size_t http_base = fds.size();
    for (auto& [fd, conn] : http_connections_) {
      short events = POLLIN;
      if (conn->out.size() > conn->out_off) events |= POLLOUT;
      fds.push_back(pollfd{fd, events, 0});
      http_polled.push_back(conn.get());
    }

    const int rc = ::poll(fds.data(), fds.size(), /*timeout=*/-1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      ZS_LOG(Warn) << "poll failed: " << ErrnoToString(errno);
      break;
    }
    if (!running_.load(std::memory_order_relaxed)) break;

    if ((fds[0].revents & POLLIN) != 0) {
      char drain[256];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    DrainMatches();

    if ((fds[1].revents & POLLIN) != 0) AcceptPending();
    if (http_fd_ >= 0 && (fds[http_listen_idx].revents & POLLIN) != 0) {
      AcceptHttpPending();
    }

    for (size_t i = conn_base; i < http_base; ++i) {
      Connection* conn = polled[i - conn_base];
      if (conn->closing) continue;
      if ((fds[i].revents & POLLOUT) != 0) FlushWrites(conn);
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        HandleReadable(conn);
      }
    }
    for (size_t i = http_base; i < fds.size(); ++i) {
      HttpConnection* conn = http_polled[i - http_base];
      if (conn->closing) continue;
      if ((fds[i].revents & POLLOUT) != 0) FlushHttpWrites(conn);
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        HandleHttpReadable(conn);
      }
    }

    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->second->closing) {
        ::close(it->second->fd);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = http_connections_.begin();
         it != http_connections_.end();) {
      if (it->second->closing) {
        ::close(it->second->fd);
        it = http_connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void Server::AcceptPending() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      ZS_LOG(Warn) << "accept failed: " << ErrnoToString(errno);
      return;
    }
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(options_.max_frame_payload);
    conn->fd = fd;
    conn->id = next_connection_id_++;
    connections_.emplace(fd, std::move(conn));
  }
}

void Server::HandleReadable(Connection* conn) {
  char buf[64 << 10];
  while (!conn->closing) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      conn->closing = true;
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn->closing = true;
      return;
    }
    conn->parser.Append(buf, static_cast<size_t>(n));
    while (!conn->closing) {
      auto next = conn->parser.Next();
      if (!next.ok()) {
        // Protocol violation: answer with the coded error. Recoverable
        // ones (oversized/unknown type) already scheduled a payload
        // skip and parsing continues; a fatal one (bad version — the
        // stream cannot be resynchronized) drops the connection after
        // the error frame.
        SendError(conn, next.status());
        if (conn->parser.broken()) {
          FlushWrites(conn);
          conn->closing = true;
          return;
        }
        continue;
      }
      if (!next->has_value()) break;
      DispatchFrame(conn, **next);
    }
  }
}

// ---------------------------------------------------------------------
// Frame dispatch
// ---------------------------------------------------------------------

void Server::DispatchFrame(Connection* conn,
                           const FrameParser::Frame& frame) {
  frames_dispatched_.fetch_add(1, std::memory_order_relaxed);
  switch (frame.header.type) {
    case MsgType::kDdl:
      if (frame.payload.empty()) {
        SendError(conn,
                  Status::InvalidArgument("empty DDL frame")
                      .WithErrorCode(errc::kNetEmptyPayload));
        return;
      }
      HandleDdl(conn, frame.payload);
      return;
    case MsgType::kEventBatch:
      HandleEventBatch(conn, frame.payload);
      return;
    case MsgType::kSubscribe:
      HandleSubscribe(conn, frame.payload);
      return;
    case MsgType::kUnsubscribe:
      HandleUnsubscribe(conn, frame.payload);
      return;
    case MsgType::kMetricsRequest:
      HandleMetricsRequest(conn, frame.payload);
      return;
    case MsgType::kTraceRequest:
      Send(conn, MsgType::kTrace, 0,
           obs::Tracer::Global().RenderChromeJson());
      return;
    case MsgType::kFlush:
      HandleFlush(conn);
      return;
    default:
      SendError(conn, Status::InvalidArgument(
                          std::string("unexpected client message ") +
                          MsgTypeName(frame.header.type))
                          .WithErrorCode(errc::kNetUnexpectedMessage));
      return;
  }
}

void Server::HandleDdl(Connection* conn, const std::string& text) {
  auto stmt = ParseDdl(text);
  if (!stmt.ok()) {
    SendError(conn, stmt.status());
    return;
  }
  // A served query runs on the runtime's shard engines (the session
  // builds none), so EXPLAIN ANALYZE profiles those.
  const auto served = stmt->kind == DdlKind::kExplainAnalyze
                          ? FindServed(stmt->name)
                          : served_.end();
  auto result = [&]() -> Result<DdlResult> {
    if (served == served_.end()) return session_->Execute(*stmt);
    DdlResult profile;
    profile.kind = DdlKind::kExplainAnalyze;
    profile.name = stmt->name;
    ZS_ASSIGN_OR_RETURN(profile.message,
                        runtime_->ExplainAnalyze(served->first));
    return profile;
  }();
  if (!result.ok()) {
    SendError(conn, result.status());
    return;
  }
  Status post = Status::OK();
  switch (result->kind) {
    case DdlKind::kCreateStream: {
      auto schema = session_->catalog().stream(result->name);
      if (schema.ok()) {
        const auto bound = runtime_->stream(result->name);
        if (!bound.ok()) {
          post = runtime_->AddStream(result->name, *schema).status();
        } else if (!SchemasEqual(**runtime_->schema(*bound), **schema)) {
          // The runtime keeps stream bindings for the life of the
          // server (it has no stream removal); a dropped stream can
          // only be recreated with the identical schema — anything
          // else would decode events against one layout and evaluate
          // them against another.
          post = Status::InvalidArgument(
                     "stream '" + result->name +
                     "' was previously served with a different schema; "
                     "recreate it with the original field list or "
                     "restart the server")
                     .WithErrorCode(errc::kCatalogDuplicateStream);
        }
        // Identical schema: reuse the existing runtime binding.
      }
      if (!post.ok()) {
        // Keep catalog and runtime in sync: undo the catalog-side
        // creation the Execute above performed.
        (void)session_->Execute("DROP STREAM " + result->name);
      }
      break;
    }
    case DdlKind::kCreateQuery:
    case DdlKind::kSelect: {
      auto info = session_->catalog().query(result->name);
      post = info.ok() ? RegisterOnRuntime(*info) : info.status();
      if (!post.ok()) {
        // Keep catalog and runtime in sync: undo the session-side
        // registration the Execute above performed.
        (void)session_->Execute("DROP QUERY " + result->name);
      }
      break;
    }
    case DdlKind::kDropQuery: {
      auto it = FindServed(result->name);
      if (it != served_.end()) {
        (void)runtime_->UnregisterQuery(it->first);
        for (auto& [fd, c] : connections_) {
          auto& subs = c->subscriptions;
          subs.erase(std::remove(subs.begin(), subs.end(), result->name),
                     subs.end());
        }
        served_.erase(it);
      }
      break;
    }
    default:
      break;
  }
  if (!post.ok()) {
    SendError(conn, post);
    return;
  }
  std::string payload;
  AppendDdlReply(&payload, *result);
  Send(conn, MsgType::kDdlResult, 0, payload);
}

void Server::HandleEventBatch(Connection* conn,
                              const std::string& payload) {
  PayloadReader reader(payload);
  std::string stream_name;
  uint64_t trace_id = 0;
  uint32_t count = 0;
  Status st = [&]() -> Status {
    ZS_ASSIGN_OR_RETURN(stream_name, reader.ReadString());
    ZS_ASSIGN_OR_RETURN(trace_id, reader.ReadU64());
    ZS_ASSIGN_OR_RETURN(count, reader.ReadU32());
    return Status::OK();
  }();
  if (!st.ok()) {
    SendError(conn, st);
    return;
  }
  // A client that never armed its own tracer stamps 0 on every batch;
  // when this server samples (--trace-sample), take the per-batch
  // decision here instead, so server-side spans still appear without
  // client cooperation. A client-stamped id is always adopted as-is.
  if (trace_id == 0) trace_id = obs::TraceSampleBatch();
  if (count > kMaxBatchEvents) {
    SendError(conn, Status::InvalidArgument(
                        "event batch of " + std::to_string(count) +
                        " exceeds the " +
                        std::to_string(kMaxBatchEvents) + "-event bound")
                        .WithErrorCode(errc::kNetBatchTooLarge));
    return;
  }
  const auto stream_id = runtime_->stream(stream_name);
  if (!stream_id.ok() || !session_->catalog().stream(stream_name).ok()) {
    SendError(conn, Status::NotFound("no stream named '" + stream_name +
                                     "'")
                        .WithErrorCode(errc::kCatalogUnknownStream));
    return;
  }
  // The rows stay bytes on this thread: the runtime checks every row
  // (a malformed one refuses the whole batch, so nothing from it is
  // ingested) and routes it by key hashes read from the bytes; the
  // shard worker that runs a row decodes it.
  const auto dropped = runtime_->IngestRows(
      *stream_id,
      std::string_view(payload).substr(payload.size() - reader.remaining()),
      count, trace_id);
  if (!dropped.ok()) {
    SendError(conn, dropped.status());
    return;
  }
  const uint64_t accepted = *dropped >= count ? 0 : count - *dropped;
  std::string ack;
  PutU64(&ack, accepted);
  PutU64(&ack, *dropped);
  Send(conn, MsgType::kIngestAck, *dropped > 0 ? kFlagThrottle : 0, ack);
}

void Server::HandleSubscribe(Connection* conn, const std::string& payload) {
  PayloadReader reader(payload);
  auto name = reader.ReadString();
  if (!name.ok()) {
    SendError(conn, name.status());
    return;
  }
  auto it = FindServed(*name);
  if (it == served_.end()) {
    SendError(conn, Status::NotFound("no query named '" + *name + "'")
                        .WithErrorCode(errc::kCatalogUnknownQuery));
    return;
  }
  if (!conn->SubscribedTo(*name)) conn->subscriptions.push_back(*name);
  std::string ack;
  PutString(&ack, *name);
  PutString(&ack, it->second.stream);
  AppendSchema(&ack, *it->second.compiled->schema);
  Send(conn, MsgType::kSubscribeAck, 0, ack);
}

void Server::HandleUnsubscribe(Connection* conn,
                               const std::string& payload) {
  PayloadReader reader(payload);
  auto name = reader.ReadString();
  if (!name.ok()) {
    SendError(conn, name.status());
    return;
  }
  if (FindServed(*name) == served_.end()) {
    SendError(conn, Status::NotFound("no query named '" + *name + "'")
                        .WithErrorCode(errc::kCatalogUnknownQuery));
    return;
  }
  auto& subs = conn->subscriptions;
  subs.erase(std::remove(subs.begin(), subs.end(), *name), subs.end());
  std::string ack;
  PutString(&ack, *name);
  Send(conn, MsgType::kUnsubscribeAck, 0, ack);
}

void Server::HandleMetricsRequest(Connection* conn,
                                  const std::string& payload) {
  uint8_t format = kMetricsFormatPrometheus;
  if (!payload.empty()) {
    PayloadReader reader(payload);
    auto f = reader.ReadU8();
    if (!f.ok()) {
      SendError(conn, f.status());
      return;
    }
    format = *f;
  }
  if (format != kMetricsFormatPrometheus && format != kMetricsFormatJson) {
    SendError(conn, Status::InvalidArgument(
                        "unknown metrics format " + std::to_string(format))
                        .WithErrorCode(errc::kNetUnexpectedMessage));
    return;
  }
  Send(conn, MsgType::kMetrics, 0,
       format == kMetricsFormatJson ? MetricsJsonDoc() : MetricsText());
}

void Server::HandleFlush(Connection* conn) {
  if (Status st = runtime_->Flush(); !st.ok()) {
    SendError(conn, st);
    return;
  }
  // The barrier returned, so every match from events ingested before
  // the kFlush has been published; deliver them before the ack.
  DrainMatches();
  FlushAck ack;
  for (const auto& [id, query] : served_) {
    ack.queries.emplace_back(query.name,
                             runtime_->query_matches(id).ValueOr(0));
  }
  std::string payload;
  AppendFlushAck(&payload, ack);
  Send(conn, MsgType::kFlushAck, 0, payload);
}

// ---------------------------------------------------------------------
// Match fanout
// ---------------------------------------------------------------------

void Server::DrainMatches() {
  FanoutSink::Batch& batch = drained_;
  {
    zs::MutexLock lock(sink_.mu_);
    sink_.signaled_ = false;
    std::swap(batch, sink_.pending_);
  }
  if (batch.entries.empty()) return;
  // Deterministic delivery order within the drained batch: the shared
  // order of CollectingMatchSink::Take (runtime::RuntimeMatchLess), read
  // from the sort keys.
  const int64_t* keys = batch.keys.data();
  std::sort(batch.entries.begin(), batch.entries.end(),
            [keys](const FanoutSink::Entry& a, const FanoutSink::Entry& b) {
              if (a.query != b.query) return a.query < b.query;
              return std::lexicographical_compare(
                  keys + a.key_begin, keys + a.key_end, keys + b.key_begin,
                  keys + b.key_end);
            });
  // Queue every frame first and flush each connection once: one
  // send() per subscriber per drain, not per match.
  std::string payload;
  for (const FanoutSink::Entry& m : batch.entries) {
    const auto served = served_.find(m.query);
    if (served == served_.end()) continue;  // dropped query
    const std::string& name = served->second.name;
    payload.clear();
    PutString(&payload, name);
    PutU64(&payload, m.trace_id);
    payload.append(batch.bodies, m.body_begin, m.body_end - m.body_begin);
    const uint64_t fanout_t0 =
        m.trace_id != 0 ? obs::MonotonicNanos() : 0;
    uint64_t fanned = 0;
    for (auto& [fd, conn] : connections_) {
      if (conn->closing || !conn->SubscribedTo(name)) continue;
      Queue(conn.get(), MsgType::kMatch, 0, payload);
      ++fanned;
      matches_fanned_out_.fetch_add(1, std::memory_order_relaxed);
    }
    if (m.trace_id != 0) {
      obs::TraceRecord(0, obs::SpanKind::kFanout, m.trace_id, fanout_t0,
                       obs::MonotonicNanos(), name.c_str(),
                       fanned);
    }
  }
  batch.Clear();
  for (auto& [fd, conn] : connections_) {
    if (!conn->closing && conn->out.size() > conn->out_off) {
      FlushWrites(conn.get());
    }
  }
}

// ---------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------

void Server::Queue(Connection* conn, MsgType type, uint8_t flags,
                   std::string_view payload) {
  if (conn->closing) return;
  const size_t queued = conn->out.size() - conn->out_off;
  if (queued + kFrameHeaderSize + payload.size() >
      options_.max_write_buffer_bytes) {
    ZS_LOG(Warn) << "connection " << conn->id
                 << " write buffer overrun; dropping connection";
    conn->closing = true;
    return;
  }
  AppendFrame(&conn->out, type, flags, payload);
}

void Server::Send(Connection* conn, MsgType type, uint8_t flags,
                  std::string_view payload) {
  Queue(conn, type, flags, payload);
  if (!conn->closing) FlushWrites(conn);
}

void Server::SendError(Connection* conn, const Status& status) {
  std::string payload;
  AppendStatusPayload(&payload, status);
  Send(conn, MsgType::kError, 0, payload);
}

void Server::FlushWrites(Connection* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn->closing = true;
      return;
    }
    conn->out_off += static_cast<size_t>(n);
  }
  if (conn->out_off == conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
  } else if (conn->out_off > (1u << 20)) {
    conn->out.erase(0, conn->out_off);
    conn->out_off = 0;
  }
}

// ---------------------------------------------------------------------
// Metrics exposition (wire kMetrics + HTTP side port)
// ---------------------------------------------------------------------

void Server::MirrorMetrics() {
  obs::Registry& reg = runtime_->metrics_registry();
  reg.GetGauge("zstream_server_connections", {},
               "Open protocol connections")
      ->Set(static_cast<int64_t>(connections_.size()));
  reg.GetCounter("zstream_server_frames_dispatched_total", {},
                 "Protocol frames dispatched")
      ->Store(frames_dispatched_.load(std::memory_order_relaxed));
  reg.GetCounter("zstream_server_matches_fanned_out_total", {},
                 "Match frames queued to subscribers")
      ->Store(matches_fanned_out_.load(std::memory_order_relaxed));
  runtime_->UpdateMetrics();
}

std::string Server::MetricsText() {
  MirrorMetrics();
  // The runtime registry (shard/query series + the server series just
  // mirrored) and the process-wide registry (planner, verifier,
  // slow-event counters) have disjoint family names, so the Prometheus
  // documents concatenate into one valid exposition.
  return runtime_->metrics_registry().RenderPrometheus() +
         obs::Registry::Default().RenderPrometheus();
}

std::string Server::MetricsJsonDoc() {
  MirrorMetrics();
  return "{\"runtime\": " + runtime_->metrics_registry().RenderJson() +
         ", \"process\": " + obs::Registry::Default().RenderJson() + "}";
}

void Server::AcceptHttpPending() {
  while (true) {
    const int fd = ::accept(http_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      ZS_LOG(Warn) << "metrics accept failed: " << ErrnoToString(errno);
      return;
    }
    if (static_cast<int>(http_connections_.size()) >=
        options_.max_connections) {
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<HttpConnection>();
    conn->fd = fd;
    http_connections_.emplace(fd, std::move(conn));
  }
}

void Server::HandleHttpReadable(HttpConnection* conn) {
  char buf[4096];
  while (!conn->closing) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      conn->closing = true;
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn->closing = true;
      return;
    }
    conn->in.append(buf, static_cast<size_t>(n));
    if (conn->in.size() > 8192) {  // a GET request line is tiny
      conn->closing = true;
      return;
    }
  }
  if (conn->responded || conn->in.find("\r\n") == std::string::npos) {
    return;  // headers may still be in flight; the request line suffices
  }
  conn->responded = true;
  const std::string line = conn->in.substr(0, conn->in.find("\r\n"));
  std::string body;
  std::string status = "200 OK";
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  if (line.rfind("GET /metrics.json", 0) == 0) {
    body = MetricsJsonDoc();
    content_type = "application/json";
  } else if (line.rfind("GET /metrics", 0) == 0) {
    body = MetricsText();
  } else if (line.rfind("GET /trace", 0) == 0) {
    body = obs::Tracer::Global().RenderChromeJson();
    content_type = "application/json";
  } else if (line.rfind("GET /healthz", 0) == 0) {
    body = "ok\n";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  conn->out = "HTTP/1.0 " + status + "\r\nContent-Type: " + content_type +
              "\r\nContent-Length: " + std::to_string(body.size()) +
              "\r\nConnection: close\r\n\r\n" + body;
  conn->out_off = 0;
  FlushHttpWrites(conn);
}

void Server::FlushHttpWrites(HttpConnection* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      conn->closing = true;
      return;
    }
    conn->out_off += static_cast<size_t>(n);
  }
  // One response per connection: done once fully written.
  if (conn->responded) conn->closing = true;
}

}  // namespace zstream::net
