#include "net/protocol.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "query/error_codes.h"

namespace zstream::net {

namespace {

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Rebuilds a Status with the given code (the inverse of the factory
/// methods; OK on the wire in an error frame decodes as Internal, since
/// an error frame by definition reports a failure).
Status MakeStatus(uint8_t raw_code, std::string msg) {
  switch (static_cast<StatusCode>(raw_code)) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kParseError:
      return Status::ParseError(std::move(msg));
    case StatusCode::kSemanticError:
      return Status::SemanticError(std::move(msg));
    case StatusCode::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(msg));
    case StatusCode::kOk:
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(std::move(msg));
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kDdl: return "DDL";
    case MsgType::kDdlResult: return "DDL_RESULT";
    case MsgType::kEventBatch: return "EVENT_BATCH";
    case MsgType::kIngestAck: return "INGEST_ACK";
    case MsgType::kSubscribe: return "SUBSCRIBE";
    case MsgType::kSubscribeAck: return "SUBSCRIBE_ACK";
    case MsgType::kUnsubscribe: return "UNSUBSCRIBE";
    case MsgType::kUnsubscribeAck: return "UNSUBSCRIBE_ACK";
    case MsgType::kMatch: return "MATCH";
    case MsgType::kFlush: return "FLUSH";
    case MsgType::kFlushAck: return "FLUSH_ACK";
    case MsgType::kError: return "ERROR";
    case MsgType::kMetricsRequest: return "METRICS_REQUEST";
    case MsgType::kMetrics: return "METRICS";
    case MsgType::kTraceRequest: return "TRACE_REQUEST";
    case MsgType::kTrace: return "TRACE";
  }
  return "UNKNOWN";
}

bool IsValidMsgType(uint8_t raw) {
  // The switch above is the one list of live types: the retired codes
  // (10 and 11, the STATS pair) fall through to "UNKNOWN" like any
  // other unassigned byte.
  return std::strcmp(MsgTypeName(static_cast<MsgType>(raw)), "UNKNOWN") != 0;
}

// ---------------------------------------------------------------------
// Schema rows, event batches, matches
// ---------------------------------------------------------------------

void AppendSchema(std::string* out, const Schema& schema) {
  PutU32(out, static_cast<uint32_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    PutString(out, f.name);
    PutU8(out, static_cast<uint8_t>(f.type));
  }
}

Result<SchemaPtr> ReadSchema(PayloadReader* in) {
  ZS_ASSIGN_OR_RETURN(uint32_t count, in->ReadU32());
  if (count > 4096) {
    return Status::ParseError("schema row count " + std::to_string(count) +
                              " exceeds bound")
        .WithErrorCode(errc::kNetBatchTooLarge);
  }
  std::vector<Field> fields;
  fields.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Field f;
    ZS_ASSIGN_OR_RETURN(f.name, in->ReadString());
    ZS_ASSIGN_OR_RETURN(uint8_t type, in->ReadU8());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::ParseError("unknown field type tag " +
                                std::to_string(type))
          .WithErrorCode(errc::kNetSchemaMismatch);
    }
    f.type = static_cast<ValueType>(type);
    fields.push_back(std::move(f));
  }
  return Schema::Make(std::move(fields));
}

void AppendEventBatch(std::string* out, std::string_view stream,
                      const std::vector<EventPtr>& events, size_t from,
                      size_t count, uint64_t trace_id) {
  PutString(out, stream);
  PutU64(out, trace_id);
  PutU32(out, static_cast<uint32_t>(count));
  for (size_t i = from; i < from + count; ++i) AppendEvent(out, *events[i]);
}

void AppendMatch(std::string* out, std::string_view query,
                 const Match& match, uint64_t trace_id) {
  PutString(out, query);
  PutU64(out, trace_id);
  AppendMatchBody(out, match);
}

void AppendMatchBody(std::string* out, const Match& match) {
  PutI64(out, match.span.start);
  PutI64(out, match.span.end);
  PutU32(out, static_cast<uint32_t>(match.slots.size()));
  for (const EventPtr& slot : match.slots) {
    PutU8(out, slot != nullptr ? 1 : 0);
    if (slot != nullptr) AppendEvent(out, *slot);
  }
  // Group presence travels separately from the count: an empty-but-
  // present Kleene group (a '*' closure that matched zero events) is a
  // different composite event than "no group".
  PutU8(out, match.group != nullptr ? 1 : 0);
  if (match.group != nullptr) {
    PutU32(out, static_cast<uint32_t>(match.group->size()));
    for (const EventPtr& e : *match.group) AppendEvent(out, *e);
  }
}

Result<NetMatch> ReadMatch(PayloadReader* in, const SchemaPtr& schema) {
  NetMatch out;
  ZS_ASSIGN_OR_RETURN(out.query, in->ReadString());
  ZS_ASSIGN_OR_RETURN(out.trace_id, in->ReadU64());
  TimeSpan span;
  ZS_ASSIGN_OR_RETURN(span.start, in->ReadI64());
  ZS_ASSIGN_OR_RETURN(span.end, in->ReadI64());
  ZS_ASSIGN_OR_RETURN(uint32_t nslots, in->ReadU32());
  if (nslots > 1024) {
    return Status::ParseError("match slot count " + std::to_string(nslots) +
                              " exceeds bound")
        .WithErrorCode(errc::kNetBatchTooLarge);
  }
  std::vector<EventPtr> slots;
  slots.reserve(nslots);
  for (uint32_t i = 0; i < nslots; ++i) {
    ZS_ASSIGN_OR_RETURN(uint8_t present, in->ReadU8());
    if (present == 0) {
      slots.push_back(nullptr);
      continue;
    }
    ZS_ASSIGN_OR_RETURN(EventPtr e, ReadEvent(in, schema));
    slots.push_back(std::move(e));
  }
  EventGroupPtr group;
  ZS_ASSIGN_OR_RETURN(uint8_t has_group, in->ReadU8());
  if (has_group != 0) {
    ZS_ASSIGN_OR_RETURN(uint32_t ngroup, in->ReadU32());
    if (ngroup > kMaxBatchEvents) {
      return Status::ParseError("match group count " +
                                std::to_string(ngroup) + " exceeds bound")
          .WithErrorCode(errc::kNetBatchTooLarge);
    }
    auto events = std::make_shared<EventGroup>();
    events->reserve(ngroup);
    for (uint32_t i = 0; i < ngroup; ++i) {
      ZS_ASSIGN_OR_RETURN(EventPtr e, ReadEvent(in, schema));
      events->push_back(std::move(e));
    }
    group = std::move(events);
  }
  out.match = OwnedMatch(span, std::move(slots), std::move(group));
  return out;
}

// ---------------------------------------------------------------------
// Control messages
// ---------------------------------------------------------------------

void AppendDdlReply(std::string* out, const DdlResult& result) {
  PutU8(out, static_cast<uint8_t>(result.kind));
  PutString(out, result.name);
  PutString(out, result.message);
  PutU32(out, static_cast<uint32_t>(result.rows.size()));
  for (const QueryInfo& row : result.rows) {
    PutString(out, row.name);
    PutString(out, row.stream);
    PutString(out, row.text);
  }
  PutU32(out, static_cast<uint32_t>(result.stream_names.size()));
  for (const std::string& name : result.stream_names) PutString(out, name);
}

Result<DdlReply> ReadDdlReply(PayloadReader* in) {
  DdlReply reply;
  ZS_ASSIGN_OR_RETURN(uint8_t kind, in->ReadU8());
  if (kind > static_cast<uint8_t>(DdlKind::kSelect)) {
    return Status::ParseError("unknown DDL result kind " +
                              std::to_string(kind))
        .WithErrorCode(errc::kNetTruncatedPayload);
  }
  reply.kind = static_cast<DdlKind>(kind);
  ZS_ASSIGN_OR_RETURN(reply.name, in->ReadString());
  ZS_ASSIGN_OR_RETURN(reply.message, in->ReadString());
  ZS_ASSIGN_OR_RETURN(uint32_t nrows, in->ReadU32());
  if (nrows > kMaxBatchEvents) {
    return Status::ParseError("DDL row count exceeds bound")
        .WithErrorCode(errc::kNetBatchTooLarge);
  }
  for (uint32_t i = 0; i < nrows; ++i) {
    QueryInfo row;
    ZS_ASSIGN_OR_RETURN(row.name, in->ReadString());
    ZS_ASSIGN_OR_RETURN(row.stream, in->ReadString());
    ZS_ASSIGN_OR_RETURN(row.text, in->ReadString());
    reply.rows.push_back(std::move(row));
  }
  ZS_ASSIGN_OR_RETURN(uint32_t nstreams, in->ReadU32());
  if (nstreams > kMaxBatchEvents) {
    return Status::ParseError("stream name count exceeds bound")
        .WithErrorCode(errc::kNetBatchTooLarge);
  }
  for (uint32_t i = 0; i < nstreams; ++i) {
    ZS_ASSIGN_OR_RETURN(std::string name, in->ReadString());
    reply.stream_names.push_back(std::move(name));
  }
  return reply;
}

void AppendStatusPayload(std::string* out, const Status& status) {
  PutU8(out, static_cast<uint8_t>(status.code()));
  PutString(out, status.error_code());
  PutU32(out, static_cast<uint32_t>(status.line()));
  PutU32(out, static_cast<uint32_t>(status.column()));
  PutString(out, status.message());
}

Status DecodeErrorPayload(PayloadReader* in, Status* decoded) {
  ZS_ASSIGN_OR_RETURN(uint8_t code, in->ReadU8());
  ZS_ASSIGN_OR_RETURN(std::string error_code, in->ReadString());
  ZS_ASSIGN_OR_RETURN(uint32_t line, in->ReadU32());
  ZS_ASSIGN_OR_RETURN(uint32_t column, in->ReadU32());
  ZS_ASSIGN_OR_RETURN(std::string message, in->ReadString());
  Status status = MakeStatus(code, std::move(message));
  if (!error_code.empty()) status = status.WithErrorCode(error_code);
  if (line > 0) {
    status = status.WithLocation(static_cast<int>(line),
                                 static_cast<int>(column));
  }
  *decoded = std::move(status);
  return Status::OK();
}

void AppendFlushAck(std::string* out, const FlushAck& ack) {
  PutU32(out, static_cast<uint32_t>(ack.queries.size()));
  for (const auto& [name, matches] : ack.queries) {
    PutString(out, name);
    PutU64(out, matches);
  }
}

Result<FlushAck> ReadFlushAck(PayloadReader* in) {
  FlushAck ack;
  ZS_ASSIGN_OR_RETURN(uint32_t count, in->ReadU32());
  if (count > kMaxBatchEvents) {
    return Status::ParseError("flush ack query count exceeds bound")
        .WithErrorCode(errc::kNetBatchTooLarge);
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::pair<std::string, uint64_t> entry;
    ZS_ASSIGN_OR_RETURN(entry.first, in->ReadString());
    ZS_ASSIGN_OR_RETURN(entry.second, in->ReadU64());
    ack.queries.push_back(std::move(entry));
  }
  return ack;
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

void AppendFrame(std::string* out, MsgType type, uint8_t flags,
                 std::string_view payload) {
  PutU8(out, kProtocolVersion);
  PutU8(out, static_cast<uint8_t>(type));
  PutU8(out, flags);
  PutU8(out, 0);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload.data(), payload.size());
}

ZS_HOT void FrameParser::Append(const char* data, size_t n) {
  buf_.append(data, n);
}

ZS_HOT void FrameParser::Consume(size_t n) {
  consumed_ += n;
  if (consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10) && consumed_ >= buf_.size() / 2) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
}

ZS_HOT Result<std::optional<FrameParser::Frame>> FrameParser::Next() {
  if (!fatal_.ok()) return fatal_;
  if (skip_ > 0) {
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(skip_, buf_.size() - consumed_));
    Consume(take);
    skip_ -= take;
    if (skip_ > 0) return std::optional<Frame>();  // need more to skip
  }
  if (buf_.size() - consumed_ < kFrameHeaderSize) {
    return std::optional<Frame>();
  }
  const uint8_t* h =
      reinterpret_cast<const uint8_t*>(buf_.data()) + consumed_;
  const uint8_t version = h[0];
  const uint8_t raw_type = h[1];
  const uint8_t flags = h[2];
  const uint32_t length = LoadU32(h + 4);
  if (version != kProtocolVersion) {
    // The header itself is untrusted, so the length field cannot be
    // used to resynchronize (a foreign-protocol peer would decode
    // garbage lengths and black-hole the stream). Fatal: the caller
    // must drop the connection.
    fatal_ = Status::InvalidArgument("unsupported protocol version " +
                                     std::to_string(version))
                 .WithErrorCode(errc::kNetBadVersion);
    return fatal_;
  }
  if (!IsValidMsgType(raw_type)) {
    Consume(kFrameHeaderSize);
    skip_ = length;
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(raw_type))
        .WithErrorCode(errc::kNetUnknownType);
  }
  if (length > max_payload_) {
    Consume(kFrameHeaderSize);
    skip_ = length;
    return Status::InvalidArgument(
               "frame payload of " + std::to_string(length) +
               " bytes exceeds the " + std::to_string(max_payload_) +
               "-byte bound")
        .WithErrorCode(errc::kNetOversizedFrame);
  }
  if (buf_.size() - consumed_ < kFrameHeaderSize + length) {
    return std::optional<Frame>();  // wait for the full payload
  }
  Frame frame;
  frame.header.type = static_cast<MsgType>(raw_type);
  frame.header.flags = flags;
  frame.header.length = length;
  frame.payload = buf_.substr(consumed_ + kFrameHeaderSize, length);
  Consume(kFrameHeaderSize + length);
  return std::optional<Frame>(std::move(frame));
}

}  // namespace zstream::net
