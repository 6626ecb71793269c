// The ZStream wire protocol: length-prefixed frames over a byte stream.
//
// Every message is one frame:
//
//   byte 0      protocol version (kProtocolVersion)
//   byte 1      message type (MsgType)
//   byte 2      flags (kFlag*)
//   byte 3      reserved, 0
//   bytes 4..7  payload length, unsigned 32-bit little-endian
//   bytes 8..   payload (length bytes)
//
// All multi-byte integers on the wire are little-endian regardless of
// host order; doubles travel as the LE bytes of their IEEE-754 bit
// pattern — the serialization is endian-stable by construction, never
// by memcpy of host representations. Strings are a u32 length followed
// by raw bytes. Values and event rows use the row codec of
// event/row_codec.h, which the runtime shares: the server hands a
// batch's rows to the runtime still encoded. Frame payloads are bounded
// (kMaxFramePayload, and a lower per-connection limit if the server
// configures one); a peer that announces a larger frame gets a coded
// error and the oversized payload is skipped, so one bad frame never
// kills the connection.
//
// Message catalogue (direction, payload):
//
//   kDdl           c->s  DDL statement text (non-empty)
//   kDdlResult     s->c  DdlReply: kind, name, message, rows
//   kEventBatch    c->s  stream name + typed event rows
//   kIngestAck     s->c  accepted/dropped counts (kFlagThrottle set
//                        when the runtime dropped under backpressure)
//   kSubscribe     c->s  query name
//   kSubscribeAck  s->c  query name + stream name + schema rows
//   kUnsubscribe   c->s  query name
//   kUnsubscribeAck s->c query name
//   kMatch         s->c  query name + match (span, slots, Kleene group)
//   kFlush         c->s  empty; barrier over the runtime
//   kFlushAck      s->c  per-query match counts
//   kError         s->c  coded Status (code, ZS-xxxx, line/column, text)
//   kMetricsRequest c->s u8 format (0 Prometheus text, 1 JSON; an empty
//                        payload means 0)
//   kMetrics       s->c  the rendered metrics registry snapshot (same
//                        document the HTTP /metrics side port serves)
//   kTraceRequest  c->s  empty
//   kTrace         s->c  Chrome-trace JSON document (same document the
//                        HTTP /trace side port serves)
//
// Codes 10 and 11 (the former STATS request/reply) are retired: the
// parser refuses them like any unassigned type (ZS-N0002 unknown type,
// payload skipped, connection kept). Counters are read from kMetrics.
//
// This header (with event/row_codec.h for values and rows) is the
// single source of truth for the layout; see docs/protocol.md for the
// prose version.
#ifndef ZSTREAM_NET_PROTOCOL_H_
#define ZSTREAM_NET_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/zstream.h"
#include "common/result.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "event/event.h"
#include "event/row_codec.h"
#include "exec/engine.h"

namespace zstream::net {

/// Version history: 1 = initial framed protocol; 2 = kMatch carries a
/// group-presence byte before the group count (an empty-but-present
/// Kleene group is distinct from "no group"); 3 = kEventBatch and
/// kMatch carry a u64 trace id (0 = unsampled) so a sampled ingest's
/// spans join across client and server (obs/trace.h), plus the
/// kTraceRequest/kTrace message pair. Each layout change is
/// incompatible, so mixed-version peers must be rejected at the
/// version byte rather than misparse frames. Retiring the STATS
/// request/reply pair (codes 10/11) did not bump the version: no
/// remaining frame changed layout, and a v3 peer that still sends 10
/// gets a coded unknown-type error on a surviving connection, never a
/// misparse.
inline constexpr uint8_t kProtocolVersion = 3;
inline constexpr size_t kFrameHeaderSize = 8;
/// Hard upper bound on one frame's payload (16 MiB).
inline constexpr uint32_t kMaxFramePayload = 16u << 20;
/// Hard upper bound on events per kEventBatch frame.
inline constexpr uint32_t kMaxBatchEvents = 1u << 16;

enum class MsgType : uint8_t {
  kDdl = 1,
  kDdlResult = 2,
  kEventBatch = 3,
  kIngestAck = 4,
  kSubscribe = 5,
  kSubscribeAck = 6,
  kUnsubscribe = 7,
  kUnsubscribeAck = 8,
  kMatch = 9,
  // 10, 11: retired (STATS request/reply); refused by IsValidMsgType.
  kFlush = 12,
  kFlushAck = 13,
  kError = 14,
  kMetricsRequest = 15,
  kMetrics = 16,
  kTraceRequest = 17,
  kTrace = 18,
};

/// kMetricsRequest payload: the requested exposition format.
inline constexpr uint8_t kMetricsFormatPrometheus = 0;
inline constexpr uint8_t kMetricsFormatJson = 1;

const char* MsgTypeName(MsgType type);
bool IsValidMsgType(uint8_t raw);

/// kIngestAck: the runtime dropped events under BackpressurePolicy::
/// kDropNewest — the client should slow down (protocol-level flow
/// control; under kBlock the TCP window itself is the backpressure).
inline constexpr uint8_t kFlagThrottle = 0x01;

struct FrameHeader {
  MsgType type = MsgType::kError;
  uint8_t flags = 0;
  uint32_t length = 0;
};

// ---------------------------------------------------------------------
// Primitive encoding, values and event rows: the row codec
// (event/row_codec.h), which the runtime shares.
// ---------------------------------------------------------------------

using codec::AppendEvent;
using codec::AppendValue;
using codec::PayloadReader;
using codec::PutF64;
using codec::PutI64;
using codec::PutString;
using codec::PutU16;
using codec::PutU32;
using codec::PutU64;
using codec::PutU8;
using codec::ReadEvent;
using codec::ReadValue;

// ---------------------------------------------------------------------
// Schema rows, event batches, matches
// ---------------------------------------------------------------------

/// Schema rows: u32 field count, then {string name, u8 ValueType}.
void AppendSchema(std::string* out, const Schema& schema);
Result<SchemaPtr> ReadSchema(PayloadReader* in);

/// kEventBatch payload: string stream name, u64 trace id (0 =
/// unsampled batch), u32 count, event rows.
void AppendEventBatch(std::string* out, std::string_view stream,
                      const std::vector<EventPtr>& events, size_t from,
                      size_t count, uint64_t trace_id = 0);

/// \brief Decoded kMatch frame: an owning match whose slot/group events
/// were rebuilt against the subscription's schema, so client-side code
/// (including runtime::CanonicalMatchKey) treats it exactly like a
/// local match.
struct NetMatch {
  std::string query;
  /// Trace id of the sampled ingest that emitted the match (0 =
  /// untraced); lets the client's delivery span join the trace.
  uint64_t trace_id = 0;
  OwnedMatch match;
};

/// kMatch payload: string query name, u64 trace id, then the match body
/// (AppendMatchBody).
void AppendMatch(std::string* out, std::string_view query,
                 const Match& match, uint64_t trace_id = 0);
/// The match body: i64 span start and end, u32 slot count, per slot a
/// u8 presence byte and the event row when present, then a u8 group
/// presence byte and, when present, a u32 count and the group's rows.
void AppendMatchBody(std::string* out, const Match& match);
Result<NetMatch> ReadMatch(PayloadReader* in, const SchemaPtr& schema);

// ---------------------------------------------------------------------
// Control messages
// ---------------------------------------------------------------------

/// \brief Wire form of api DdlResult (the handle pointer obviously does
/// not travel).
struct DdlReply {
  DdlKind kind = DdlKind::kSelect;
  std::string name;
  std::string message;
  std::vector<QueryInfo> rows;           // SHOW QUERIES (pattern unset)
  std::vector<std::string> stream_names;  // SHOW STREAMS
};

void AppendDdlReply(std::string* out, const DdlResult& result);
Result<DdlReply> ReadDdlReply(PayloadReader* in);

/// kError payload: u8 StatusCode, string ZS-xxxx code, u32 line,
/// u32 column, string message. DecodeErrorPayload reconstructs the
/// transported (always non-OK) Status into *decoded; the return value
/// reports whether the payload itself parsed.
void AppendStatusPayload(std::string* out, const Status& status);
Status DecodeErrorPayload(PayloadReader* in, Status* decoded);

struct IngestAck {
  uint64_t accepted = 0;
  uint64_t dropped = 0;
  bool throttled = false;  // from kFlagThrottle
};

struct SubscribeAck {
  std::string query;
  std::string stream;
  SchemaPtr schema;
};

struct FlushAck {
  /// (query name, matches delivered so far), in registration order.
  std::vector<std::pair<std::string, uint64_t>> queries;
};

void AppendFlushAck(std::string* out, const FlushAck& ack);
Result<FlushAck> ReadFlushAck(PayloadReader* in);

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Appends an 8-byte header followed by `payload`.
void AppendFrame(std::string* out, MsgType type, uint8_t flags,
                 std::string_view payload);

/// \brief Incremental frame decoder for a TCP byte stream.
///
/// Feed arbitrary chunks with Append (partial frames, many frames per
/// chunk — any split works); Next() yields one complete frame at a
/// time. Recoverable protocol violations (unknown type, payload larger
/// than the configured bound — both behind a validated version byte,
/// so the announced length is trustworthy) return a coded error Status
/// ONCE, after which the offending frame's payload is skipped as it
/// arrives and parsing resumes at the next frame — the connection
/// survives. A bad version byte is FATAL: nothing after it can be
/// trusted (not even the length field), so every subsequent Next()
/// returns the same error and the caller must close the connection.
class FrameParser {
 public:
  explicit FrameParser(uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  struct Frame {
    FrameHeader header;
    std::string payload;
  };

  void Append(const char* data, size_t n);

  /// One of: a complete frame; std::nullopt (need more bytes); or an
  /// error Status for a protocol violation (recoverable, see above).
  Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed (diagnostics).
  size_t buffered() const { return buf_.size() - consumed_; }

  /// True after a fatal (unresynchronizable) violation — close the
  /// connection.
  bool broken() const { return !fatal_.ok(); }

 private:
  void Consume(size_t n);

  uint32_t max_payload_;
  std::string buf_;
  size_t consumed_ = 0;
  /// Payload bytes of a rejected frame still owed to the skip.
  uint64_t skip_ = 0;
  /// Set on a bad version byte; sticky.
  Status fatal_;
};

}  // namespace zstream::net

#endif  // ZSTREAM_NET_PROTOCOL_H_
