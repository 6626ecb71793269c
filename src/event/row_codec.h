// The byte encoding of values and event rows.
//
// Shared by the wire protocol (net/protocol.h frames it) and the runtime
// (runtime/stream_runtime.h routes encoded rows by key hashes read from
// the bytes and decodes them on the shard worker that runs them), so it
// sits below both.
//
// All multi-byte integers are little-endian regardless of host order;
// doubles travel as the LE bytes of their IEEE-754 bit pattern — the
// encoding is endian-stable by construction, never by memcpy of host
// representations. A value is a u8 ValueType tag and its payload (null:
// none; bool: u8; int64: i64; double: f64; string: u32 length + raw
// bytes). A row is an i64 timestamp, a u16 value count and the values.
//
// The checks a row must pass live in one place, ScanRow: ReadEvent
// decodes through it, and the runtime's router reads key hashes through
// it (FieldView::Hash equals Value::Hash of the decoded value).
#ifndef ZSTREAM_EVENT_ROW_CODEC_H_
#define ZSTREAM_EVENT_ROW_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "common/value.h"
#include "event/event.h"

namespace zstream::codec {

// ---------------------------------------------------------------------
// Primitive encoding (append to a std::string buffer)
// ---------------------------------------------------------------------

void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutF64(std::string* out, double v);
void PutString(std::string* out, std::string_view s);

/// \brief Bounds-checked cursor over one payload. Every getter fails
/// with a ZS-N0004 ParseError instead of reading past the end, so
/// truncated payloads surface as coded errors.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  Result<uint8_t> ReadU8() {
    if (remaining() < 1) return Truncated("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint16_t> ReadU16() {
    if (remaining() < 2) return Truncated("u16");
    const uint16_t v = static_cast<uint16_t>(Load(2));
    pos_ += 2;
    return v;
  }
  Result<uint32_t> ReadU32() {
    if (remaining() < 4) return Truncated("u32");
    const uint32_t v = static_cast<uint32_t>(Load(4));
    pos_ += 4;
    return v;
  }
  Result<uint64_t> ReadU64() {
    if (remaining() < 8) return Truncated("u64");
    const uint64_t v = Load(8);
    pos_ += 8;
    return v;
  }
  Result<int64_t> ReadI64();
  Result<double> ReadF64();
  Result<std::string> ReadString();
  /// A u32-length-prefixed byte string, viewed in place.
  Result<std::string_view> ReadStringView();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// Bytes consumed so far.
  size_t position() const { return pos_; }
  /// The bytes [from, position()).
  std::string_view ConsumedSince(size_t from) const {
    return data_.substr(from, pos_ - from);
  }
  /// ParseError when trailing bytes remain (strict decoders call this
  /// last).
  Status ExpectEnd() const;

 private:
  Status Truncated(const char* what) const;
  /// The `n`-byte little-endian integer at the cursor (bounds checked by
  /// the caller).
  uint64_t Load(int n) const {
    const auto* p = reinterpret_cast<const uint8_t*>(data_.data()) + pos_;
    uint64_t v = 0;
    for (int i = n - 1; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Values and rows
// ---------------------------------------------------------------------

/// \brief One encoded value as read, before any Value is built. `text`
/// views the reader's bytes.
struct FieldView {
  ValueType type = ValueType::kNull;
  bool flag = false;
  int64_t integer = 0;
  double real = 0;
  std::string_view text;

  Value ToValue() const;
  /// Equals ToValue().Hash(), without building the Value.
  size_t Hash() const;
};

/// Reads one tagged value (ZS-N0004 on a truncated payload or an
/// unknown tag).
Result<FieldView> ReadField(PayloadReader* in);

void AppendValue(std::string* out, const Value& v);
Result<Value> ReadValue(PayloadReader* in);

/// The coded errors of ScanRow's checks (out of line: cold).
Status RowTimestampError(int64_t ts);
Status RowCountError(uint16_t count, const Schema& schema);
Status RowTypeError(const Schema& schema, int field, ValueType got);

/// Reads one row against `schema` and checks it: the timestamp lies in
/// the valid event range (ZS-N0009), the value count equals the schema's
/// field count and every non-null value carries the declared type
/// (ZS-N0006), and no read runs past the payload (ZS-N0004). Calls
/// `visit(field_index, const FieldView&)` for each value in order, as it
/// passes its checks, and returns the row's timestamp.
template <typename Visit>
Result<Timestamp> ScanRow(PayloadReader* in, const Schema& schema,
                          Visit&& visit) {
  ZS_ASSIGN_OR_RETURN(const int64_t ts, in->ReadI64());
  if (!IsValidEventTimestamp(ts)) return RowTimestampError(ts);
  ZS_ASSIGN_OR_RETURN(const uint16_t count, in->ReadU16());
  if (static_cast<int>(count) != schema.num_fields()) {
    return RowCountError(count, schema);
  }
  for (int i = 0; i < count; ++i) {
    ZS_ASSIGN_OR_RETURN(const FieldView field, ReadField(in));
    if (field.type != ValueType::kNull &&
        field.type != schema.field(i).type) {
      return RowTypeError(schema, i, field.type);
    }
    visit(i, field);
  }
  return ts;
}

/// One event row: i64 timestamp, u16 value count, values.
void AppendEvent(std::string* out, const Event& event);
/// Decodes one event row against `schema`, checked as ScanRow says.
/// Allocates the event (make_shared) and its values.
Result<EventPtr> ReadEvent(PayloadReader* in, const SchemaPtr& schema);

}  // namespace zstream::codec

#endif  // ZSTREAM_EVENT_ROW_CODEC_H_
