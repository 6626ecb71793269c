#include "event/row_codec.h"

#include <bit>
#include <memory>
#include <vector>

#include "query/error_codes.h"

namespace zstream::codec {

// ---------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------

// Each width is one append of bytes cut by shifts: little-endian by
// construction on any host.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  const char bytes[2] = {static_cast<char>(v), static_cast<char>(v >> 8)};
  out->append(bytes, sizeof(bytes));
}

void PutU32(std::string* out, uint32_t v) {
  const char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                         static_cast<char>(v >> 16),
                         static_cast<char>(v >> 24)};
  out->append(bytes, sizeof(bytes));
}

void PutU64(std::string* out, uint64_t v) {
  const char bytes[8] = {
      static_cast<char>(v),       static_cast<char>(v >> 8),
      static_cast<char>(v >> 16), static_cast<char>(v >> 24),
      static_cast<char>(v >> 32), static_cast<char>(v >> 40),
      static_cast<char>(v >> 48), static_cast<char>(v >> 56)};
  out->append(bytes, sizeof(bytes));
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

Status PayloadReader::Truncated(const char* what) const {
  return Status::ParseError(std::string("truncated payload: expected ") +
                            what)
      .WithErrorCode(errc::kNetTruncatedPayload);
}

Result<int64_t> PayloadReader::ReadI64() {
  ZS_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> PayloadReader::ReadF64() {
  ZS_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return std::bit_cast<double>(v);
}

Result<std::string_view> PayloadReader::ReadStringView() {
  ZS_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  if (remaining() < len) return Truncated("string bytes");
  const std::string_view s = data_.substr(pos_, len);
  pos_ += len;
  return s;
}

Result<std::string> PayloadReader::ReadString() {
  ZS_ASSIGN_OR_RETURN(std::string_view s, ReadStringView());
  return std::string(s);
}

Status PayloadReader::ExpectEnd() const {
  if (AtEnd()) return Status::OK();
  return Status::ParseError("trailing bytes after payload")
      .WithErrorCode(errc::kNetTruncatedPayload);
}

// ---------------------------------------------------------------------
// Values and rows
// ---------------------------------------------------------------------

Value FieldView::ToValue() const {
  switch (type) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      return Value(flag);
    case ValueType::kInt64:
      return Value(integer);
    case ValueType::kDouble:
      return Value(real);
    case ValueType::kString:
      return Value(std::string(text));
  }
  return Value::Null();
}

size_t FieldView::Hash() const {
  switch (type) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      return HashBoolValue(flag);
    case ValueType::kInt64:
      return HashNumericValue(static_cast<double>(integer));
    case ValueType::kDouble:
      return HashNumericValue(real);
    case ValueType::kString:
      return HashStringValue(text);
  }
  return HashNullValue();
}

Result<FieldView> ReadField(PayloadReader* in) {
  ZS_ASSIGN_OR_RETURN(uint8_t tag, in->ReadU8());
  FieldView field;
  field.type = static_cast<ValueType>(tag);
  switch (field.type) {
    case ValueType::kNull:
      return field;
    case ValueType::kBool: {
      ZS_ASSIGN_OR_RETURN(uint8_t b, in->ReadU8());
      field.flag = b != 0;
      return field;
    }
    case ValueType::kInt64: {
      ZS_ASSIGN_OR_RETURN(field.integer, in->ReadI64());
      return field;
    }
    case ValueType::kDouble: {
      ZS_ASSIGN_OR_RETURN(field.real, in->ReadF64());
      return field;
    }
    case ValueType::kString: {
      ZS_ASSIGN_OR_RETURN(field.text, in->ReadStringView());
      return field;
    }
  }
  return Status::ParseError("unknown value type tag " +
                            std::to_string(tag))
      .WithErrorCode(errc::kNetTruncatedPayload);
}

void AppendValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      PutU8(out, v.bool_value() ? 1 : 0);
      break;
    case ValueType::kInt64:
      PutI64(out, v.int64_value());
      break;
    case ValueType::kDouble:
      PutF64(out, v.double_value());
      break;
    case ValueType::kString:
      PutString(out, v.string_value());
      break;
  }
}

Result<Value> ReadValue(PayloadReader* in) {
  ZS_ASSIGN_OR_RETURN(FieldView field, ReadField(in));
  return field.ToValue();
}

Status RowTimestampError(int64_t ts) {
  return Status::ParseError("event timestamp " + std::to_string(ts) +
                            " outside the valid range +/-2^62")
      .WithErrorCode(errc::kNetBadTimestamp);
}

Status RowCountError(uint16_t count, const Schema& schema) {
  return Status::SemanticError("event carries " + std::to_string(count) +
                               " values, stream schema has " +
                               std::to_string(schema.num_fields()) +
                               " fields")
      .WithErrorCode(errc::kNetSchemaMismatch);
}

Status RowTypeError(const Schema& schema, int field, ValueType got) {
  return Status::SemanticError(
             "field '" + schema.field(field).name + "' expects " +
             ValueTypeName(schema.field(field).type) + ", got " +
             ValueTypeName(got))
      .WithErrorCode(errc::kNetSchemaMismatch);
}

void AppendEvent(std::string* out, const Event& event) {
  PutI64(out, event.timestamp());
  PutU16(out, static_cast<uint16_t>(event.values().size()));
  for (const Value& v : event.values()) AppendValue(out, v);
}

Result<EventPtr> ReadEvent(PayloadReader* in, const SchemaPtr& schema) {
  std::vector<Value> values;
  values.reserve(static_cast<size_t>(schema->num_fields()));
  ZS_ASSIGN_OR_RETURN(
      const Timestamp ts,
      ScanRow(in, *schema, [&values](int, const FieldView& field) {
        values.push_back(field.ToValue());
      }));
  return EventPtr(std::make_shared<Event>(schema, std::move(values), ts));
}

}  // namespace zstream::codec
