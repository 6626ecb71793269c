// Event schemas: named, typed attribute lists shared by all events of a
// stream (e.g. the paper's stock schema (id, name, price, volume, ts)).
#ifndef ZSTREAM_COMMON_SCHEMA_H_
#define ZSTREAM_COMMON_SCHEMA_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace zstream {

struct Field {
  std::string name;
  ValueType type = ValueType::kNull;
};

/// \brief Immutable attribute layout for a stream of primitive events.
class Schema {
 public:
  explicit Schema(std::vector<Field> fields);

  static std::shared_ptr<const Schema> Make(std::vector<Field> fields) {
    return std::make_shared<const Schema>(std::move(fields));
  }

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const Field& field(int i) const { return fields_[static_cast<size_t>(i)]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the attribute `name`, or -1 if absent.
  int FieldIndex(const std::string& name) const;

  /// Like FieldIndex but errors with the schema's field list on miss.
  Result<int> RequireField(const std::string& name) const;

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
  std::unordered_map<std::string, int> index_;
};

using SchemaPtr = std::shared_ptr<const Schema>;

/// Same field names and types, in the same order: events of one decode
/// and evaluate identically under the other.
bool SchemasEqual(const Schema& a, const Schema& b);

}  // namespace zstream

#endif  // ZSTREAM_COMMON_SCHEMA_H_
