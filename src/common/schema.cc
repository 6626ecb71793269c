#include "common/schema.h"

#include <sstream>

namespace zstream {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  for (size_t i = 0; i < fields_.size(); ++i) {
    index_.emplace(fields_[i].name, static_cast<int>(i));
  }
}

int Schema::FieldIndex(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

Result<int> Schema::RequireField(const std::string& name) const {
  const int idx = FieldIndex(name);
  if (idx < 0) {
    return Status::SemanticError("unknown attribute '" + name +
                                 "' (schema: " + ToString() + ")");
  }
  return idx;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) os << ", ";
    os << fields_[i].name << ":" << ValueTypeName(fields_[i].type);
  }
  os << ")";
  return os.str();
}

bool SchemasEqual(const Schema& a, const Schema& b) {
  if (a.num_fields() != b.num_fields()) return false;
  for (int i = 0; i < a.num_fields(); ++i) {
    if (a.field(i).name != b.field(i).name ||
        a.field(i).type != b.field(i).type) {
      return false;
    }
  }
  return true;
}

}  // namespace zstream
