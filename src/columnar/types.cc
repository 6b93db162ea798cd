#include "columnar/types.h"

namespace prost::columnar {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

Status Schema::AddField(Field field) {
  if (FieldIndex(field.name) >= 0) {
    return Status::AlreadyExists("duplicate field name: " + field.name);
  }
  fields_.push_back(std::move(field));
  return Status::OK();
}

int Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace prost::columnar
