#ifndef PROST_COLUMNAR_TYPES_H_
#define PROST_COLUMNAR_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace prost::columnar {

/// Physical column kinds. All values are dictionary-encoded term ids
/// (rdf::TermId); `kIdList` is the list column used for multi-valued
/// Property Table predicates (§3.1 of the paper).
enum class ColumnKind : uint8_t {
  kId = 0,
  kIdList = 1,
};

/// A named, typed column slot in a schema.
struct Field {
  std::string name;
  ColumnKind kind = ColumnKind::kId;

  bool operator==(const Field& other) const = default;
};

/// An ordered list of fields. Field names are unique within a schema.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  /// Appends a field; fails if the name already exists.
  Status AddField(Field field);

  const std::vector<Field>& fields() const { return fields_; }
  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }

  /// Index of the field named `name`, or -1 when absent.
  int FieldIndex(const std::string& name) const;

  bool operator==(const Schema& other) const {
    return fields_ == other.fields_;
  }

 private:
  std::vector<Field> fields_;
};

}  // namespace prost::columnar

#endif  // PROST_COLUMNAR_TYPES_H_
