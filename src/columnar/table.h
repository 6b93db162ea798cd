#ifndef PROST_COLUMNAR_TABLE_H_
#define PROST_COLUMNAR_TABLE_H_

#include <string>
#include <vector>

#include "columnar/column.h"
#include "columnar/types.h"
#include "common/status.h"

namespace prost::columnar {

/// A decoded columnar table: a schema plus one column per field, all with
/// the same row count. Stores hold their data as PagedTable row groups;
/// a StoredTable is the transient decoded form a load builds, and the
/// form the lexical file format (lexical_format.h) reads and writes.
class StoredTable {
 public:
  StoredTable() = default;
  explicit StoredTable(Schema schema) : schema_(std::move(schema)) {
    columns_.resize(schema_.num_fields());
  }
  StoredTable(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].num_rows();
  }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Column by field name; error when the field does not exist.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Validates that all columns have equal row counts and kinds matching
  /// the schema.
  Status Validate() const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
};

/// Serialized-size estimate of one column under the best adaptive
/// encoding (used for per-column scan-cost accounting).
uint64_t ColumnSerializedSizeEstimate(const Column& column);

/// Size estimate of one column in the *lexical* on-disk form
/// (lexical_format.h): distinct values' string bytes (the local
/// dictionary) plus the encoded index stream. This is what the simulated
/// Spark planner and scanner see — Parquet string columns, not raw ids.
/// `term_lengths` comes from rdf::Dictionary::TermLengths().
uint64_t LexicalColumnSizeEstimate(const Column& column,
                                   const std::vector<uint32_t>& term_lengths);

}  // namespace prost::columnar

#endif  // PROST_COLUMNAR_TABLE_H_
