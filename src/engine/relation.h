#ifndef PROST_ENGINE_RELATION_H_
#define PROST_ENGINE_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "columnar/column.h"
#include "common/status.h"

namespace prost::engine {

using columnar::IdVector;
using rdf::TermId;

/// One worker's slice of a distributed relation: equal-length flat id
/// columns (column-oriented).
struct RelationChunk {
  std::vector<IdVector> columns;

  size_t num_rows() const { return columns.empty() ? 0 : columns[0].size(); }
};

/// A row materialized from a relation (testing / result collection).
using Row = std::vector<TermId>;

/// A distributed relation: named columns (SPARQL variable names), one
/// chunk per worker. This is the engine's DataFrame equivalent.
class Relation {
 public:
  Relation() = default;
  /// Creates an empty relation with `num_workers` empty chunks.
  Relation(std::vector<std::string> column_names, uint32_t num_workers);

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  size_t num_columns() const { return column_names_.size(); }
  int ColumnIndex(const std::string& name) const;

  const std::vector<RelationChunk>& chunks() const { return chunks_; }
  std::vector<RelationChunk>& mutable_chunks() { return chunks_; }
  uint32_t num_chunks() const { return static_cast<uint32_t>(chunks_.size()); }

  /// Sum of rows across chunks.
  uint64_t TotalRows() const;

  /// Estimated wire size (rows * columns * bytes_per_value).
  uint64_t EstimatedBytes(const cluster::ClusterConfig& config) const;

  /// Column index this relation is hash-partitioned by, or -1 when the
  /// placement carries no co-location guarantee. Joins use this to skip
  /// redundant shuffles, mirroring Spark's `outputPartitioning`.
  int hash_partitioned_by() const { return hash_partitioned_by_; }
  void set_hash_partitioned_by(int column) { hash_partitioned_by_ = column; }

  /// Checks chunk/column shape consistency.
  Status Validate() const;

  /// Gathers all rows to the caller (like Spark collect()).
  std::vector<Row> CollectRows() const;

  /// Collected rows, sorted — canonical form for result comparison.
  std::vector<Row> CollectSortedRows() const;

  /// Builds a single-chunk relation from rows (testing convenience).
  static Relation FromRows(std::vector<std::string> column_names,
                           const std::vector<Row>& rows,
                           uint32_t num_workers);

 private:
  std::vector<std::string> column_names_;
  std::vector<RelationChunk> chunks_;
  int hash_partitioned_by_ = -1;
};

}  // namespace prost::engine

#endif  // PROST_ENGINE_RELATION_H_
