#ifndef PROST_CORE_PROPERTY_TABLE_H_
#define PROST_CORE_PROPERTY_TABLE_H_

#include <map>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "columnar/buffer_pool.h"
#include "columnar/paged_table.h"
#include "columnar/table.h"
#include "common/status.h"
#include "core/pattern_term.h"
#include "core/scan_support.h"
#include "core/statistics.h"
#include "engine/exec_context.h"
#include "engine/relation.h"
#include "rdf/graph.h"

namespace prost::core {

/// The Property Table (§3.1): one wide table with a row per distinct
/// subject and a column per predicate. Cells without a value are NULL
/// (collapsed on disk by run-length encoding); predicates that are
/// multi-valued anywhere in the dataset become list columns, which the
/// scan flattens exactly like Spark's explode.
///
/// Rows are hash-partitioned on the subject so each subject's row lives
/// entirely on one worker — the co-location that lets a same-subject
/// pattern group run as a single select with zero joins.
///
/// `keyed_on_object = true` builds the future-work variant from §5: rows
/// keyed by *object*, beneficial for same-object pattern groups.
///
/// Every partition is held as PagedTable row groups (zone maps plus a key
/// bloom filter) and scanned through the table's BufferPool.
class PropertyTable {
 public:
  /// One pattern evaluated inside this table: a predicate column and the
  /// pattern's object (or, for the reverse table, subject) position.
  struct ColumnPattern {
    rdf::TermId predicate = rdf::kNullTermId;
    PatternTerm value;  // Object position (subject for reverse tables).
  };

  PropertyTable() = default;
  PropertyTable(const PropertyTable&) = delete;
  PropertyTable& operator=(const PropertyTable&) = delete;
  PropertyTable(PropertyTable&&) = default;
  PropertyTable& operator=(PropertyTable&&) = default;

  /// Builds the table from an encoded graph, packed into row groups of
  /// `row_group_rows` rows (0 = columnar::kRowGroupSize). Scans pin
  /// through `pool`, which must outlive the table.
  static PropertyTable Build(const rdf::EncodedGraph& graph,
                             const DatasetStatistics& stats,
                             uint32_t num_workers, columnar::BufferPool& pool,
                             bool keyed_on_object = false,
                             uint32_t row_group_rows = 0);

  /// Reassembles a table from persisted partitions (column 0 is the key;
  /// the remaining field names are predicate lexical forms, resolved
  /// against `dictionary`). All partitions must share one schema.
  static Result<PropertyTable> Assemble(
      std::vector<columnar::StoredTable> partitions,
      const rdf::Dictionary& dictionary, bool keyed_on_object,
      columnar::BufferPool& pool, uint32_t row_group_rows = 0);

  /// True when `predicate` has a column in this table.
  bool HasPredicate(rdf::TermId predicate) const {
    return column_of_predicate_.count(predicate) > 0;
  }

  /// Evaluates a same-key pattern group. `key` is the shared subject
  /// (object for reverse tables); each ColumnPattern contributes one
  /// bound column. Variables repeated across patterns (including the key
  /// variable) are joined within the row. Charges only the touched
  /// columns' bytes to `cost` — the columnar pruning that makes the PT
  /// cheap to scan despite its width. Each partition is one scan task
  /// writing its own output chunk, so the output is bit-identical at any
  /// thread count; cost charges stay on the calling thread.
  /// Row groups are skipped before decode whenever (a) a zone map
  /// excludes a constant or an equality-`hint` id for the column its
  /// variable binds, or (b) any touched predicate column is all-NULL in
  /// the group (every row of the group would lose that pattern anyway);
  /// the key bloom filter skips whole partitions on constant-key lookups.
  /// Skips leave the result unchanged, lower the scan's cost charges and
  /// are reported through `telemetry` when given.
  Result<engine::Relation> Scan(const PatternTerm& key,
                                const std::vector<ColumnPattern>& patterns,
                                cluster::CostModel& cost,
                                const engine::ExecContext* exec = nullptr,
                                const ScanHints* hints = nullptr,
                                ScanTelemetry* telemetry = nullptr) const;

  /// The planner-visible size of a Scan over `patterns` — exactly the
  /// `Relation::PlannerBytes` the scan output will carry: the key column
  /// plus each touched predicate column, once, per partition. Patterns
  /// whose predicate has no column (or whose constant cannot exist) touch
  /// nothing, matching the Scan charging rules.
  uint64_t ScanPlannerBytes(const std::vector<ColumnPattern>& patterns) const;

  uint32_t num_workers() const { return num_workers_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return column_of_predicate_.size() + 1; }
  bool keyed_on_object() const { return keyed_on_object_; }

  /// Sum of serialized-size estimates over all partitions.
  uint64_t TotalBytesEstimate() const;

  /// Persists partitions as lexical files under `dir`
  /// (pt_p<worker>.tbl / ptrev_p<worker>.tbl).
  Status WriteTo(const std::string& dir,
                 const rdf::Dictionary& dictionary) const;

 private:
  /// Appends one decoded partition: its per-column lexical size
  /// estimates and its row groups. The caller drops the decoded form
  /// afterwards, so it is never resident beside the paged one.
  void AddPartition(const columnar::StoredTable& part,
                    const std::vector<uint32_t>& term_lengths,
                    uint32_t row_group_rows);

  uint32_t num_workers_ = 0;
  uint64_t num_rows_ = 0;
  bool keyed_on_object_ = false;
  /// paged_[w]: column 0 is the key ("s"), then predicate columns.
  std::vector<columnar::PagedTable> paged_;
  columnar::BufferPool* pool_ = nullptr;  // Non-owning.
  /// Per-partition, per-column serialized-byte estimates (scan charges).
  std::vector<std::vector<uint64_t>> column_bytes_;
  std::map<rdf::TermId, size_t> column_of_predicate_;
};

}  // namespace prost::core

#endif  // PROST_CORE_PROPERTY_TABLE_H_
