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

  /// True when `predicate` has a column in this table.
  bool HasPredicate(rdf::TermId predicate) const {
    return column_of_predicate_.count(predicate) > 0;
  }

  /// Evaluates a same-key pattern group. `key` is the shared subject
  /// (object for reverse tables); each ColumnPattern contributes one
  /// bound column. Variables repeated across patterns (including the key
  /// variable) are joined within the row. Charges only the touched
  /// columns' bytes to `cost`, one charge unit per column — the columnar
  /// pruning that makes the PT cheap to scan despite its width.
  /// Row groups are skipped before decode whenever (a) a zone map
  /// excludes a constant or an equality-`hint` id for the column its
  /// variable binds, or (b) any touched predicate column is all-NULL in
  /// the group; the key bloom filter skips whole partitions on
  /// constant-key lookups. Skips lower the charges and are reported
  /// through `telemetry` when given. The surviving groups are scanned by
  /// core::ScanRowGroups, whose runs of groups make the output
  /// bit-identical at any thread count.
  Result<engine::Relation> Scan(const PatternTerm& key,
                                const std::vector<ColumnPattern>& patterns,
                                cluster::CostModel& cost,
                                const engine::ExecContext* exec = nullptr,
                                const ScanHints* hints = nullptr,
                                ScanTelemetry* telemetry = nullptr) const;

  /// The planner-visible size of a Scan over `patterns`: the key column
  /// plus each touched predicate column, once, per partition (Parquet
  /// column pruning is visible to Spark's relation statistics). Patterns
  /// whose predicate has no column (or whose constant cannot exist) touch
  /// nothing, matching the Scan charging rules.
  uint64_t ScanPlannerBytes(const std::vector<ColumnPattern>& patterns) const;

  uint32_t num_workers() const { return num_workers_; }
  /// Partition `w`'s row groups (column 0 is the key, then one column
  /// per predicate, named by its lexical form).
  const columnar::PagedTable& partition(uint32_t w) const {
    return paged_[w];
  }
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
  /// The columns a scan over `patterns` touches and what they cost: the
  /// one charging rule Scan and ScanPlannerBytes share.
  struct ChargedColumns {
    /// Per pattern: its table column, or -1 when the predicate has no
    /// column or its constant cannot exist.
    std::vector<int> pattern_column;
    /// The key column (0) first, then each touched column once.
    std::vector<size_t> columns;
    /// Per partition: the lexical bytes of `columns`.
    std::vector<uint64_t> partition_bytes;
    /// Sum of `partition_bytes`: the planner-visible scan size.
    uint64_t planner_bytes = 0;
  };
  ChargedColumns ChargeColumns(
      const std::vector<ColumnPattern>& patterns) const;

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
