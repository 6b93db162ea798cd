#ifndef PROST_CORE_SCAN_SUPPORT_H_
#define PROST_CORE_SCAN_SUPPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "columnar/buffer_pool.h"
#include "columnar/paged_table.h"
#include "core/pattern_term.h"
#include "rdf/triple.h"

namespace prost::core {

/// One pushed-filter fact a paged scan may prune with: rows where
/// `variable` binds to anything but `id` will be removed by the scan
/// node's own pushed filters, so row groups whose zone maps exclude `id`
/// (and partitions whose bloom filters exclude it, for key columns) can
/// be skipped without changing the query result. `id == kNullTermId`
/// means the filter constant is not in the dictionary — no stored row
/// can survive, so everything is skippable.
///
/// Only derived from equality filters against non-numeric constants:
/// numeric SPARQL equality is value-based ("1"^^xsd:integer equals
/// "01"^^xsd:integer under a different id), so those never become hints.
struct ScanEqualityHint {
  std::string variable;
  rdf::TermId id = rdf::kNullTermId;
};

struct ScanHints {
  std::vector<ScanEqualityHint> equals;
};

/// What a scan's row-group pruning did, for EXPLAIN ANALYZE and the
/// smoke guards. Stays zero when the scan read no table (an unknown
/// predicate).
struct ScanTelemetry {
  uint64_t row_groups_total = 0;
  uint64_t row_groups_skipped = 0;
  uint64_t partitions_skipped = 0;
  /// Scan bytes actually charged (lexical cost domain — comparable to
  /// the planner's estimate and to cluster::ExecutionCounters).
  uint64_t bytes_scanned = 0;
};

/// Metadata-only pruning of a paged partition's row groups, shared by the
/// VP and PT scans (DESIGN.md §15). The key bloom filter kills whole
/// partitions on constrained keys; a row group dies when a zone map
/// excludes an id its column is constrained to equal, or when a column
/// every surviving row needs a value in is all-NULL in the group. Nothing
/// is decoded: a skipped group could only have produced rows that the
/// pattern constants or pushed filters remove anyway.
class RowGroupPruner {
 public:
  /// Lexical bytes of some storage columns of one partition, charged over
  /// row groups in proportion to those columns' encoded chunk bytes.
  struct ChargeUnit {
    std::vector<size_t> columns;
    uint64_t lexical_bytes = 0;
  };

  /// What survives pruning in one partition.
  struct Partition {
    std::vector<uint32_t> groups;  // Surviving row groups, ascending.
    uint64_t rows = 0;             // Rows in `groups`.
    uint64_t charged_bytes = 0;    // Their charge, summed over units.
  };

  /// `bindings` pairs each storage column with the pattern term it binds
  /// (column 0 is the key column the bloom filter covers). A constant
  /// term constrains its column to its id; a variable term constrains it
  /// to every equality hint on that variable — a hint of kNullTermId then
  /// matches no zone map, which is right, since no stored row can survive
  /// a filter constant outside the dictionary. `non_null_columns` lists
  /// the columns a row must hold a value in to produce output.
  RowGroupPruner(
      size_t num_columns,
      const std::vector<std::pair<size_t, const PatternTerm*>>& bindings,
      const ScanHints* hints, std::vector<size_t> non_null_columns = {});

  /// Prunes one partition: key bloom first, then every group's zone maps.
  /// Adds row_groups_total, row_groups_skipped and partitions_skipped to
  /// `telemetry`; the caller owns bytes_scanned.
  Partition Prune(const columnar::PagedTable& paged,
                  const std::vector<ChargeUnit>& units,
                  ScanTelemetry& telemetry) const;

  /// The charge of `unit` on each row group of `paged`. Floored
  /// cumulatively, so the charges telescope to exactly unit.lexical_bytes
  /// and a scan that skips nothing charges the unit's full lexical bytes.
  static std::vector<uint64_t> GroupCharges(const columnar::PagedTable& paged,
                                            const ChargeUnit& unit);

  /// Zone-map test: can a chunk with these stats hold `id`? NULLs never
  /// enter min/max, and an all-NULL chunk (value_count == 0) holds none.
  static bool ZoneMayContain(const columnar::ColumnStats& stats,
                             rdf::TermId id);

 private:
  std::vector<std::vector<rdf::TermId>> column_eq_;
  std::vector<size_t> non_null_columns_;
};

/// Books a finished paged scan: the bytes it charged into `local`, all of
/// `local` into the pool's storage.* counters and, when given, into
/// `telemetry`.
void RecordPagedScan(columnar::BufferPool& pool, uint64_t bytes_scanned,
                     ScanTelemetry local, ScanTelemetry* telemetry);

}  // namespace prost::core

#endif  // PROST_CORE_SCAN_SUPPORT_H_
