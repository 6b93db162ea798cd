#include "core/scan_support.h"

namespace prost::core {

RowGroupPruner::RowGroupPruner(
    size_t num_columns,
    const std::vector<std::pair<size_t, const PatternTerm*>>& bindings,
    const ScanHints* hints, std::vector<size_t> non_null_columns)
    : column_eq_(num_columns),
      non_null_columns_(std::move(non_null_columns)) {
  for (const auto& [column, term] : bindings) {
    if (!term->is_variable) {
      column_eq_[column].push_back(term->id);
      continue;
    }
    if (hints == nullptr) continue;
    for (const ScanEqualityHint& hint : hints->equals) {
      if (hint.variable == term->name) column_eq_[column].push_back(hint.id);
    }
  }
}

RowGroupPruner::Partition RowGroupPruner::Prune(
    const columnar::PagedTable& paged, const std::vector<ChargeUnit>& units,
    ScanTelemetry& telemetry) const {
  Partition partition;
  telemetry.row_groups_total += paged.num_groups();
  for (rdf::TermId id : column_eq_[0]) {
    if (!paged.key_bloom().MayContain(id)) {
      ++telemetry.partitions_skipped;
      return partition;
    }
  }
  std::vector<std::vector<uint64_t>> charges;
  charges.reserve(units.size());
  for (const ChargeUnit& unit : units) {
    charges.push_back(GroupCharges(paged, unit));
  }
  for (size_t g = 0; g < paged.num_groups(); ++g) {
    bool keep = true;
    for (size_t c : non_null_columns_) {
      if (paged.stats(g, c).value_count == 0) keep = false;
    }
    for (size_t c = 0; c < column_eq_.size() && keep; ++c) {
      for (rdf::TermId id : column_eq_[c]) {
        if (!ZoneMayContain(paged.stats(g, c), id)) {
          keep = false;
          break;
        }
      }
    }
    if (!keep) {
      ++telemetry.row_groups_skipped;
      continue;
    }
    partition.groups.push_back(static_cast<uint32_t>(g));
    partition.rows += paged.group(g).num_rows;
    for (const std::vector<uint64_t>& unit_charges : charges) {
      partition.charged_bytes += unit_charges[g];
    }
  }
  return partition;
}

std::vector<uint64_t> RowGroupPruner::GroupCharges(
    const columnar::PagedTable& paged, const ChargeUnit& unit) {
  uint64_t payload_total = 0;
  for (size_t c : unit.columns) payload_total += paged.ColumnPayloadBytes(c);
  std::vector<uint64_t> charges(paged.num_groups(), 0);
  uint64_t payload_cum = 0;
  uint64_t lex_cum = 0;
  for (size_t g = 0; g < paged.num_groups(); ++g) {
    for (size_t c : unit.columns) payload_cum += paged.group(g).chunks[c].bytes;
    const uint64_t lex_next =
        payload_total == 0 ? unit.lexical_bytes
                           : unit.lexical_bytes * payload_cum / payload_total;
    charges[g] = lex_next - lex_cum;
    lex_cum = lex_next;
  }
  return charges;
}

bool RowGroupPruner::ZoneMayContain(const columnar::ColumnStats& stats,
                                    rdf::TermId id) {
  if (stats.value_count == 0) return false;
  return id >= stats.min_id && id <= stats.max_id;
}

void RecordPagedScan(columnar::BufferPool& pool, uint64_t bytes_scanned,
                     ScanTelemetry local, ScanTelemetry* telemetry) {
  local.bytes_scanned += bytes_scanned;
  pool.NoteRowGroupsSkipped(local.row_groups_skipped);
  pool.NotePartitionsSkipped(local.partitions_skipped);
  pool.NoteBytesScanned(local.bytes_scanned);
  if (telemetry != nullptr) *telemetry = local;
}

}  // namespace prost::core
