#include "core/scan_support.h"

#include <algorithm>

#include "engine/kernels.h"
#include "engine/task_loop.h"

namespace prost::core {

using columnar::Column;
using columnar::ColumnKind;
using columnar::IdVector;
using engine::Relation;
using engine::RelationChunk;

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

std::vector<std::string> ScanOutputNames(
    std::span<const PatternTerm* const> terms) {
  std::vector<std::string> names;
  for (const PatternTerm* term : terms) {
    if (term->is_variable &&
        std::find(names.begin(), names.end(), term->name) == names.end()) {
      names.push_back(term->name);
    }
  }
  return names;
}

namespace {

/// A variable's binding while the kernel expands one row group.
struct Binding {
  const IdVector* by_row = nullptr;  // Flat column: value by row.
  const IdVector* values = nullptr;  // List column values, by position.
  std::vector<uint32_t> positions;   // Per partial, into `values`.
};

/// The scan kernel of one task (DESIGN.md §15, step 3). Scan appends one
/// pinned row group's rows to `out`, row-major and, within a row, in
/// list-cell order of the variables' first occurrences; binding i reads
/// `pins[pin_of[i]]`, the key being binding 0. Phase 1 selects the rows
/// once per binding, expanding nothing. Phase 2 expands in binding order:
/// a variable's first occurrence on a list column unnests the cells by
/// offsets, on a flat column it reads by row, and a repeated variable
/// keeps the partials whose cell holds the bound value. While no check
/// has dropped a row (`all`), the selection is not materialized, a flat
/// constant selects with Filter and the output columns append whole.
class ScanKernel {
 public:
  ScanKernel(
      const std::vector<std::pair<size_t, const PatternTerm*>>& bindings,
      const std::vector<int>& out_of, const std::vector<size_t>& pin_of,
      std::span<Binding> bound)
      : bindings_(bindings), out_of_(out_of), pin_of_(pin_of),
        bound_(bound) {}

  void Scan(const columnar::PagedTable& paged, uint32_t g,
            std::span<const columnar::PinnedPage> pins, RelationChunk& out) {
    namespace kernels = engine::kernels;
    auto column_of = [&](size_t i) -> const Column& {
      return pins[pin_of_[i]].column();
    };
    const size_t n = column_of(0).ids().size();
    rows_.clear();
    bool all = true;
    auto select_all = [&]() {
      if (all) kernels::Iota(0, n, rows_);
      all = false;
    };
    for (size_t i = 0; i < bindings_.size() && (all || !rows_.empty());
         ++i) {
      const PatternTerm& term = *bindings_[i].second;
      const Column& column = column_of(i);
      const bool flat = column.kind() == ColumnKind::kId;
      if (flat && !term.is_variable && all) {
        kernels::Filter(column.ids(), term.id, 0, n, rows_);
        all = false;
        continue;
      }
      if (term.is_variable && flat &&
          paged.stats(g, bindings_[i].first).null_count == 0) {
        continue;
      }
      select_all();
      if (flat) {
        term.is_variable ? kernels::RefineNotNull(column.ids(), rows_)
                         : kernels::Refine(column.ids(), term.id, rows_);
      } else {
        term.is_variable
            ? kernels::RefineListNotEmpty(column.lists(), rows_)
            : kernels::RefineListContains(column.lists(), term.id, rows_);
      }
    }

    for (Binding& b : bound_) b = {nullptr, nullptr, {}};
    for (size_t i = 0; i < bindings_.size() && (all || !rows_.empty());
         ++i) {
      if (!bindings_[i].second->is_variable) continue;
      const Column& column = column_of(i);
      const bool flat = column.kind() == ColumnKind::kId;
      Binding& b = bound_[static_cast<size_t>(out_of_[i])];
      index_.clear();
      if (b.by_row == nullptr && b.values == nullptr && flat) {
        b.by_row = &column.ids();
      } else if (b.by_row == nullptr && b.values == nullptr) {
        select_all();
        std::vector<uint32_t> positions;
        kernels::ListExpand(column.lists(), rows_, index_, positions);
        Reindex();
        b.values = &column.lists().values;
        b.positions = std::move(positions);
      } else if (all && flat) {
        // Nothing is list-bound yet: compare the whole columns.
        kernels::FilterRowsEqual(column.ids(), *b.by_row, 0, n, index_);
        if (index_.size() < n) {
          rows_.swap(index_);
          all = false;
        }
      } else {
        select_all();
        probe_.clear();
        b.by_row != nullptr ? kernels::Gather(*b.by_row, rows_, probe_)
                            : kernels::Gather(*b.values, b.positions, probe_);
        if (flat) {
          cell_.clear();
          kernels::Gather(column.ids(), rows_, cell_);
          kernels::FilterRowsEqual(cell_, probe_, 0, rows_.size(), index_);
        } else {
          kernels::FilterListContains(column.lists(), rows_, probe_, index_);
        }
        if (index_.size() < rows_.size()) Reindex();
      }
    }
    if (!all && rows_.empty()) return;
    for (size_t c = 0; c < bound_.size(); ++c) {
      const Binding& b = bound_[c];
      if (all) {
        out.columns[c].insert(out.columns[c].end(), b.by_row->begin(),
                              b.by_row->end());
      } else if (b.by_row != nullptr) {
        kernels::Gather(*b.by_row, rows_, out.columns[c]);
      } else {
        kernels::Gather(*b.values, b.positions, out.columns[c]);
      }
    }
  }

 private:
  /// Re-indexes every partial through `index_` (repeat or keep indices).
  void Reindex() {
    scratch_.clear();
    engine::kernels::Gather(rows_, index_, scratch_);
    rows_.swap(scratch_);
    for (Binding& b : bound_) {
      if (b.values == nullptr) continue;
      scratch_.clear();
      engine::kernels::Gather(b.positions, index_, scratch_);
      b.positions.swap(scratch_);
    }
  }

  const std::vector<std::pair<size_t, const PatternTerm*>>& bindings_;
  const std::vector<int>& out_of_;     // Per binding: its output column.
  const std::vector<size_t>& pin_of_;  // Per binding: its pin.
  std::span<Binding> bound_;           // Per output column.
  std::vector<uint32_t> rows_;         // Per partial: its group-local row.
  std::vector<uint32_t> index_, scratch_;
  IdVector probe_, cell_;
};

}  // namespace

Result<Relation> ScanRowGroups(
    const std::vector<columnar::PagedTable>& partitions,
    const std::vector<RowGroupPruner::Partition>& kept,
    const std::vector<std::pair<size_t, const PatternTerm*>>& bindings,
    Relation output, columnar::BufferPool& pool, cluster::CostModel& cost,
    const engine::ExecContext* exec, ScanTelemetry pruned,
    ScanTelemetry* telemetry) {
  // Per binding: the output column of its variable (-1 for constants)
  // and the pin its column reads. Each distinct column is pinned once, in
  // order of first use: the key column is pin 0.
  std::vector<int> out_of(bindings.size(), -1);
  std::vector<size_t> pin_of(bindings.size());
  std::vector<uint32_t> pin_columns;
  for (size_t b = 0; b < bindings.size(); ++b) {
    const auto& [column, term] = bindings[b];
    if (term->is_variable) out_of[b] = output.ColumnIndex(term->name);
    auto it = std::find(pin_columns.begin(), pin_columns.end(), column);
    pin_of[b] = static_cast<size_t>(it - pin_columns.begin());
    if (it == pin_columns.end()) pin_columns.push_back(column);
  }

  // Scan tasks, in (partition, row) order: runs [begin, end) of a
  // partition's surviving row groups, at least one group and otherwise at
  // most TaskRows rows each.
  std::vector<engine::Morsel> tasks;
  tasks.reserve(partitions.size());
  const size_t task_rows = engine::TaskRows(exec);
  for (uint32_t w = 0; w < partitions.size(); ++w) {
    const std::vector<uint32_t>& groups = kept[w].groups;
    size_t begin = 0;
    size_t rows = 0;
    for (size_t i = 0; i < groups.size(); ++i) {
      const size_t group_rows = partitions[w].group(groups[i]).num_rows;
      if (i > begin && rows + group_rows > task_rows) {
        tasks.push_back({w, begin, i});
        begin = i;
        rows = 0;
      }
      rows += group_rows;
    }
    if (begin < groups.size()) tasks.push_back({w, begin, groups.size()});
  }

  // Each task's pins and output-column slots, allocated once per scan: a
  // small scan's cost is mostly per-task set-up.
  const size_t num_pins = pin_columns.size();
  const size_t num_outputs = output.num_columns();
  std::vector<columnar::PinnedPage> pins(tasks.size() * num_pins);
  std::vector<Binding> bound(tasks.size() * num_outputs);
  PROST_RETURN_IF_ERROR(engine::RunMorsels(
      exec, tasks,
      [&](size_t t, RelationChunk& out) -> Status {
        const engine::Morsel& task = tasks[t];
        const columnar::PagedTable& paged = partitions[task.chunk];
        std::span<columnar::PinnedPage> task_pins(&pins[t * num_pins],
                                                  num_pins);
        ScanKernel kernel(bindings, out_of, pin_of,
                          {&bound[t * num_outputs], num_outputs});
        for (size_t i = task.begin; i < task.end; ++i) {
          const uint32_t g = kept[task.chunk].groups[i];
          for (size_t p = 0; p < num_pins; ++p) {
            PROST_ASSIGN_OR_RETURN(task_pins[p],
                                   pool.Pin(paged, g, pin_columns[p]));
          }
          kernel.Scan(paged, g, task_pins, out);
          for (columnar::PinnedPage& pin : task_pins) pin = {};
        }
        return Status::OK();
      },
      output));

  // Cost charges stay on the calling thread — the simulated cluster clock
  // is independent of real executor parallelism.
  for (uint32_t w = 0; w < partitions.size(); ++w) {
    cost.ChargeScan(w, kept[w].charged_bytes);
    cost.ChargeCpuRows(w, kept[w].rows + output.chunks()[w].num_rows());
    pruned.bytes_scanned += kept[w].charged_bytes;
  }
  pool.NoteRowGroupsSkipped(pruned.row_groups_skipped);
  pool.NotePartitionsSkipped(pruned.partitions_skipped);
  pool.NoteBytesScanned(pruned.bytes_scanned);
  if (telemetry != nullptr) *telemetry = pruned;
  // Partitions are key-hash placed, so a variable key keeps that
  // co-location in the output.
  if (bindings[0].second->is_variable) output.set_hash_partitioned_by(0);
  return output;
}

}  // namespace prost::core
