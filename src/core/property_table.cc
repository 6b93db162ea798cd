#include "core/property_table.h"

#include <algorithm>
#include <unordered_map>

#include "columnar/lexical_format.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/str_util.h"
#include "engine/kernels.h"
#include "engine/task_loop.h"

namespace prost::core {

using columnar::Column;
using columnar::ColumnKind;
using columnar::Field;
using columnar::IdListColumn;
using columnar::IdVector;
using columnar::Schema;
using columnar::StoredTable;
using engine::Relation;
using engine::RelationChunk;
using rdf::TermId;

PropertyTable PropertyTable::Build(const rdf::EncodedGraph& graph,
                                   const DatasetStatistics& stats,
                                   uint32_t num_workers,
                                   columnar::BufferPool& pool,
                                   bool keyed_on_object,
                                   uint32_t row_group_rows) {
  PropertyTable table;
  table.num_workers_ = num_workers;
  table.keyed_on_object_ = keyed_on_object;
  table.pool_ = &pool;

  // 1. Distinct row keys, assigned (partition, row) by subject hash.
  std::vector<TermId> keys;
  keys.reserve(graph.size());
  for (const rdf::EncodedTriple& t : graph.triples()) {
    keys.push_back(keyed_on_object ? t.object : t.subject);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  table.num_rows_ = keys.size();

  struct Slot {
    uint32_t partition;
    uint32_t row;
  };
  std::unordered_map<TermId, Slot> slot_of_key;
  slot_of_key.reserve(keys.size());
  std::vector<uint32_t> rows_per_partition(num_workers, 0);
  std::vector<IdVector> key_columns(num_workers);
  for (TermId key : keys) {
    uint32_t w = static_cast<uint32_t>(Mix64(key) % num_workers);
    slot_of_key.emplace(key, Slot{w, rows_per_partition[w]++});
    key_columns[w].push_back(key);
  }

  // 2. Column order: predicates sorted by id; kind from global stats.
  std::vector<TermId> predicates = graph.DistinctPredicates();
  std::vector<bool> is_list(predicates.size());
  for (size_t c = 0; c < predicates.size(); ++c) {
    rdf::PredicateStats s = stats.ForPredicate(predicates[c]);
    uint64_t distinct_keys =
        keyed_on_object ? s.distinct_objects : s.distinct_subjects;
    is_list[c] = s.triple_count > distinct_keys;
    table.column_of_predicate_.emplace(predicates[c], c + 1);
  }

  // 3. Fill. Flat columns write directly; list columns collect
  // (row, value) pairs and assemble per partition afterwards.
  std::vector<std::vector<IdVector>> flat(num_workers);
  using RowValue = std::pair<uint32_t, TermId>;
  std::vector<std::vector<std::vector<RowValue>>> list_cells(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    flat[w].resize(predicates.size());
    list_cells[w].resize(predicates.size());
    for (size_t c = 0; c < predicates.size(); ++c) {
      if (!is_list[c]) {
        flat[w][c].assign(rows_per_partition[w], rdf::kNullTermId);
      }
    }
  }
  std::unordered_map<TermId, size_t> column_index;
  column_index.reserve(predicates.size());
  for (size_t c = 0; c < predicates.size(); ++c) {
    column_index.emplace(predicates[c], c);
  }
  for (const rdf::EncodedTriple& t : graph.triples()) {
    TermId key = keyed_on_object ? t.object : t.subject;
    TermId value = keyed_on_object ? t.subject : t.object;
    Slot slot = slot_of_key.at(key);
    size_t c = column_index.at(t.predicate);
    if (is_list[c]) {
      list_cells[slot.partition][c].emplace_back(slot.row, value);
    } else {
      flat[slot.partition][c][slot.row] = value;
    }
  }

  // 4. Assemble partitions.
  std::vector<uint32_t> term_lengths = graph.dictionary().TermLengths();
  Schema schema;
  (void)schema.AddField(Field{"s", ColumnKind::kId});
  for (size_t c = 0; c < predicates.size(); ++c) {
    // Column names carry the predicate's lexical form, so persisted
    // tables are fully self-describing and can be reopened against a
    // fresh dictionary.
    std::string name(graph.dictionary().MustLookupId(predicates[c]));
    (void)schema.AddField(Field{
        std::move(name),
        is_list[c] ? ColumnKind::kIdList : ColumnKind::kId});
  }
  for (uint32_t w = 0; w < num_workers; ++w) {
    std::vector<Column> columns;
    columns.reserve(predicates.size() + 1);
    columns.emplace_back(std::move(key_columns[w]));
    for (size_t c = 0; c < predicates.size(); ++c) {
      if (is_list[c]) {
        std::stable_sort(list_cells[w][c].begin(), list_cells[w][c].end(),
                         [](const RowValue& a, const RowValue& b) {
                           return a.first < b.first;
                         });
        IdListColumn lists;
        lists.Reserve(rows_per_partition[w], list_cells[w][c].size());
        IdVector cell;  // Hoisted: one allocation for the whole column.
        size_t i = 0;
        for (uint32_t row = 0; row < rows_per_partition[w]; ++row) {
          cell.clear();
          while (i < list_cells[w][c].size() &&
                 list_cells[w][c][i].first == row) {
            cell.push_back(list_cells[w][c][i].second);
            ++i;
          }
          lists.AppendRow(cell);
        }
        columns.emplace_back(std::move(lists));
      } else {
        columns.emplace_back(std::move(flat[w][c]));
      }
    }
    table.AddPartition(StoredTable(schema, std::move(columns)),
                       term_lengths, row_group_rows);
  }
  return table;
}

void PropertyTable::AddPartition(const StoredTable& part,
                                 const std::vector<uint32_t>& term_lengths,
                                 uint32_t row_group_rows) {
  std::vector<uint64_t>& bytes = column_bytes_.emplace_back();
  bytes.reserve(part.num_columns());
  for (size_t c = 0; c < part.num_columns(); ++c) {
    // Lexical (Parquet string) sizes: scan charges and planner stats.
    bytes.push_back(
        columnar::LexicalColumnSizeEstimate(part.column(c), term_lengths));
  }
  paged_.push_back(columnar::PagedTable::FromStored(part, row_group_rows));
}

Result<PropertyTable> PropertyTable::Assemble(
    std::vector<StoredTable> partitions, const rdf::Dictionary& dictionary,
    bool keyed_on_object, columnar::BufferPool& pool,
    uint32_t row_group_rows) {
  if (partitions.empty()) {
    return Status::InvalidArgument("property table needs >= 1 partition");
  }
  PropertyTable table;
  table.num_workers_ = static_cast<uint32_t>(partitions.size());
  table.keyed_on_object_ = keyed_on_object;
  table.pool_ = &pool;
  const columnar::Schema& schema = partitions[0].schema();
  for (const StoredTable& part : partitions) {
    if (!(part.schema() == schema)) {
      return Status::Corruption("property table partitions disagree on schema");
    }
    PROST_RETURN_IF_ERROR(part.Validate());
    table.num_rows_ += part.num_rows();
  }
  for (size_t c = 1; c < schema.num_fields(); ++c) {
    TermId predicate = dictionary.Lookup(schema.field(c).name);
    if (predicate == rdf::kNullTermId) {
      return Status::Corruption("unknown predicate column '" +
                                schema.field(c).name + "'");
    }
    table.column_of_predicate_.emplace(predicate, c);
  }
  std::vector<uint32_t> term_lengths = dictionary.TermLengths();
  for (StoredTable& part : partitions) {
    table.AddPartition(part, term_lengths, row_group_rows);
    part = StoredTable();  // Release the decoded columns now.
  }
  return table;
}

uint64_t PropertyTable::ScanPlannerBytes(
    const std::vector<ColumnPattern>& patterns) const {
  // Mirrors Scan's charging loop: a pattern touches its predicate column
  // only when the predicate exists and the constant (if any) can exist.
  std::vector<int> pattern_column(patterns.size(), -1);
  for (size_t i = 0; i < patterns.size(); ++i) {
    auto it = column_of_predicate_.find(patterns[i].predicate);
    if (it != column_of_predicate_.end() &&
        !patterns[i].value.IsImpossibleConstant()) {
      pattern_column[i] = static_cast<int>(it->second);
    }
  }
  uint64_t planner_bytes = 0;
  for (uint32_t w = 0; w < num_workers_; ++w) {
    uint64_t scan_bytes = column_bytes_[w][0];
    std::vector<int> charged;
    for (int c : pattern_column) {
      if (c >= 0 && std::find(charged.begin(), charged.end(), c) ==
                        charged.end()) {
        charged.push_back(c);
        scan_bytes += column_bytes_[w][static_cast<size_t>(c)];
      }
    }
    planner_bytes += scan_bytes;
  }
  return planner_bytes;
}

Result<Relation> PropertyTable::Scan(
    const PatternTerm& key, const std::vector<ColumnPattern>& patterns,
    cluster::CostModel& cost, const engine::ExecContext* exec,
    const ScanHints* hints, ScanTelemetry* telemetry) const {
  if (patterns.empty()) {
    return Status::InvalidArgument("property table scan needs patterns");
  }
  // Output layout: key variable first, then each new pattern variable.
  std::vector<std::string> names;
  std::unordered_map<std::string, size_t> index_of_name;
  int key_column = -1;
  if (key.is_variable) {
    key_column = 0;
    index_of_name.emplace(key.name, names.size());
    names.push_back(key.name);
  }
  // Per pattern: output column index of its variable, or -1 for consts.
  std::vector<int> pattern_out(patterns.size(), -1);
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (!patterns[i].value.is_variable) continue;
    auto [it, inserted] =
        index_of_name.emplace(patterns[i].value.name, names.size());
    if (inserted) names.push_back(patterns[i].value.name);
    pattern_out[i] = static_cast<int>(it->second);
  }
  if (names.empty()) {
    return Status::Unimplemented(
        "pattern groups without variables are not supported");
  }
  Relation output(names, num_workers_);

  // Table columns touched by each pattern (-1: predicate absent -> the
  // whole group has an empty answer, but the scan stage still runs).
  std::vector<int> pattern_column(patterns.size(), -1);
  bool possible = !key.IsImpossibleConstant();
  for (size_t i = 0; i < patterns.size(); ++i) {
    auto it = column_of_predicate_.find(patterns[i].predicate);
    if (it == column_of_predicate_.end() ||
        patterns[i].value.IsImpossibleConstant()) {
      possible = false;
    } else {
      pattern_column[i] = static_cast<int>(it->second);
    }
  }

  // Columnar pruning charges the key column plus each touched column once
  // per partition. `charged_cols` is that column set (key first); paged
  // scans apportion exactly these columns' bytes over row groups. All
  // charges happen on the calling thread.
  std::vector<size_t> charged_cols{0};
  for (int c : pattern_column) {
    if (c >= 0 && std::find(charged_cols.begin(), charged_cols.end(),
                            static_cast<size_t>(c)) == charged_cols.end()) {
      charged_cols.push_back(static_cast<size_t>(c));
    }
  }
  uint64_t planner_bytes = 0;
  std::vector<uint64_t> full_scan_bytes(num_workers_, 0);
  for (uint32_t w = 0; w < num_workers_; ++w) {
    uint64_t scan_bytes = 0;
    for (size_t c : charged_cols) scan_bytes += column_bytes_[w][c];
    full_scan_bytes[w] = scan_bytes;
    planner_bytes += scan_bytes;
  }
  if (!possible) {
    // The scan stage still runs over every partition and finds nothing;
    // zone maps have nothing to prune (no surviving rows to skip), so it
    // charges the full columnar scan.
    for (uint32_t w = 0; w < num_workers_; ++w) {
      cost.ChargeScan(w, full_scan_bytes[w]);
      cost.ChargeCpuRows(w, paged_[w].num_rows());
    }
    if (key.is_variable) output.set_hash_partitioned_by(0);
    output.set_planner_bytes(planner_bytes);
    return output;
  }
  // When every touched column is flat (kId), each input row yields at
  // most one output row and the whole scan vectorizes: constant patterns
  // and NULL checks refine a selection vector, repeated variables become
  // column-equality refinements, and the output materializes via
  // per-column gathers. List columns (multi-valued predicates) take the
  // general partial-expansion path below.
  bool all_flat = true;
  for (int c : pattern_column) {
    if (paged_[0].schema().field(static_cast<size_t>(c)).kind !=
        ColumnKind::kId) {
      all_flat = false;
      break;
    }
  }

  // The scan kernels below take one pinned row group as column views —
  // `row_keys` plus `cols[i]`, pattern i's table column (row indices are
  // group-local).

  // Vectorized scan (flat columns only). Produces the exact rows, in
  // the exact ascending row order, that the general loop emits: with
  // flat columns every partial binding chain has exactly one row, so
  // surviving input rows map 1:1 to output rows.
  auto scan_rows_flat = [&](const IdVector& row_keys,
                            const std::vector<const Column*>& cols,
                            RelationChunk& out) {
    std::vector<uint32_t> sel;
    if (!key.is_variable) {
      engine::kernels::Filter(row_keys, key.id, 0, row_keys.size(), sel);
    } else {
      engine::kernels::Iota(0, row_keys.size(), sel);
    }
    // First column bound to each output variable (the key column for the
    // key variable); later occurrences refine against it.
    std::vector<const IdVector*> bound(names.size(), nullptr);
    if (key_column >= 0) bound[0] = &row_keys;
    for (size_t i = 0; i < patterns.size() && !sel.empty(); ++i) {
      const IdVector& column = cols[i]->ids();
      if (!patterns[i].value.is_variable) {
        // Constant: equality (constants are never NULL ids).
        engine::kernels::Refine(column, patterns[i].value.id, sel);
        continue;
      }
      size_t out_col = static_cast<size_t>(pattern_out[i]);
      if (bound[out_col] != nullptr) {
        // Repeated variable: intra-row join against the binding column
        // (already refined non-NULL, so equality implies non-NULL here).
        engine::kernels::RefineRowsEqual(column, *bound[out_col], sel);
      } else {
        engine::kernels::RefineNotNull(column, sel);
        bound[out_col] = &column;
      }
    }
    for (size_t c = 0; c < names.size(); ++c) {
      // A variable can be unbound only when sel drained before its first
      // occurrence — nothing to gather then.
      if (bound[c] != nullptr) {
        engine::kernels::Gather(*bound[c], sel, out.columns[c]);
      }
    }
  };

  // General scan: row-at-a-time partial-binding expansion over list
  // (multi-valued) columns.
  auto scan_rows_general = [&](const IdVector& row_keys,
                               const std::vector<const Column*>& cols,
                               RelationChunk& out) {
    std::vector<engine::Row> partials;
    std::vector<engine::Row> next;
    for (size_t r = 0; r < row_keys.size(); ++r) {
      if (!key.is_variable && row_keys[r] != key.id) continue;
      partials.clear();
      engine::Row seed(names.size(), rdf::kNullTermId);
      if (key_column >= 0) seed[0] = row_keys[r];
      partials.push_back(std::move(seed));

      bool row_alive = true;
      for (size_t i = 0; i < patterns.size() && row_alive; ++i) {
        const Column& column = *cols[i];
        // Cell values for this row.
        const TermId* cell_begin = nullptr;
        const TermId* cell_end = nullptr;
        TermId flat_value = rdf::kNullTermId;
        if (column.kind() == ColumnKind::kId) {
          flat_value = column.ids()[r];
          if (flat_value != rdf::kNullTermId) {
            cell_begin = &flat_value;
            cell_end = cell_begin + 1;
          }
        } else {
          const IdListColumn& lists = column.lists();
          cell_begin = lists.values.data() + lists.offsets[r];
          cell_end = lists.values.data() + lists.offsets[r + 1];
        }
        if (cell_begin == cell_end) {
          row_alive = false;
          break;
        }
        if (!patterns[i].value.is_variable) {
          bool found = std::find(cell_begin, cell_end,
                                 patterns[i].value.id) != cell_end;
          if (!found) row_alive = false;
          continue;
        }
        // Variable: extend or check each partial binding.
        size_t out_col = static_cast<size_t>(pattern_out[i]);
        next.clear();
        for (const engine::Row& partial : partials) {
          if (partial[out_col] != rdf::kNullTermId) {
            // Already bound (repeated variable): intra-row join.
            if (std::find(cell_begin, cell_end, partial[out_col]) !=
                cell_end) {
              next.push_back(partial);
            }
          } else {
            for (const TermId* v = cell_begin; v != cell_end; ++v) {
              engine::Row extended = partial;
              extended[out_col] = *v;
              next.push_back(std::move(extended));
            }
          }
        }
        partials.swap(next);
        if (partials.empty()) row_alive = false;
      }
      if (!row_alive) continue;
      for (const engine::Row& row : partials) {
        for (size_t c = 0; c < names.size(); ++c) {
          out.columns[c].push_back(row[c]);
        }
      }
    }
  };

  auto scan_rows = [&](const IdVector& row_keys,
                       const std::vector<const Column*>& cols,
                       RelationChunk& out) {
    all_flat ? scan_rows_flat(row_keys, cols, out)
             : scan_rows_general(row_keys, cols, out);
  };

  // Per partition: the row groups the pruner cannot rule out, their rows
  // and the lexical bytes they charge. Each touched column is its own
  // charge unit, and a group whose touched predicate column is all-NULL
  // cannot produce a row.
  std::vector<RowGroupPruner::Partition> kept(num_workers_);
  ScanTelemetry local;
  std::vector<std::pair<size_t, const PatternTerm*>> bindings{{0, &key}};
  for (size_t i = 0; i < patterns.size(); ++i) {
    bindings.emplace_back(static_cast<size_t>(pattern_column[i]),
                          &patterns[i].value);
  }
  const RowGroupPruner pruner(
      num_columns(), bindings, hints,
      std::vector<size_t>(charged_cols.begin() + 1, charged_cols.end()));
  for (uint32_t w = 0; w < num_workers_; ++w) {
    if (paged_[w].num_groups() == 0) {
      // Empty partition: nothing to prune; charge the full column bytes.
      kept[w].charged_bytes = full_scan_bytes[w];
      continue;
    }
    std::vector<RowGroupPruner::ChargeUnit> units;
    for (size_t c : charged_cols) {
      units.push_back({{c}, column_bytes_[w][c]});
    }
    kept[w] = pruner.Prune(paged_[w], units, local);
  }

  // One task per partition, writing only its own output chunk. It scans
  // its surviving groups in ascending (= row) order through pool pins:
  // the key chunk plus one pin per distinct touched column, held for
  // exactly the duration of the group's scan.
  auto scan_partition = [&](uint32_t w) -> Status {
    RelationChunk& out = output.mutable_chunks()[w];
    std::vector<const Column*> cols(patterns.size(), nullptr);
    const columnar::PagedTable& paged = paged_[w];
    std::vector<columnar::PinnedPage> pins;
    for (uint32_t g : kept[w].groups) {
      PROST_ASSIGN_OR_RETURN(columnar::PinnedPage key_pin,
                             pool_->Pin(paged, g, 0));
      pins.clear();
      pins.reserve(charged_cols.size() - 1);
      for (size_t j = 1; j < charged_cols.size(); ++j) {
        PROST_ASSIGN_OR_RETURN(
            columnar::PinnedPage pin,
            pool_->Pin(paged, g, static_cast<uint32_t>(charged_cols[j])));
        pins.push_back(std::move(pin));
        // Frame storage is stable in the pool, so the Column reference
        // survives `pins` reallocation.
        for (size_t i = 0; i < patterns.size(); ++i) {
          if (static_cast<size_t>(pattern_column[i]) == charged_cols[j]) {
            cols[i] = &pins.back().column();
          }
        }
      }
      scan_rows(key_pin.column().ids(), cols, out);
    }
    return Status::OK();
  };
  std::vector<Status> statuses(num_workers_);
  engine::RunTasks(exec, num_workers_, [&](size_t w) {
    statuses[w] = scan_partition(static_cast<uint32_t>(w));
  });
  for (const Status& status : statuses) PROST_RETURN_IF_ERROR(status);

  uint64_t bytes_scanned = 0;
  for (uint32_t w = 0; w < num_workers_; ++w) {
    cost.ChargeScan(w, kept[w].charged_bytes);
    cost.ChargeCpuRows(w, kept[w].rows + output.chunks()[w].num_rows());
    bytes_scanned += kept[w].charged_bytes;
  }
  RecordPagedScan(*pool_, bytes_scanned, local, telemetry);
  if (key.is_variable) output.set_hash_partitioned_by(0);
  // The planner sees the touched columns' size (Parquet column pruning is
  // visible to Spark's relation statistics).
  output.set_planner_bytes(planner_bytes);
  return output;
}

uint64_t PropertyTable::TotalBytesEstimate() const {
  uint64_t total = 0;
  for (const auto& partition_bytes : column_bytes_) {
    for (uint64_t bytes : partition_bytes) total += bytes;
  }
  return total;
}

Status PropertyTable::WriteTo(const std::string& dir,
                              const rdf::Dictionary& dictionary) const {
  PROST_RETURN_IF_ERROR(MakeDirectories(dir));
  const char* stem = keyed_on_object_ ? "ptrev" : "pt";
  for (uint32_t w = 0; w < num_workers_; ++w) {
    std::string path = StrFormat("%s/%s_p%u.tbl", dir.c_str(), stem, w);
    // Persistence writes the decoded form, one partition at a time.
    PROST_ASSIGN_OR_RETURN(StoredTable decoded, paged_[w].ToStored());
    PROST_RETURN_IF_ERROR(
        columnar::WriteLexicalTableFile(decoded, dictionary, path));
  }
  return Status::OK();
}

}  // namespace prost::core
