#include "core/property_table.h"

#include <algorithm>
#include <unordered_map>

#include "columnar/lexical_format.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/str_util.h"

namespace prost::core {

using columnar::Column;
using columnar::ColumnKind;
using columnar::Field;
using columnar::IdListColumn;
using columnar::IdVector;
using columnar::Schema;
using columnar::StoredTable;
using engine::Relation;
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
    const uint32_t w = PartitionOf(key, num_workers);
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
    // tables are self-describing.
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

PropertyTable::ChargedColumns PropertyTable::ChargeColumns(
    const std::vector<ColumnPattern>& patterns) const {
  // A pattern touches its predicate column only when the predicate exists
  // and the constant (if any) can exist.
  ChargedColumns charged;
  charged.pattern_column.assign(patterns.size(), -1);
  charged.columns.push_back(0);
  for (size_t i = 0; i < patterns.size(); ++i) {
    auto it = column_of_predicate_.find(patterns[i].predicate);
    if (it == column_of_predicate_.end() ||
        patterns[i].value.IsImpossibleConstant()) {
      continue;
    }
    charged.pattern_column[i] = static_cast<int>(it->second);
    if (std::find(charged.columns.begin(), charged.columns.end(),
                  it->second) == charged.columns.end()) {
      charged.columns.push_back(it->second);
    }
  }
  charged.partition_bytes.assign(num_workers_, 0);
  for (uint32_t w = 0; w < num_workers_; ++w) {
    for (size_t c : charged.columns) {
      charged.partition_bytes[w] += column_bytes_[w][c];
    }
    charged.planner_bytes += charged.partition_bytes[w];
  }
  return charged;
}

uint64_t PropertyTable::ScanPlannerBytes(
    const std::vector<ColumnPattern>& patterns) const {
  return ChargeColumns(patterns).planner_bytes;
}

Result<Relation> PropertyTable::Scan(
    const PatternTerm& key, const std::vector<ColumnPattern>& patterns,
    cluster::CostModel& cost, const engine::ExecContext* exec,
    const ScanHints* hints, ScanTelemetry* telemetry) const {
  if (patterns.empty()) {
    return Status::InvalidArgument("property table scan needs patterns");
  }
  // Output layout: key variable first, then each new pattern variable.
  std::vector<const PatternTerm*> terms{&key};
  for (const ColumnPattern& pattern : patterns) {
    terms.push_back(&pattern.value);
  }
  std::vector<std::string> names = ScanOutputNames(terms);
  if (names.empty()) {
    return Status::Unimplemented(
        "pattern groups without variables are not supported");
  }
  Relation output(std::move(names), num_workers_);

  // Columnar pruning charges the key column plus each touched column once
  // per partition; paged scans apportion exactly these columns' bytes
  // over row groups. All charges happen on the calling thread. A pattern
  // without a column (-1: predicate absent or impossible constant) gives
  // the whole group an empty answer, but the scan stage still runs.
  const ChargedColumns charged = ChargeColumns(patterns);
  const std::vector<int>& pattern_column = charged.pattern_column;
  const std::vector<size_t>& charged_cols = charged.columns;
  if (key.IsImpossibleConstant() ||
      std::find(pattern_column.begin(), pattern_column.end(), -1) !=
          pattern_column.end()) {
    // The scan stage still runs over every partition and finds nothing;
    // zone maps have nothing to prune (no surviving rows to skip), so it
    // charges the full columnar scan.
    for (uint32_t w = 0; w < num_workers_; ++w) {
      cost.ChargeScan(w, charged.partition_bytes[w]);
      cost.ChargeCpuRows(w, paged_[w].num_rows());
    }
    if (key.is_variable) output.set_hash_partitioned_by(0);
    return output;
  }

  // Per partition: the row groups the pruner cannot rule out, their rows
  // and the lexical bytes they charge. Each touched column is its own
  // charge unit, and a group whose touched predicate column is all-NULL
  // cannot produce a row.
  std::vector<std::pair<size_t, const PatternTerm*>> bindings{{0, &key}};
  for (size_t i = 0; i < patterns.size(); ++i) {
    bindings.emplace_back(static_cast<size_t>(pattern_column[i]),
                          &patterns[i].value);
  }
  std::vector<RowGroupPruner::Partition> kept(num_workers_);
  ScanTelemetry pruned;
  const RowGroupPruner pruner(
      num_columns(), bindings, hints,
      std::vector<size_t>(charged_cols.begin() + 1, charged_cols.end()));
  for (uint32_t w = 0; w < num_workers_; ++w) {
    if (paged_[w].num_groups() == 0) {
      // Empty partition: nothing to prune; charge the full column bytes.
      kept[w].charged_bytes = charged.partition_bytes[w];
      continue;
    }
    std::vector<RowGroupPruner::ChargeUnit> units;
    for (size_t c : charged_cols) {
      units.push_back({{c}, column_bytes_[w][c]});
    }
    kept[w] = pruner.Prune(paged_[w], units, pruned);
  }
  return ScanRowGroups(paged_, kept, bindings, std::move(output), *pool_,
                       cost, exec, pruned, telemetry);
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
