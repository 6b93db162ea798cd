#include "core/vp_store.h"

#include "columnar/lexical_format.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/str_util.h"

namespace prost::core {

using columnar::Column;
using columnar::ColumnKind;
using columnar::Field;
using columnar::IdVector;
using columnar::Schema;
using columnar::StoredTable;
using engine::Relation;

namespace {

/// One worker's (s, o) columns as a decoded partition.
StoredTable TwoColumnPartition(IdVector subjects, IdVector objects) {
  std::vector<Column> columns;
  columns.emplace_back(std::move(subjects));
  columns.emplace_back(std::move(objects));
  return StoredTable(
      Schema({Field{"s", ColumnKind::kId}, Field{"o", ColumnKind::kId}}),
      std::move(columns));
}

/// Appends one worker's decoded (s, o) partition to `table`: its rows,
/// its lexical size estimate and its row groups. The caller drops the
/// decoded form afterwards, so it is never resident beside the paged one.
void AddPartition(VpStore::PredicateTable& table, const StoredTable& part,
                  const std::vector<uint32_t>& term_lengths,
                  uint32_t row_group_rows) {
  table.total_rows += part.num_rows();
  // Sizes are in the lexical (Parquet string) form — what the simulated
  // Spark scans and what its planner sees.
  table.partition_bytes.push_back(
      LexicalColumnSizeEstimate(part.column(0), term_lengths) +
      LexicalColumnSizeEstimate(part.column(1), term_lengths));
  table.paged.push_back(
      columnar::PagedTable::FromStored(part, row_group_rows));
}

}  // namespace

VpStore VpStore::Build(const rdf::EncodedGraph& graph, uint32_t num_workers,
                       columnar::BufferPool& pool, uint32_t row_group_rows) {
  VpStore store;
  store.num_workers_ = num_workers;
  store.pool_ = &pool;

  // Per predicate, per worker: the (s, o) column pair.
  struct Builder {
    std::vector<IdVector> subjects;
    std::vector<IdVector> objects;
  };
  std::map<rdf::TermId, Builder> builders;
  for (const rdf::EncodedTriple& t : graph.triples()) {
    Builder& b = builders[t.predicate];
    if (b.subjects.empty()) {
      b.subjects.resize(num_workers);
      b.objects.resize(num_workers);
    }
    const uint32_t w = PartitionOf(t.subject, num_workers);
    b.subjects[w].push_back(t.subject);
    b.objects[w].push_back(t.object);
  }

  std::vector<uint32_t> term_lengths = graph.dictionary().TermLengths();
  for (auto& [predicate, b] : builders) {
    PredicateTable table;
    for (uint32_t w = 0; w < num_workers; ++w) {
      AddPartition(table,
                   TwoColumnPartition(std::move(b.subjects[w]),
                                      std::move(b.objects[w])),
                   term_lengths, row_group_rows);
    }
    store.tables_.emplace(predicate, std::move(table));
  }
  return store;
}

const VpStore::PredicateTable* VpStore::Find(rdf::TermId predicate) const {
  auto it = tables_.find(predicate);
  return it == tables_.end() ? nullptr : &it->second;
}

uint64_t VpStore::ScanTablePlannerBytes(const PredicateTable* table) {
  if (table == nullptr) return 0;
  uint64_t planner_bytes = 0;
  for (uint64_t bytes : table->partition_bytes) planner_bytes += bytes;
  return planner_bytes;
}

Result<Relation> VpStore::Scan(rdf::TermId predicate,
                               const PatternTerm& subject,
                               const PatternTerm& object,
                               cluster::CostModel& cost,
                               const engine::ExecContext* exec,
                               const ScanHints* hints,
                               ScanTelemetry* telemetry) const {
  return ScanTable(Find(predicate), subject, object, num_workers_, *pool_,
                   cost, exec, hints, telemetry);
}

Result<Relation> VpStore::ScanTable(const PredicateTable* table,
                                    const PatternTerm& subject,
                                    const PatternTerm& object,
                                    uint32_t num_workers,
                                    columnar::BufferPool& pool,
                                    cluster::CostModel& cost,
                                    const engine::ExecContext* exec,
                                    const ScanHints* hints,
                                    ScanTelemetry* telemetry) {
  // Output columns: subject variable first, then object variable (when
  // distinct). `?x p ?x` yields a single column with s==o enforced.
  const PatternTerm* const terms[] = {&subject, &object};
  std::vector<std::string> names = ScanOutputNames(terms);
  if (names.empty()) {
    return Status::Unimplemented(
        "triple patterns without variables are not supported");
  }
  Relation output(std::move(names), num_workers);
  if (table == nullptr) {
    return output;  // Unknown predicate: empty relation, nothing scanned.
  }

  // Per partition: the row groups the pruner cannot rule out, their rows
  // and the lexical bytes they charge; both columns form one charge unit.
  // The scan is the PT scan's flat-only case: key `s`, one flat column `o`.
  const std::vector<std::pair<size_t, const PatternTerm*>> bindings{
      {0, &subject}, {1, &object}};
  std::vector<RowGroupPruner::Partition> kept(num_workers);
  ScanTelemetry pruned;
  const RowGroupPruner pruner(2, bindings, hints);
  for (uint32_t w = 0; w < num_workers; ++w) {
    kept[w] = pruner.Prune(table->paged[w],
                           {{{0, 1}, table->partition_bytes[w]}}, pruned);
  }
  return ScanRowGroups(table->paged, kept, bindings, std::move(output), pool,
                       cost, exec, pruned, telemetry);
}

VpStore::PredicateTable VpStore::BuildTable(
    const std::vector<std::pair<rdf::TermId, rdf::TermId>>& rows,
    uint32_t num_workers, const std::vector<uint32_t>& term_lengths) {
  std::vector<IdVector> subjects(num_workers);
  std::vector<IdVector> objects(num_workers);
  for (const auto& [s, o] : rows) {
    const uint32_t w = PartitionOf(s, num_workers);
    subjects[w].push_back(s);
    objects[w].push_back(o);
  }
  PredicateTable table;
  for (uint32_t w = 0; w < num_workers; ++w) {
    AddPartition(table,
                 TwoColumnPartition(std::move(subjects[w]),
                                    std::move(objects[w])),
                 term_lengths, /*row_group_rows=*/0);
  }
  return table;
}

uint64_t VpStore::TotalBytesEstimate() const {
  uint64_t total = 0;
  for (const auto& [predicate, table] : tables_) {
    for (uint64_t bytes : table.partition_bytes) total += bytes;
  }
  return total;
}

Status VpStore::WriteTo(const std::string& dir,
                        const rdf::Dictionary& dictionary) const {
  PROST_RETURN_IF_ERROR(MakeDirectories(dir));
  // Files are numbered sequentially; the manifest maps each number to
  // its predicate's lexical form so the directory is self-describing.
  std::string manifest;
  uint64_t index = 0;
  for (const auto& [predicate, table] : tables_) {
    PROST_ASSIGN_OR_RETURN(std::string_view lexical,
                           dictionary.LookupId(predicate));
    manifest += StrFormat("%llu\t%s\n",
                          static_cast<unsigned long long>(index),
                          std::string(lexical).c_str());
    for (uint32_t w = 0; w < num_workers_; ++w) {
      std::string path = StrFormat(
          "%s/vp_%llu_p%u.tbl", dir.c_str(),
          static_cast<unsigned long long>(index), w);
      // Persistence writes the decoded form, one partition at a time.
      PROST_ASSIGN_OR_RETURN(StoredTable decoded, table.paged[w].ToStored());
      PROST_RETURN_IF_ERROR(
          columnar::WriteLexicalTableFile(decoded, dictionary, path));
    }
    ++index;
  }
  return WriteStringToFile(dir + "/vp_manifest.txt", manifest);
}

}  // namespace prost::core
