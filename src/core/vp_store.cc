#include "core/vp_store.h"

#include <algorithm>

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
using columnar::IdVector;
using columnar::Schema;
using columnar::StoredTable;
using engine::Relation;
using engine::RelationChunk;

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
  std::vector<std::string> names;
  if (subject.is_variable) names.push_back(subject.name);
  bool same_var = subject.is_variable && object.is_variable &&
                  subject.name == object.name;
  if (object.is_variable && !same_var) names.push_back(object.name);
  if (names.empty()) {
    return Status::Unimplemented(
        "triple patterns without variables are not supported");
  }

  Relation output(names, num_workers);
  if (table == nullptr) {
    return output;  // Unknown predicate: empty relation, nothing scanned.
  }

  // Per partition: the row groups the pruner cannot rule out, their rows
  // and the lexical bytes they charge; both columns form one charge unit.
  std::vector<RowGroupPruner::Partition> kept(num_workers);
  ScanTelemetry local;
  const RowGroupPruner pruner(2, {{0, &subject}, {1, &object}}, hints);
  for (uint32_t w = 0; w < num_workers; ++w) {
    kept[w] = pruner.Prune(table->paged[w],
                           {{{0, 1}, table->partition_bytes[w]}}, local);
  }

  // Scan tasks, in (partition, row) order: runs [begin, end) of a
  // partition's surviving row groups, at least one group and otherwise at
  // most TaskRows rows each.
  std::vector<engine::Morsel> tasks;
  const size_t task_rows = engine::TaskRows(exec);
  for (uint32_t w = 0; w < num_workers; ++w) {
    const std::vector<uint32_t>& groups = kept[w].groups;
    size_t begin = 0;
    size_t rows = 0;
    for (size_t i = 0; i < groups.size(); ++i) {
      const size_t group_rows = table->paged[w].group(groups[i]).num_rows;
      if (i > begin && rows + group_rows > task_rows) {
        tasks.push_back({w, begin, i});
        begin = i;
        rows = 0;
      }
      rows += group_rows;
    }
    if (begin < groups.size()) tasks.push_back({w, begin, groups.size()});
  }

  // The one VP scan kernel: emits the matching rows of one row group's
  // (s, o) column pair into `out`. Vectorized: constant terms filter into
  // a selection vector (`sel`, caller scratch), and the surviving rows
  // materialize via per-column gathers in ascending row order.
  auto scan_rows = [&](const IdVector& subjects, const IdVector& objects,
                       RelationChunk& out, std::vector<uint32_t>& sel) {
    const size_t end = subjects.size();
    if (subject.is_variable && object.is_variable && !same_var) {
      // Open scan: every row passes — bulk-append both columns.
      out.columns[0].insert(out.columns[0].end(), subjects.begin(),
                            subjects.end());
      out.columns[1].insert(out.columns[1].end(), objects.begin(),
                            objects.end());
      return;
    }
    sel.clear();
    if (!subject.is_variable) {
      engine::kernels::Filter(subjects, subject.id, 0, end, sel);
      if (!object.is_variable) {
        engine::kernels::Refine(objects, object.id, sel);
      }
    } else if (!object.is_variable) {
      engine::kernels::Filter(objects, object.id, 0, end, sel);
    } else {  // same_var: ?x p ?x
      engine::kernels::FilterRowsEqual(subjects, objects, 0, end, sel);
    }
    size_t c = 0;
    if (subject.is_variable) {
      engine::kernels::Gather(subjects, sel, out.columns[c++]);
    }
    if (object.is_variable && !same_var) {
      engine::kernels::Gather(objects, sel, out.columns[c]);
    }
  };

  PROST_RETURN_IF_ERROR(engine::RunMorsels(
      exec, tasks,
      [&](size_t t, RelationChunk& out) -> Status {
        const engine::Morsel& task = tasks[t];
        std::vector<uint32_t> sel;
        // Pins hold a group's decoded columns resident for exactly the
        // duration of its scan.
        const columnar::PagedTable& part = table->paged[task.chunk];
        for (size_t i = task.begin; i < task.end; ++i) {
          const uint32_t g = kept[task.chunk].groups[i];
          PROST_ASSIGN_OR_RETURN(columnar::PinnedPage s_page,
                                 pool.Pin(part, g, 0));
          PROST_ASSIGN_OR_RETURN(columnar::PinnedPage o_page,
                                 pool.Pin(part, g, 1));
          scan_rows(s_page.column().ids(), o_page.column().ids(), out, sel);
        }
        return Status::OK();
      },
      output));

  // Cost charges stay on the calling thread — the simulated cluster clock
  // is independent of real executor parallelism.
  uint64_t bytes_scanned = 0;
  for (uint32_t w = 0; w < num_workers; ++w) {
    cost.ChargeScan(w, kept[w].charged_bytes);
    cost.ChargeCpuRows(w, kept[w].rows + output.chunks()[w].num_rows());
    bytes_scanned += kept[w].charged_bytes;
  }
  RecordPagedScan(pool, bytes_scanned, local, telemetry);
  // VP partitions are subject-hash placed, so a variable subject keeps
  // that co-location in the output.
  if (subject.is_variable) output.set_hash_partitioned_by(0);
  return output;
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
