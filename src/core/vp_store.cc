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

VpStore VpStore::Build(const rdf::EncodedGraph& graph, uint32_t num_workers) {
  VpStore store;
  store.num_workers_ = num_workers;

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
    uint32_t w = static_cast<uint32_t>(Mix64(t.subject) % num_workers);
    b.subjects[w].push_back(t.subject);
    b.objects[w].push_back(t.object);
  }

  Schema schema({Field{"s", ColumnKind::kId}, Field{"o", ColumnKind::kId}});
  std::vector<uint32_t> term_lengths = graph.dictionary().TermLengths();
  for (auto& [predicate, b] : builders) {
    PredicateTable table;
    table.partitions.reserve(num_workers);
    table.partition_bytes.reserve(num_workers);
    for (uint32_t w = 0; w < num_workers; ++w) {
      table.total_rows += b.subjects[w].size();
      std::vector<Column> columns;
      columns.emplace_back(std::move(b.subjects[w]));
      columns.emplace_back(std::move(b.objects[w]));
      table.partitions.emplace_back(schema, std::move(columns));
      // Sizes are in the lexical (Parquet string) form — what the
      // simulated Spark scans and what its planner sees.
      const StoredTable& part = table.partitions.back();
      table.partition_bytes.push_back(
          LexicalColumnSizeEstimate(part.column(0), term_lengths) +
          LexicalColumnSizeEstimate(part.column(1), term_lengths));
    }
    store.tables_.emplace(predicate, std::move(table));
  }
  return store;
}

VpStore VpStore::Assemble(uint32_t num_workers,
                          std::map<rdf::TermId, PredicateTable> tables) {
  VpStore store;
  store.num_workers_ = num_workers;
  store.tables_ = std::move(tables);
  return store;
}

const VpStore::PredicateTable* VpStore::Find(rdf::TermId predicate) const {
  auto it = tables_.find(predicate);
  return it == tables_.end() ? nullptr : &it->second;
}

uint64_t VpStore::ScanPlannerBytes(rdf::TermId predicate) const {
  const PredicateTable* table = Find(predicate);
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
  return ScanTable(Find(predicate), subject, object, num_workers_, cost,
                   exec, pool_, hints, telemetry);
}

Result<Relation> VpStore::ScanTable(const PredicateTable* table,
                                    const PatternTerm& subject,
                                    const PatternTerm& object,
                                    uint32_t num_workers,
                                    cluster::CostModel& cost,
                                    const engine::ExecContext* exec,
                                    columnar::BufferPool* pool,
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
    output.set_planner_bytes(0);
    return output;  // Unknown predicate: empty relation, nothing scanned.
  }

  // Planner sees the base table's serialized size (filters do not
  // discount it — Spark 2.1 static planning).
  uint64_t planner_bytes = 0;
  for (uint64_t bytes : table->partition_bytes) planner_bytes += bytes;
  output.set_planner_bytes(planner_bytes);

  const bool paged = table->paged_mode();
  if (paged && pool == nullptr) {
    return Status::Internal("paged VP table scanned without a buffer pool");
  }

  // Per partition: the rows the scan reads and the lexical bytes it
  // charges. A paged partition keeps only the row groups the pruner
  // cannot rule out; both columns form one charge unit.
  std::vector<RowGroupPruner::Partition> kept(paged ? num_workers : 0);
  std::vector<uint64_t> scanned_rows(num_workers, 0);
  std::vector<uint64_t> charged_bytes(num_workers, 0);
  ScanTelemetry local;
  if (paged) {
    const RowGroupPruner pruner(2, {{0, &subject}, {1, &object}}, hints);
    for (uint32_t w = 0; w < num_workers; ++w) {
      kept[w] = pruner.Prune(table->paged[w],
                             {{{0, 1}, table->partition_bytes[w]}}, local);
      scanned_rows[w] = kept[w].rows;
      charged_bytes[w] = kept[w].charged_bytes;
    }
  } else {
    for (uint32_t w = 0; w < num_workers; ++w) {
      scanned_rows[w] = table->partitions[w].num_rows();
      charged_bytes[w] = table->partition_bytes[w];
    }
  }

  // Scan tasks, in (partition, row) order: at most TaskRows rows of one
  // partition each. In-memory tasks are row ranges; paged tasks are runs
  // [begin, end) of a partition's surviving row groups (at least one).
  std::vector<engine::Morsel> tasks;
  if (paged) {
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
  } else {
    tasks = engine::PlanMorsels(
        std::vector<size_t>(scanned_rows.begin(), scanned_rows.end()), exec);
  }

  // The one VP scan kernel: emits the matching rows among [begin, end) of
  // an (s, o) column pair into `out`. Vectorized: constant terms filter
  // into a selection vector (`sel`, caller scratch), and the surviving
  // rows materialize via per-column gathers in ascending row order.
  auto scan_rows = [&](const IdVector& subjects, const IdVector& objects,
                       size_t begin, size_t end, RelationChunk& out,
                       std::vector<uint32_t>& sel) {
    if (subject.is_variable && object.is_variable && !same_var) {
      // Open scan: every row passes — bulk-append both columns.
      out.columns[0].insert(out.columns[0].end(), subjects.begin() + begin,
                            subjects.begin() + end);
      out.columns[1].insert(out.columns[1].end(), objects.begin() + begin,
                            objects.begin() + end);
      return;
    }
    sel.clear();
    if (!subject.is_variable) {
      engine::kernels::Filter(subjects, subject.id, begin, end, sel);
      if (!object.is_variable) {
        engine::kernels::Refine(objects, object.id, sel);
      }
    } else if (!object.is_variable) {
      engine::kernels::Filter(objects, object.id, begin, end, sel);
    } else {  // same_var: ?x p ?x
      engine::kernels::FilterRowsEqual(subjects, objects, begin, end, sel);
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
        if (!paged) {
          const StoredTable& part = table->partitions[task.chunk];
          scan_rows(part.column(0).ids(), part.column(1).ids(), task.begin,
                    task.end, out, sel);
          return Status::OK();
        }
        // Pins hold a group's decoded columns resident for exactly the
        // duration of its scan.
        const columnar::PagedTable& part = table->paged[task.chunk];
        for (size_t i = task.begin; i < task.end; ++i) {
          const uint32_t g = kept[task.chunk].groups[i];
          PROST_ASSIGN_OR_RETURN(columnar::PinnedPage s_page,
                                 pool->Pin(part, g, 0));
          PROST_ASSIGN_OR_RETURN(columnar::PinnedPage o_page,
                                 pool->Pin(part, g, 1));
          const IdVector& subjects = s_page.column().ids();
          scan_rows(subjects, o_page.column().ids(), 0, subjects.size(), out,
                    sel);
        }
        return Status::OK();
      },
      output));

  // Cost charges stay on the calling thread — the simulated cluster clock
  // is independent of real executor parallelism.
  uint64_t bytes_scanned = 0;
  for (uint32_t w = 0; w < num_workers; ++w) {
    cost.ChargeScan(w, charged_bytes[w]);
    cost.ChargeCpuRows(w, scanned_rows[w] + output.chunks()[w].num_rows());
    bytes_scanned += charged_bytes[w];
  }
  if (paged) RecordPagedScan(*pool, bytes_scanned, local, telemetry);
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
    uint32_t w = static_cast<uint32_t>(Mix64(s) % num_workers);
    subjects[w].push_back(s);
    objects[w].push_back(o);
  }
  Schema schema({Field{"s", ColumnKind::kId}, Field{"o", ColumnKind::kId}});
  PredicateTable table;
  table.partitions.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    table.total_rows += subjects[w].size();
    std::vector<Column> columns;
    columns.emplace_back(std::move(subjects[w]));
    columns.emplace_back(std::move(objects[w]));
    table.partitions.emplace_back(schema, std::move(columns));
    const StoredTable& part = table.partitions.back();
    table.partition_bytes.push_back(
        LexicalColumnSizeEstimate(part.column(0), term_lengths) +
        LexicalColumnSizeEstimate(part.column(1), term_lengths));
  }
  return table;
}

void VpStore::EnablePaging(columnar::BufferPool* pool,
                           uint32_t row_group_rows) {
  pool_ = pool;
  for (auto& [predicate, table] : tables_) {
    table.paged.clear();
    table.paged.reserve(table.partitions.size());
    for (StoredTable& part : table.partitions) {
      table.paged.push_back(
          columnar::PagedTable::FromStored(part, row_group_rows));
      // Release the decoded columns; keep a schema-shaped empty so code
      // that inspects partition shape (e.g. the plan checker) still sees
      // one entry per worker.
      Schema schema = part.schema();
      part = StoredTable(std::move(schema));
    }
  }
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
      if (table.paged_mode()) {
        // Paged stores persist from the encoded form — decode once here
        // rather than keeping both representations resident.
        PROST_ASSIGN_OR_RETURN(StoredTable decoded,
                               table.paged[w].ToStored());
        PROST_RETURN_IF_ERROR(
            columnar::WriteLexicalTableFile(decoded, dictionary, path));
      } else {
        PROST_RETURN_IF_ERROR(columnar::WriteLexicalTableFile(
            table.partitions[w], dictionary, path));
      }
    }
    ++index;
  }
  return WriteStringToFile(dir + "/vp_manifest.txt", manifest);
}

}  // namespace prost::core
