#include "core/prost_db.h"

#include "analysis/plan_checker.h"
#include "columnar/lexical_format.h"

#include "common/io.h"
#include "common/str_util.h"
#include "common/timer.h"

#include <cstdlib>
#include <unordered_set>
#include <utility>
#include "plan/planner.h"
#include "rdf/ntriples.h"
#include "sparql/parser.h"

namespace prost::core {
namespace {

// Plan verification opt-out is honored only in plain release builds —
// debug and sanitizer builds always verify.
#if defined(PROST_PARANOID_CHECKS) || !defined(NDEBUG)
constexpr bool kForceVerify = true;
#else
constexpr bool kForceVerify = false;
#endif

}  // namespace

uint64_t EstimateNTriplesBytes(const rdf::EncodedGraph& graph) {
  // Precompute per-term lexical lengths once, then one cheap pass.
  const rdf::Dictionary& dictionary = graph.dictionary();
  std::vector<uint32_t> lengths(dictionary.size() + 1, 0);
  for (rdf::TermId id = 1; id <= dictionary.size(); ++id) {
    lengths[id] = static_cast<uint32_t>(dictionary.MustLookupId(id).size());
  }
  uint64_t bytes = 0;
  for (const rdf::EncodedTriple& t : graph.triples()) {
    bytes += lengths[t.subject] + lengths[t.predicate] + lengths[t.object] +
             5;  // three separators + " .\n"
  }
  return bytes;
}

Result<std::unique_ptr<ProstDb>> ProstDb::LoadFromGraph(
    rdf::EncodedGraph graph, const Options& options) {
  graph.SortAndDedupe();
  return LoadFromSharedGraph(
      std::make_shared<const rdf::EncodedGraph>(std::move(graph)), options);
}

void ProstDb::InitBufferPool() {
  const uint64_t budget = options_.storage.buffer_pool_bytes;
  buffer_pool_ = std::make_unique<columnar::BufferPool>(
      budget == 0 ? columnar::kUnboundedBudget : budget, &metrics_);
}

void ProstDb::InitThreadPool() {
  uint32_t threads = options_.exec.num_threads == 0
                         ? options_.cluster.cores_per_worker
                         : options_.exec.num_threads;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

Result<std::unique_ptr<ProstDb>> ProstDb::LoadFromSharedGraph(
    std::shared_ptr<const rdf::EncodedGraph> graph, const Options& options) {
  WallTimer timer;
  auto db = std::unique_ptr<ProstDb>(new ProstDb());
  db->options_ = options;
  db->InitThreadPool();
  db->InitBufferPool();
  db->graph_ = std::move(graph);

  const uint64_t triples = db->graph_->size();
  const uint32_t workers = options.cluster.num_workers;

  // Statistics pass (§3.3: "calculated during the loading phase without
  // any significant overhead"). The optional pairwise pass is the §5
  // future-work extension and is *not* free — its cost is charged below.
  db->stats_ = options.collect_precise_statistics
                   ? DatasetStatistics::ComputeWithPairwise(*db->graph_)
                   : DatasetStatistics::Compute(*db->graph_);
  // Characteristic sets ride the same in-memory pass over the triples as
  // the §3.3 statistics (one grouping by subject), so like them they add
  // no separate simulated loading stage.
  db->char_sets_ = stats::CharacteristicSets::Compute(*db->graph_);
  db->estimator_ = std::make_unique<stats::CardinalityEstimator>(
      &db->stats_.per_predicate(), &db->char_sets_);

  // Build storage, straight into row groups.
  columnar::BufferPool& pool = *db->buffer_pool_;
  const uint32_t group_rows = options.storage.row_group_rows;
  db->vp_ = VpStore::Build(*db->graph_, workers, pool, group_rows);
  if (options.use_property_table) {
    db->pt_ = PropertyTable::Build(*db->graph_, db->stats_, workers, pool,
                                   /*keyed_on_object=*/false, group_rows);
  }
  if (options.use_reverse_property_table) {
    db->reverse_pt_ =
        PropertyTable::Build(*db->graph_, db->stats_, workers, pool,
                             /*keyed_on_object=*/true, group_rows);
  }

  // Simulated loading cost: one ingest pass (parse text, dictionary
  // encode, subject-hash shuffle, write VP), plus a cheaper groupBy-
  // subject pass per Property Table.
  cluster::CostModel cost(options.cluster);
  uint64_t input_bytes = EstimateNTriplesBytes(*db->graph_);
  cost.BeginStage("load: parse + vertical partitioning");
  for (uint32_t w = 0; w < workers; ++w) {
    cost.ChargeScan(w, input_bytes / workers);
    cost.ChargeLoadRows(w, triples / workers);
  }
  cost.ChargeShuffle(input_bytes / 3);  // Dictionary-encoded repartition.
  cost.EndStage();
  auto charge_pt_pass = [&](const char* label) {
    cost.BeginStage(label);
    for (uint32_t w = 0; w < workers; ++w) {
      // The PT pass reads already-encoded data and writes one wide table:
      // ~30% of the full ingest pass in the paper's loading ratio.
      cost.ChargeLoadRows(w, triples * 3 / 10 / workers);
    }
    cost.ChargeShuffle(input_bytes / 4);
    cost.EndStage();
  };
  if (options.use_property_table) {
    charge_pt_pass("load: property table");
  }
  if (options.use_reverse_property_table) {
    charge_pt_pass("load: reverse property table");
  }
  if (options.collect_precise_statistics) {
    // Pairwise overlap counting: a groupBy-subject aggregation pass.
    cost.BeginStage("load: pairwise statistics");
    for (uint32_t w = 0; w < workers; ++w) {
      cost.ChargeLoadRows(w, triples * 4 / 10 / workers);
    }
    cost.ChargeShuffle(input_bytes / 4);
    cost.EndStage();
  }

  db->load_report_.input_triples = triples;
  db->load_report_.input_bytes = input_bytes;
  db->load_report_.simulated_load_millis = cost.ElapsedMillis();
  db->load_report_.storage_bytes =
      db->vp_.TotalBytesEstimate() +
      (options.use_property_table ? db->pt_.TotalBytesEstimate() : 0) +
      (options.use_reverse_property_table
           ? db->reverse_pt_.TotalBytesEstimate()
           : 0);
  db->load_report_.real_load_millis = timer.ElapsedMillis();
  return db;
}

Result<std::unique_ptr<ProstDb>> ProstDb::LoadFromNTriples(
    std::string_view text, const Options& options) {
  PROST_ASSIGN_OR_RETURN(rdf::EncodedGraph graph, rdf::EncodeNTriples(text));
  return LoadFromGraph(std::move(graph), options);
}

Result<JoinTree> ProstDb::Plan(const sparql::Query& query) const {
  TranslatorOptions translator_options;
  translator_options.use_property_table = options_.use_property_table;
  translator_options.use_reverse_property_table =
      options_.use_reverse_property_table;
  translator_options.enable_stats_ordering = options_.enable_stats_ordering;
  return Translate(query, stats_, graph_->dictionary(), translator_options);
}

Result<plan::PlannedQuery> ProstDb::BuildOptimizedPlan(
    const sparql::Query& query, bool record_snapshots) const {
  PROST_ASSIGN_OR_RETURN(JoinTree tree, Plan(query));
  plan::PlannerInputs inputs;
  inputs.vp = &vp_;
  inputs.property_table = property_table();
  inputs.reverse_property_table = reverse_property_table();
  PROST_ASSIGN_OR_RETURN(plan::PhysicalPlan physical,
                         plan::BuildPlan(tree, query, inputs));
  plan::PassManagerOptions manager_options;
  manager_options.record_snapshots = record_snapshots;
  if (kForceVerify || options_.verify_plans) {
    // Check the scans against storage, dictionary and statistics once (no
    // pass rewrites a scan's source), then the plan's structure before
    // the first pass and after every pass, so a rewrite that breaks the
    // plan is caught before execution.
    analysis::PlanContext check_context;
    check_context.vp = &vp_;
    check_context.property_table = inputs.property_table;
    check_context.reverse_property_table = inputs.reverse_property_table;
    check_context.stats = &stats_;
    check_context.dictionary = &graph_->dictionary();
    check_context.cluster = &options_.cluster;
    PROST_RETURN_IF_ERROR(
        analysis::CheckScanSources(physical, query, check_context));
    manager_options.validate = [&query](const plan::PhysicalPlan& p) {
      return analysis::CheckPhysicalPlan(p, query);
    };
  }
  plan::PassManager manager(std::move(manager_options));
  plan::AddDefaultPasses(manager, options_.passes);
  plan::PassContext context;
  context.join = options_.join;
  context.cluster = &options_.cluster;
  context.estimator = estimator_.get();
  PROST_RETURN_IF_ERROR(manager.Run(physical, context));
  plan::PlannedQuery planned;
  planned.plan = std::move(physical);
  planned.snapshots = manager.snapshots();
  return planned;
}

Result<plan::PlannedQuery> ProstDb::PlanPhysical(
    const sparql::Query& query) const {
  return BuildOptimizedPlan(query, /*record_snapshots=*/true);
}

Result<QueryResult> ProstDb::Execute(const sparql::Query& query) const {
  return Execute(query, nullptr, nullptr);
}

Result<QueryResult> ProstDb::Execute(const sparql::Query& query,
                                     obs::QueryProfile* profile) const {
  return Execute(query, profile, nullptr);
}

Result<QueryResult> ProstDb::RunPlan(const plan::PlannedQuery& planned,
                                     obs::QueryProfile* profile,
                                     const engine::QueryBudget* budget) const {
  cluster::CostModel cost(options_.cluster);
  engine::ExecContext exec(pool_.get(), options_.exec.morsel_rows, profile,
                           budget);
  return ExecutePlan(
      planned.plan, vp_, property_table(), reverse_property_table(),
      options_.join, graph_->dictionary(), cost, &exec);
}

Result<QueryResult> ProstDb::Execute(const sparql::Query& query,
                                     obs::QueryProfile* profile,
                                     const engine::QueryBudget* budget) const {
  PROST_ASSIGN_OR_RETURN(plan::PlannedQuery planned,
                         BuildOptimizedPlan(query,
                                            /*record_snapshots=*/false));
  // No execution lock: every call owns its cost model / profile, the
  // storage structures are read-only, and the pool multiplexes one task
  // region per concurrent query (common/thread_pool.h). The old
  // exec_mu_ full serialization is gone — M racing Executes proceed in
  // parallel and each stays bit-identical to its serial run
  // (tests/serving_stress_test.cpp).
  Result<QueryResult> result = RunPlan(planned, profile, budget);
  // Metrics are internally synchronized (atomic instruments behind a
  // leaf-ranked registration mutex), so per-query counter deltas stay
  // exact under concurrent Execute (obs_test
  // ConcurrentExecuteCountsAreExact).
  if (result.ok()) {
    metrics_.counter("query.executed").Increment();
    metrics_.counter("query.rows").Add(result->relation.TotalRows());
    metrics_
        .histogram("query.simulated_ms",
                   {1, 10, 100, 1000, 10000, 100000})
        .Observe(result->simulated_millis);
  } else {
    metrics_.counter("query.failed").Increment();
  }
  return result;
}

Result<QueryResult> ProstDb::ExecuteSparql(std::string_view sparql) const {
  PROST_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql));
  return Execute(query);
}

Result<std::vector<std::vector<std::string>>> ProstDb::DecodeRows(
    const engine::Relation& relation) const {
  std::vector<std::vector<std::string>> rows;
  for (const engine::Row& row : relation.CollectRows()) {
    std::vector<std::string> decoded;
    decoded.reserve(row.size());
    for (rdf::TermId id : row) {
      if (rdf::IsVirtualIntegerId(id)) {
        decoded.push_back(rdf::VirtualIntegerLexical(id));
        continue;
      }
      PROST_ASSIGN_OR_RETURN(std::string_view lexical,
                             graph_->dictionary().LookupId(id));
      decoded.emplace_back(lexical);
    }
    rows.push_back(std::move(decoded));
  }
  return rows;
}

Result<uint64_t> ProstDb::PersistTo(const std::string& dir) const {
  PROST_RETURN_IF_ERROR(RemoveAllRecursively(dir));
  PROST_RETURN_IF_ERROR(MakeDirectories(dir));
  PROST_RETURN_IF_ERROR(vp_.WriteTo(dir + "/vp", graph_->dictionary()));
  if (options_.use_property_table) {
    PROST_RETURN_IF_ERROR(pt_.WriteTo(dir + "/pt", graph_->dictionary()));
  }
  if (options_.use_reverse_property_table) {
    PROST_RETURN_IF_ERROR(
        reverse_pt_.WriteTo(dir + "/ptrev", graph_->dictionary()));
  }
  // Characteristic sets persist keyed on lexical predicates: term ids are
  // re-assigned when the store is re-interned on open.
  PROST_RETURN_IF_ERROR(
      char_sets_.WriteTo(dir + "/charsets.txt", graph_->dictionary()));
  std::string manifest = StrFormat(
      "prostdb 1\nworkers %u\npt %d\nptrev %d\nstats %d\n",
      options_.cluster.num_workers, options_.use_property_table ? 1 : 0,
      options_.use_reverse_property_table ? 1 : 0,
      char_sets_.num_sets() > 0 ? 1 : 0);
  PROST_RETURN_IF_ERROR(WriteStringToFile(dir + "/MANIFEST", manifest));
  return DirectorySize(dir);
}

Result<std::unique_ptr<ProstDb>> ProstDb::OpenFrom(const std::string& dir,
                                                   Options options) {
  WallTimer timer;

  // 1. Top-level manifest: worker count and which structures exist.
  std::string manifest;
  PROST_RETURN_IF_ERROR(ReadFileToString(dir + "/MANIFEST", &manifest));
  uint32_t workers = 0;
  int pt_flag = -1, ptrev_flag = -1;
  // Older stores predate persisted characteristic sets; absent flag means
  // "recompute from the VP tables below".
  int stats_flag = 0;
  for (const std::string& line : StrSplit(StrTrim(manifest), '\n')) {
    std::vector<std::string> parts = StrSplit(line, ' ');
    if (parts.size() != 2) continue;
    if (parts[0] == "workers") {
      workers = static_cast<uint32_t>(
          std::strtoul(parts[1].c_str(), nullptr, 10));
    } else if (parts[0] == "pt") {
      pt_flag = parts[1] == "1";
    } else if (parts[0] == "ptrev") {
      ptrev_flag = parts[1] == "1";
    } else if (parts[0] == "stats") {
      stats_flag = parts[1] == "1";
    }
  }
  if (workers == 0 || pt_flag < 0 || ptrev_flag < 0) {
    return Status::Corruption("malformed MANIFEST in " + dir);
  }
  options.cluster.num_workers = workers;
  options.use_property_table = pt_flag == 1;
  options.use_reverse_property_table = ptrev_flag == 1;

  auto graph = std::make_shared<rdf::EncodedGraph>();
  rdf::Dictionary& dictionary = graph->mutable_dictionary();

  // 2. Vertical Partitioning tables via the VP manifest.
  std::string vp_manifest;
  PROST_RETURN_IF_ERROR(
      ReadFileToString(dir + "/vp/vp_manifest.txt", &vp_manifest));
  struct PendingTable {
    rdf::TermId predicate;
    std::vector<columnar::StoredTable> partitions;
  };
  std::vector<PendingTable> pending;
  for (const std::string& line : StrSplit(StrTrim(vp_manifest), '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> parts = StrSplit(line, '\t');
    if (parts.size() != 2) {
      return Status::Corruption("malformed vp manifest line: " + line);
    }
    PendingTable table;
    table.predicate = dictionary.Intern(parts[1]);
    for (uint32_t w = 0; w < workers; ++w) {
      std::string path = StrFormat("%s/vp/vp_%s_p%u.tbl", dir.c_str(),
                                   parts[0].c_str(), w);
      PROST_ASSIGN_OR_RETURN(
          columnar::StoredTable part,
          columnar::ReadLexicalTableFile(path, &dictionary));
      table.partitions.push_back(std::move(part));
    }
    pending.push_back(std::move(table));
  }

  // 3. Property Table partitions (the dictionary keeps growing).
  auto read_pt =
      [&](const char* stem) -> Result<std::vector<columnar::StoredTable>> {
    std::vector<columnar::StoredTable> partitions;
    for (uint32_t w = 0; w < workers; ++w) {
      std::string path =
          StrFormat("%s/%s/%s_p%u.tbl", dir.c_str(), stem, stem, w);
      PROST_ASSIGN_OR_RETURN(
          columnar::StoredTable part,
          columnar::ReadLexicalTableFile(path, &dictionary));
      partitions.push_back(std::move(part));
    }
    return partitions;
  };
  std::vector<columnar::StoredTable> pt_partitions, ptrev_partitions;
  if (options.use_property_table) {
    PROST_ASSIGN_OR_RETURN(pt_partitions, read_pt("pt"));
  }
  if (options.use_reverse_property_table) {
    PROST_ASSIGN_OR_RETURN(ptrev_partitions, read_pt("ptrev"));
  }

  // 4. Assemble the stores against the final dictionary, straight into
  // row groups; recompute the §3.3 statistics from the VP tables
  // themselves.
  auto db = std::unique_ptr<ProstDb>(new ProstDb());
  db->options_ = options;
  db->InitThreadPool();
  db->InitBufferPool();
  columnar::BufferPool& pool = *db->buffer_pool_;
  const uint32_t group_rows = options.storage.row_group_rows;
  std::vector<uint32_t> term_lengths = dictionary.TermLengths();
  std::map<rdf::TermId, VpStore::PredicateTable> tables;
  std::map<rdf::TermId, rdf::PredicateStats> per_predicate;
  stats::CharacteristicSets::Builder char_set_builder;
  for (PendingTable& p : pending) {
    VpStore::PredicateTable table;
    rdf::PredicateStats stats;
    std::unordered_set<rdf::TermId> subjects, objects;
    for (columnar::StoredTable& part : p.partitions) {
      for (rdf::TermId id : part.column(0).ids()) {
        subjects.insert(id);
        // Every VP row is one (subject, predicate) pair, so the
        // characteristic sets can be rebuilt exactly when the persisted
        // file is missing.
        if (stats_flag == 0) char_set_builder.Add(id, p.predicate);
      }
      for (rdf::TermId id : part.column(1).ids()) {
        objects.insert(id);
        if (dictionary.IsLiteralId(id)) ++stats.literal_objects;
      }
      VpStore::AddPartition(table, part, term_lengths, group_rows);
      part = columnar::StoredTable();  // Release the decoded columns now.
    }
    stats.triple_count = table.total_rows;
    stats.distinct_subjects = subjects.size();
    stats.distinct_objects = objects.size();
    per_predicate.emplace(p.predicate, stats);
    tables.emplace(p.predicate, std::move(table));
  }

  db->stats_ = DatasetStatistics::FromPerPredicate(std::move(per_predicate));
  if (stats_flag == 1) {
    PROST_ASSIGN_OR_RETURN(
        db->char_sets_,
        stats::CharacteristicSets::ReadFrom(dir + "/charsets.txt",
                                            dictionary));
  } else {
    db->char_sets_ = std::move(char_set_builder).Build();
  }
  db->estimator_ = std::make_unique<stats::CardinalityEstimator>(
      &db->stats_.per_predicate(), &db->char_sets_);
  db->vp_ = VpStore::Assemble(workers, std::move(tables), pool);
  if (options.use_property_table) {
    PROST_ASSIGN_OR_RETURN(
        db->pt_, PropertyTable::Assemble(std::move(pt_partitions),
                                         dictionary, false, pool,
                                         group_rows));
  }
  if (options.use_reverse_property_table) {
    PROST_ASSIGN_OR_RETURN(
        db->reverse_pt_,
        PropertyTable::Assemble(std::move(ptrev_partitions), dictionary,
                                true, pool, group_rows));
  }
  db->graph_ = std::move(graph);  // Dictionary only; no raw triples kept.
  db->load_report_.input_triples = db->stats_.total_triples();
  db->load_report_.storage_bytes =
      db->vp_.TotalBytesEstimate() +
      (options.use_property_table ? db->pt_.TotalBytesEstimate() : 0) +
      (options.use_reverse_property_table
           ? db->reverse_pt_.TotalBytesEstimate()
           : 0);
  db->load_report_.real_load_millis = timer.ElapsedMillis();
  return db;
}

}  // namespace prost::core
