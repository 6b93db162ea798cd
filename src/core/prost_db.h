#ifndef PROST_CORE_PROST_DB_H_
#define PROST_CORE_PROST_DB_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/config.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/property_table.h"
#include "core/statistics.h"
#include "core/translator.h"
#include "core/vp_store.h"
#include "engine/operators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/passes.h"
#include "rdf/graph.h"
#include "sparql/algebra.h"
#include "stats/cardinality_estimator.h"
#include "stats/characteristic_sets.h"

namespace prost::core {

/// PRoST: the paper's system. Stores an RDF graph twice — Vertical
/// Partitioning tables and a Property Table — translates SPARQL into Join
/// Trees with statistics-based priorities, and executes them on the
/// simulated Spark cluster.
///
///   prost::core::ProstDb::Options options;
///   auto db = prost::core::ProstDb::LoadFromNTriples(ntriples, options);
///   auto result = db->ExecuteSparql("SELECT * WHERE { ?s <p> ?o . }");
class ProstDb {
 public:
  /// The ablation-study switches below (enable_stats_ordering, the join
  /// knobs, the optimizer passes) are enumerated once in the DESIGN.md
  /// §4 ablation matrix.
  struct Options {
    cluster::ClusterConfig cluster;
    /// Disables the Property Table entirely (Figure 2's "VP only" bars):
    /// no PT is built and every pattern becomes a VP node.
    bool use_property_table = true;
    /// §5 future work: also build the object-keyed Property Table.
    bool use_reverse_property_table = false;
    /// A1 ablation: disable §3.3 statistics-based node ordering.
    bool enable_stats_ordering = true;
    /// §5 future work: collect pairwise subject-overlap statistics at
    /// load (extra loading cost) for sharper Join Tree estimates.
    bool collect_precise_statistics = false;
    /// Statically verify every physical plan before it executes: its
    /// scans once against storage, dictionary and statistics
    /// (analysis::CheckScanSources: pattern coverage, schema resolution,
    /// join-key type agreement, statistics/storage consistency), and its
    /// structure before the first optimizer pass and after every pass
    /// (analysis::CheckPhysicalPlan). Opt-out is honored only in plain
    /// release builds — debug and sanitizer builds (PROST_PARANOID_CHECKS)
    /// always verify.
    bool verify_plans = true;
    engine::JoinOptions join;
    /// Which optimizer passes rewrite the physical plan between
    /// translation and execution (constant-filter pushdown, plan-time
    /// join-strategy resolution, early projection — see DESIGN.md §4 and
    /// §10). All-false executes the translated Join Tree exactly as
    /// built; results are bit-identical either way, only the simulated
    /// cost differs.
    plan::PassOptions passes;
    /// Real-executor parallelism (morsel-driven operators). The default
    /// (num_threads = 1) builds no pool and runs every operator's tasks
    /// inline; num_threads = 0 uses cluster.cores_per_worker. Results are
    /// bit-identical across thread counts and simulated times are
    /// unchanged.
    engine::ExecOptions exec;
    /// Storage (DESIGN.md §15). Every structure is built at load as
    /// encoded row groups behind one shared BufferPool: scans pin and
    /// decode chunks on demand, skip row groups via zone maps and
    /// partitions via key bloom filters. Query results are bit-identical
    /// at every budget.
    struct StorageOptions {
      /// Decoded-page byte budget of the pool (LRU eviction above it).
      /// 0 means unbounded: every page stays resident once decoded.
      uint64_t buffer_pool_bytes = 0;
      /// Rows per row group (0 = columnar::kRowGroupSize). Smaller
      /// groups mean finer skipping and a finer-grained pool.
      uint32_t row_group_rows = 0;
    };
    StorageOptions storage;
  };

  /// Loads from an already-encoded graph. The graph is deduplicated, the
  /// statistics pass runs, and both storage structures are built; the
  /// simulated loading cost lands in load_report().
  static Result<std::unique_ptr<ProstDb>> LoadFromGraph(
      rdf::EncodedGraph graph, const Options& options);

  /// Loads from a shared graph (used when several systems are built over
  /// the same dataset, e.g. the comparison benches). The graph must
  /// already be deduplicated (rdf::EncodedGraph::SortAndDedupe).
  static Result<std::unique_ptr<ProstDb>> LoadFromSharedGraph(
      std::shared_ptr<const rdf::EncodedGraph> graph, const Options& options);

  /// Parses N-Triples text and loads it.
  static Result<std::unique_ptr<ProstDb>> LoadFromNTriples(
      std::string_view text, const Options& options);

  /// Reopens a database persisted by PersistTo: reads the lexical
  /// columnar files back into a fresh dictionary, reassembles the VP
  /// tables and Property Table(s), and recomputes the §3.3 statistics
  /// from the VP tables. Which structures exist is taken from the
  /// persisted manifest, overriding `options` flags.
  static Result<std::unique_ptr<ProstDb>> OpenFrom(const std::string& dir,
                                                   Options options);

  /// Translates a query into its Join Tree without executing (the logical
  /// half of EXPLAIN). Does not verify: the checks run on the physical
  /// plan, in PlanPhysical and Execute.
  Result<JoinTree> Plan(const sparql::Query& query) const;

  /// Plans a query all the way to the optimized physical plan without
  /// executing (EXPLAIN): translation, plan building, and the configured
  /// optimizer passes, with a before/after snapshot recorded per pass.
  /// Execute() runs exactly this plan (minus the snapshot rendering).
  Result<plan::PlannedQuery> PlanPhysical(const sparql::Query& query) const;

  /// Executes a parsed query. Each call runs on a fresh simulated clock.
  /// Safe to call concurrently at any thread configuration: each call
  /// is an independent execution (own cost model, own profile), and
  /// pool-backed executions share the work-sharing pool through
  /// per-query task regions (common/thread_pool.h) instead of
  /// serializing, so M racing queries each stay bit-identical to their
  /// serial runs. Admission control and budgets live one layer up, in
  /// serve::SessionManager (DESIGN.md §12).
  Result<QueryResult> Execute(const sparql::Query& query) const;

  /// Same, recording an operator-level trace into `profile` (may be
  /// null — identical to the overload above, with zero profiling cost).
  /// The profile must outlive the call and belongs to one execution.
  Result<QueryResult> Execute(const sparql::Query& query,
                              obs::QueryProfile* profile) const;

  /// Same, additionally enforcing a per-query resource budget (may be
  /// null — unlimited). A budget violation fails the query with
  /// kResourceExhausted, deterministically (the budget is checked
  /// against simulated quantities only; see engine::QueryBudget).
  Result<QueryResult> Execute(const sparql::Query& query,
                              obs::QueryProfile* profile,
                              const engine::QueryBudget* budget) const;

  /// Parses and executes a SPARQL string.
  Result<QueryResult> ExecuteSparql(std::string_view sparql) const;

  /// Decodes a result relation's rows back to lexical terms, in the
  /// relation's column order.
  Result<std::vector<std::vector<std::string>>> DecodeRows(
      const engine::Relation& relation) const;

  /// Persists the database (VP + PT as lexical columnar files) under
  /// `dir` and returns the total bytes written.
  Result<uint64_t> PersistTo(const std::string& dir) const;

  const LoadReport& load_report() const { return load_report_; }
  const DatasetStatistics& statistics() const { return stats_; }
  /// Characteristic sets collected at load (or reloaded from the
  /// persisted store) — the star-cardinality side of the estimator.
  const stats::CharacteristicSets& characteristic_sets() const {
    return char_sets_;
  }
  /// The cardinality estimator the join_order pass plans with. Valid for
  /// the lifetime of the database; immutable after load.
  const stats::CardinalityEstimator& estimator() const { return *estimator_; }
  const rdf::Dictionary& dictionary() const { return graph_->dictionary(); }
  const Options& options() const { return options_; }
  const VpStore& vp_store() const { return vp_; }
  const PropertyTable* property_table() const {
    return options_.use_property_table ? &pt_ : nullptr;
  }
  const PropertyTable* reverse_property_table() const {
    return options_.use_reverse_property_table ? &reverse_pt_ : nullptr;
  }
  /// Lifetime query metrics (query.executed / query.rows / query.failed
  /// counters, query.simulated_ms histogram), plus the buffer pool's
  /// storage.* family. Thread-safe.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// The page pool every storage structure scans through (never null
  /// after load; storage.buffer_pool_bytes = 0 makes it unbounded).
  const columnar::BufferPool* buffer_pool() const {
    return buffer_pool_.get();
  }

 private:
  ProstDb() = default;

  /// Creates pool_ when the resolved thread count asks for parallelism.
  void InitThreadPool();

  /// Creates buffer_pool_ from options_.storage. The first load step:
  /// every storage structure is built against it.
  void InitBufferPool();

  /// Shared planning pipeline behind Execute and PlanPhysical: Join Tree
  /// translation (Plan), physical-plan building, then the configured
  /// optimizer passes, invariant-checked after every pass when plan
  /// verification is on.
  Result<plan::PlannedQuery> BuildOptimizedPlan(const sparql::Query& query,
                                                bool record_snapshots) const;

  /// Runs an already-optimized plan on a fresh cost model. Lock-free:
  /// every execution is independent (storage is read-only, the pool
  /// multiplexes concurrent per-query regions), so any number of
  /// callers run this concurrently.
  Result<QueryResult> RunPlan(const plan::PlannedQuery& planned,
                              obs::QueryProfile* profile,
                              const engine::QueryBudget* budget) const;

  Options options_;
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<const rdf::EncodedGraph> graph_;
  DatasetStatistics stats_;
  stats::CharacteristicSets char_sets_;
  /// Borrows stats_'s per-predicate map and char_sets_; built last in
  /// every load path, never mutated afterwards.
  std::unique_ptr<stats::CardinalityEstimator> estimator_;
  VpStore vp_;
  PropertyTable pt_;
  PropertyTable reverse_pt_;
  LoadReport load_report_;
  /// Mutable: Execute() is const but counts every query it runs.
  /// Internally synchronized (own leaf mutex + atomic handles), so
  /// concurrent Executes count safely with no outer lock.
  mutable obs::MetricsRegistry metrics_;
  /// Declared after metrics_ (the pool borrows its counters) and after
  /// the storage members (it holds pages keyed by their paged tables):
  /// destroyed first.
  std::unique_ptr<columnar::BufferPool> buffer_pool_;
};

/// Estimated N-Triples text size of a graph (sum of lexical lengths plus
/// separators) — the "input bytes" every loader's simulated cost starts
/// from.
uint64_t EstimateNTriplesBytes(const rdf::EncodedGraph& graph);

}  // namespace prost::core

#endif  // PROST_CORE_PROST_DB_H_
