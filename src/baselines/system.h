#ifndef PROST_BASELINES_SYSTEM_H_
#define PROST_BASELINES_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "common/status.h"
#include "core/executor.h"
#include "core/prost_db.h"
#include "obs/metrics.h"
#include "rdf/graph.h"
#include "sparql/algebra.h"

namespace prost::baselines {

/// Uniform interface over the four evaluated systems (PRoST and the three
/// baselines of §4), so the comparison benches can drive them alike. All
/// systems are built over the same shared, deduplicated graph and the same
/// cluster description, matching the paper's single-cluster methodology.
class RdfSystem {
 public:
  virtual ~RdfSystem() = default;

  virtual const std::string& name() const = 0;

  /// Executes a parsed query on a fresh simulated clock.
  virtual Result<core::QueryResult> Execute(
      const sparql::Query& query) const = 0;

  virtual const core::LoadReport& load_report() const = 0;

  /// Persists the system's database under `dir` and returns the bytes
  /// written (the "Size" column of Table 1).
  virtual Result<uint64_t> PersistTo(const std::string& dir) const = 0;

  /// Load- and query-side observability counters, or null when a system
  /// records none. Names are system-prefixed (e.g. s2rdf.extvp.tables).
  virtual const obs::MetricsRegistry* metrics() const { return nullptr; }
};

using SharedGraph = std::shared_ptr<const rdf::EncodedGraph>;

/// PRoST itself, adapted to the comparison interface.
Result<std::unique_ptr<RdfSystem>> MakeProst(
    SharedGraph graph, const cluster::ClusterConfig& cluster);

/// PRoST restricted to Vertical Partitioning (Figure 2's baseline bars).
Result<std::unique_ptr<RdfSystem>> MakeProstVpOnly(
    SharedGraph graph, const cluster::ClusterConfig& cluster);

/// PRoST (mixed VP + PT) with a bounded buffer pool (DESIGN.md §15):
/// row groups of `row_group_rows` rows paged through a pool of
/// `pool_bytes` instead of MakeProst's unbounded one. Results are
/// bit-identical to MakeProst; the bytes_scanned counter and the
/// storage.* metrics show what the pool and the pruning did.
/// `row_group_rows` = 0 uses columnar::kRowGroupSize.
Result<std::unique_ptr<RdfSystem>> MakeProstPaged(
    SharedGraph graph, const cluster::ClusterConfig& cluster,
    uint64_t pool_bytes, uint32_t row_group_rows = 0);

/// PRoST restricted to Vertical Partitioning with cost-based join
/// ordering disabled: scans execute in the translator's §3.3 heuristic
/// order. Against MakeProstVpOnly this isolates what DP enumeration over
/// real statistics contributes — VP-only is the mode where every star
/// opens into reorderable scans, so it is where ordering actually bites
/// (the fourth bench_fig2 ablation).
Result<std::unique_ptr<RdfSystem>> MakeProstVpOnlyHeuristicOrder(
    SharedGraph graph, const cluster::ClusterConfig& cluster);

/// PRoST with every optimizer pass disabled (plan/passes.h PassOptions
/// all false): the translated Join Tree executes exactly as built.
/// Results are bit-identical to MakeProst; only the simulated cost
/// differs, which is what bench_fig2 tracks as the optimizer's margin.
Result<std::unique_ptr<RdfSystem>> MakeProstNoOptimizer(
    SharedGraph graph, const cluster::ClusterConfig& cluster);

/// SPARQLGX: text-file Vertical Partitioning compiled to plain RDD
/// operations (no Spark SQL / Catalyst).
Result<std::unique_ptr<RdfSystem>> MakeSparqlGx(
    SharedGraph graph, const cluster::ClusterConfig& cluster);

/// S2RDF: Vertical Partitioning extended with precomputed semi-join
/// reductions (ExtVP).
Result<std::unique_ptr<RdfSystem>> MakeS2Rdf(
    SharedGraph graph, const cluster::ClusterConfig& cluster);

/// Rya: triple-key indexes (SPO/POS/OSP) on a sorted key-value store with
/// index-nested-loop joins.
Result<std::unique_ptr<RdfSystem>> MakeRya(
    SharedGraph graph, const cluster::ClusterConfig& cluster);

/// Builds all four compared systems (PRoST, S2RDF, Rya, SPARQLGX) over
/// one graph, in the order the paper's tables list them.
Result<std::vector<std::unique_ptr<RdfSystem>>> MakeAllSystems(
    SharedGraph graph, const cluster::ClusterConfig& cluster);

}  // namespace prost::baselines

#endif  // PROST_BASELINES_SYSTEM_H_
