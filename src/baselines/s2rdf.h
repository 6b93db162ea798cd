#ifndef PROST_BASELINES_S2RDF_H_
#define PROST_BASELINES_S2RDF_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "baselines/system.h"
#include "cluster/config.h"
#include "columnar/buffer_pool.h"
#include "core/statistics.h"
#include "core/vp_store.h"
#include "obs/metrics.h"

namespace prost::baselines {

/// S2RDF (Schätzle et al., VLDB 2016): Vertical Partitioning extended
/// with ExtVP — precomputed semi-join reductions between every correlated
/// predicate pair. At query time each triple pattern scans the smallest
/// applicable reduction instead of the full VP table, which removes most
/// join input ("many intermediate results of queries are already
/// computed"). The price is exactly what Table 1 shows: the largest
/// database and a loading time an order of magnitude beyond everyone
/// else's, because load performs O(|P|²) semi-joins.
class S2RdfSystem : public RdfSystem {
 public:
  /// Correlation directions of an ExtVP table ExtVP_XY^{p|q}: the rows of
  /// VP_p whose X position appears in the Y position of VP_q. S2RDF's
  /// default table set (OO is omitted there as well).
  enum class Correlation : uint8_t { kSS = 0, kSO = 1, kOS = 2 };

  /// Only reductions at or below this selectivity (|ExtVP| / |VP_p|) are
  /// persisted. S2RDF's default keeps every reduction with selectivity
  /// < 1 (its optional "SF" threshold trades query speed for storage);
  /// 0.95 skips only the useless near-identity tables.
  static constexpr double kSelectivityThreshold = 0.95;

  /// ExtVP construction runs as Spark SQL joins over already-encoded
  /// data, faster per row than the parse-and-ingest path; this factor
  /// relates the two rates in the loading-time simulation.
  static constexpr double kExtVpRateFactor = 20.0;

  static Result<std::unique_ptr<RdfSystem>> Load(
      SharedGraph graph, const cluster::ClusterConfig& cluster);

  const std::string& name() const override { return name_; }
  Result<core::QueryResult> Execute(const sparql::Query& query) const override;
  const core::LoadReport& load_report() const override {
    return load_report_;
  }
  Result<uint64_t> PersistTo(const std::string& dir) const override;

  /// ExtVP observability: s2rdf.extvp.tables_stored / rows_stored /
  /// rejected_selectivity / rejected_empty counters plus the
  /// s2rdf.extvp.selectivity histogram over candidate reductions.
  const obs::MetricsRegistry* metrics() const override { return &metrics_; }

 private:
  using ExtVpKey = std::tuple<Correlation, rdf::TermId, rdf::TermId>;

  S2RdfSystem() = default;

  /// The smallest stored reduction applicable to pattern `index` of the
  /// query's BGP, or nullptr to fall back to plain VP.
  const core::VpStore::PredicateTable* BestTableFor(
      const sparql::Query& query, size_t index, rdf::TermId predicate) const;

  std::string name_ = "S2RDF";
  SharedGraph graph_;
  cluster::ClusterConfig cluster_;
  /// Unbounded page pool behind vp_ and the ExtVP tables. Mutable: scans
  /// pin pages from const Execute.
  mutable columnar::BufferPool pool_{columnar::kUnboundedBudget};
  core::VpStore vp_;
  core::DatasetStatistics stats_;
  core::LoadReport load_report_;
  std::map<ExtVpKey, core::VpStore::PredicateTable> extvp_;
  obs::MetricsRegistry metrics_;
};

}  // namespace prost::baselines

#endif  // PROST_BASELINES_S2RDF_H_
