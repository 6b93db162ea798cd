#ifndef PROST_BASELINES_SPARQLGX_H_
#define PROST_BASELINES_SPARQLGX_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/system.h"
#include "cluster/config.h"
#include "columnar/buffer_pool.h"
#include "core/statistics.h"
#include "core/translator.h"
#include "core/vp_store.h"
#include "obs/metrics.h"

namespace prost::baselines {

/// SPARQLGX (Graux et al., ISWC 2016): Vertical Partitioning stored as
/// flat text files on HDFS, with queries compiled directly to Spark RDD
/// operations. "Differently from S2RDF and PRoST, SPARQLGX does not use
/// Spark SQL"; it relies on its own statistics for join ordering.
///
/// The reproduction shares PRoST's VP storage (ids in memory) but charges
/// costs through an RDD-era profile: scans are priced at the *text* size
/// of each predicate file, per-row work at a text-processing rate (no
/// whole-stage codegen), shuffles carry lexical tuples, and every join is
/// a shuffle (no Catalyst broadcast planning).
class SparqlGxSystem : public RdfSystem {
 public:
  static Result<std::unique_ptr<RdfSystem>> Load(
      SharedGraph graph, const cluster::ClusterConfig& cluster);

  const std::string& name() const override { return name_; }
  Result<core::QueryResult> Execute(const sparql::Query& query) const override;
  const core::LoadReport& load_report() const override {
    return load_report_;
  }
  Result<uint64_t> PersistTo(const std::string& dir) const override;

  /// Load-side observability: sparqlgx.vp.predicates / text_bytes.
  const obs::MetricsRegistry* metrics() const override { return &metrics_; }

 private:
  SparqlGxSystem() = default;

  /// Cost penalties relative to the Spark SQL systems, from the gap the
  /// paper measures (SPARQLGX ~an order of magnitude behind PRoST):
  /// text-tuple processing and serialization without codegen.
  static constexpr double kRowRateFactor = 1.0 / 8.0;
  static constexpr double kStageOverheadFactor = 2.2;
  static constexpr double kTextBytesPerValue = 26.0;

  std::string name_ = "SPARQLGX";
  SharedGraph graph_;
  cluster::ClusterConfig cluster_;   // Derated RDD profile.
  /// Unbounded page pool behind vp_.
  columnar::BufferPool pool_{columnar::kUnboundedBudget};
  core::VpStore vp_;
  core::DatasetStatistics stats_;
  core::LoadReport load_report_;
  /// Text bytes of each predicate's VP file per partition (scan charges
  /// and persisted size).
  std::map<rdf::TermId, std::vector<uint64_t>> text_bytes_;
  obs::MetricsRegistry metrics_;
};

}  // namespace prost::baselines

#endif  // PROST_BASELINES_SPARQLGX_H_
