#ifndef PROST_BASELINES_RYA_H_
#define PROST_BASELINES_RYA_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/system.h"
#include "cluster/config.h"
#include "core/statistics.h"
#include "kvstore/kv_store.h"
#include "obs/metrics.h"

namespace prost::baselines {

/// Rya (Punnoose et al.): an RDF store on Apache Accumulo. "Since
/// Accumulo keeps all its information sorted and indexed by key, Rya
/// stores whole RDF triples as keys", replicated in three layouts
/// (SPO / POS / OSP) so every bound-position combination has a fast range
/// scan. Joins are index nested loops driven from the client: brilliant
/// when intermediate results are tiny, and "several orders of magnitude
/// slower" when they are not — there is no distributed hash join to fall
/// back on.
class RyaSystem : public RdfSystem {
 public:
  static Result<std::unique_ptr<RdfSystem>> Load(
      SharedGraph graph, const cluster::ClusterConfig& cluster);

  const std::string& name() const override { return name_; }
  Result<core::QueryResult> Execute(const sparql::Query& query,
                                    obs::QueryProfile* profile) const override;
  const core::LoadReport& load_report() const override {
    return load_report_;
  }
  Result<uint64_t> PersistTo(const std::string& dir) const override;

  /// Load-side observability: rya.index.entries / rya.index.layouts.
  const obs::MetricsRegistry* metrics() const override { return &metrics_; }

 private:
  /// Index layouts; the byte prefixes every key in the shared store.
  enum class Layout : char { kSpo = 's', kPos = 'p', kOsp = 'o' };

  RyaSystem() = default;

  /// Builds an index key: layout byte + the triple's ids in layout order
  /// (big-endian, so lexicographic order == numeric order).
  static std::string IndexKey(Layout layout, rdf::TermId a, rdf::TermId b,
                              rdf::TermId c);

  std::string name_ = "Rya";
  SharedGraph graph_;
  cluster::ClusterConfig cluster_;  // Accumulo profile (cheap stages).
  core::DatasetStatistics stats_;
  core::LoadReport load_report_;
  kvstore::SortedKvStore store_;
  obs::MetricsRegistry metrics_;
};

}  // namespace prost::baselines

#endif  // PROST_BASELINES_RYA_H_
