#include "baselines/system.h"

#include "baselines/rya.h"
#include "baselines/s2rdf.h"
#include "baselines/sparqlgx.h"
#include "core/translator.h"
#include "plan/planner.h"

namespace prost::baselines {
namespace {

/// Adapts ProstDb (the paper's system) to the comparison interface.
class ProstSystem : public RdfSystem {
 public:
  ProstSystem(std::string name, std::unique_ptr<core::ProstDb> db)
      : name_(std::move(name)), db_(std::move(db)) {}

  const std::string& name() const override { return name_; }
  Result<core::QueryResult> Execute(
      const sparql::Query& query, obs::QueryProfile* profile) const override {
    return db_->Execute(query, profile);
  }
  const core::LoadReport& load_report() const override {
    return db_->load_report();
  }
  Result<uint64_t> PersistTo(const std::string& dir) const override {
    return db_->PersistTo(dir);
  }
  const obs::MetricsRegistry* metrics() const override {
    return &db_->metrics();
  }

 private:
  std::string name_;
  std::unique_ptr<core::ProstDb> db_;
};

core::ProstDb::Options ProstOptions(const cluster::ClusterConfig& cluster) {
  core::ProstDb::Options options;
  options.cluster = cluster;
  return options;
}

Result<std::unique_ptr<RdfSystem>> LoadProst(
    std::string name, SharedGraph graph,
    const core::ProstDb::Options& options) {
  PROST_ASSIGN_OR_RETURN(
      std::unique_ptr<core::ProstDb> db,
      core::ProstDb::LoadFromSharedGraph(std::move(graph), options));
  return std::unique_ptr<RdfSystem>(
      new ProstSystem(std::move(name), std::move(db)));
}

}  // namespace

Result<core::QueryResult> ExecuteVpPlan(
    const sparql::Query& query, const core::DatasetStatistics& stats,
    const rdf::Dictionary& dictionary, const core::ScanSource& source,
    const engine::JoinOptions& join, const cluster::ClusterConfig& cluster,
    obs::QueryProfile* profile) {
  core::TranslatorOptions options;
  options.use_property_table = false;
  options.enable_stats_ordering = true;
  PROST_ASSIGN_OR_RETURN(core::JoinTree tree,
                         core::Translate(query, stats, dictionary, options));
  PROST_ASSIGN_OR_RETURN(plan::PhysicalPlan physical,
                         plan::BuildPlan(tree, query, source));
  cluster::CostModel cost(cluster);
  engine::ExecContext exec(nullptr, engine::kDefaultMorselRows, profile);
  return core::ExecutePlan(physical, source, join, dictionary, cost, &exec);
}

Result<std::unique_ptr<RdfSystem>> MakeProst(
    SharedGraph graph, const cluster::ClusterConfig& cluster) {
  return LoadProst("PRoST", std::move(graph), ProstOptions(cluster));
}

Result<std::unique_ptr<RdfSystem>> MakeProstVpOnly(
    SharedGraph graph, const cluster::ClusterConfig& cluster) {
  core::ProstDb::Options options = ProstOptions(cluster);
  options.use_property_table = false;
  return LoadProst("PRoST-VP-only", std::move(graph), options);
}

Result<std::unique_ptr<RdfSystem>> MakeProstPaged(
    SharedGraph graph, const cluster::ClusterConfig& cluster,
    uint64_t pool_bytes, uint32_t row_group_rows) {
  core::ProstDb::Options options = ProstOptions(cluster);
  options.storage.buffer_pool_bytes = pool_bytes;
  options.storage.row_group_rows = row_group_rows;
  return LoadProst("PRoST (paged)", std::move(graph), options);
}

Result<std::unique_ptr<RdfSystem>> MakeProstVpOnlyHeuristicOrder(
    SharedGraph graph, const cluster::ClusterConfig& cluster) {
  core::ProstDb::Options options = ProstOptions(cluster);
  options.use_property_table = false;
  options.passes.join_order = false;
  return LoadProst("PRoST-VP-only (heuristic order)", std::move(graph),
                   options);
}

Result<std::unique_ptr<RdfSystem>> MakeProstNoOptimizer(
    SharedGraph graph, const cluster::ClusterConfig& cluster) {
  core::ProstDb::Options options = ProstOptions(cluster);
  options.passes.filter_pushdown = false;
  options.passes.join_order = false;
  options.passes.resolve_join_strategy = false;
  options.passes.early_projection = false;
  return LoadProst("PRoST (no opt passes)", std::move(graph), options);
}

Result<std::unique_ptr<RdfSystem>> MakeSparqlGx(
    SharedGraph graph, const cluster::ClusterConfig& cluster) {
  return SparqlGxSystem::Load(std::move(graph), cluster);
}

Result<std::unique_ptr<RdfSystem>> MakeS2Rdf(
    SharedGraph graph, const cluster::ClusterConfig& cluster) {
  return S2RdfSystem::Load(std::move(graph), cluster);
}

Result<std::unique_ptr<RdfSystem>> MakeRya(
    SharedGraph graph, const cluster::ClusterConfig& cluster) {
  return RyaSystem::Load(std::move(graph), cluster);
}

Result<std::vector<std::unique_ptr<RdfSystem>>> MakeAllSystems(
    SharedGraph graph, const cluster::ClusterConfig& cluster) {
  std::vector<std::unique_ptr<RdfSystem>> systems;
  PROST_ASSIGN_OR_RETURN(std::unique_ptr<RdfSystem> prost,
                         MakeProst(graph, cluster));
  systems.push_back(std::move(prost));
  PROST_ASSIGN_OR_RETURN(std::unique_ptr<RdfSystem> s2rdf,
                         MakeS2Rdf(graph, cluster));
  systems.push_back(std::move(s2rdf));
  PROST_ASSIGN_OR_RETURN(std::unique_ptr<RdfSystem> rya,
                         MakeRya(graph, cluster));
  systems.push_back(std::move(rya));
  PROST_ASSIGN_OR_RETURN(std::unique_ptr<RdfSystem> sparqlgx,
                         MakeSparqlGx(graph, cluster));
  systems.push_back(std::move(sparqlgx));
  return systems;
}

}  // namespace prost::baselines
