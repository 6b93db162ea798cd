#include "baselines/sparqlgx.h"

#include "common/compression.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "engine/operators.h"

namespace prost::baselines {

using core::JoinTreeNode;
using core::QueryResult;
using engine::Relation;

Result<std::unique_ptr<RdfSystem>> SparqlGxSystem::Load(
    SharedGraph graph, const cluster::ClusterConfig& cluster) {
  WallTimer timer;
  auto system = std::unique_ptr<SparqlGxSystem>(new SparqlGxSystem());
  system->graph_ = std::move(graph);
  const rdf::EncodedGraph& g = *system->graph_;
  const uint32_t workers = cluster.num_workers;

  system->stats_ = core::DatasetStatistics::Compute(g);
  system->vp_ = core::VpStore::Build(g, workers, system->pool_);

  // Text sizes of the per-predicate files ("s o" lines), the unit
  // SPARQLGX actually reads from HDFS.
  const rdf::Dictionary& dictionary = g.dictionary();
  std::vector<uint32_t> lengths(dictionary.size() + 1, 0);
  for (rdf::TermId id = 1; id <= dictionary.size(); ++id) {
    lengths[id] = static_cast<uint32_t>(dictionary.MustLookupId(id).size());
  }
  for (const rdf::EncodedTriple& t : g.triples()) {
    auto [it, inserted] = system->text_bytes_.try_emplace(
        t.predicate, std::vector<uint64_t>(workers, 0));
    const uint32_t w = PartitionOf(t.subject, workers);
    it->second[w] += lengths[t.subject] + lengths[t.object] + 2;
  }

  // Derated RDD execution profile (see class comment).
  system->cluster_ = cluster;
  system->cluster_.cpu_rows_per_sec = cluster.cpu_rows_per_sec * kRowRateFactor;
  system->cluster_.stage_overhead_sec =
      cluster.stage_overhead_sec * kStageOverheadFactor;
  system->cluster_.bytes_per_value = kTextBytesPerValue;

  // Loading: a single parse-and-write pass, like the paper's fastest
  // loader (no dictionary, no second structure).
  cluster::CostModel cost(cluster);
  uint64_t input_bytes = core::EstimateNTriplesBytes(g);
  cost.BeginStage("load: parse + text VP");
  for (uint32_t w = 0; w < workers; ++w) {
    cost.ChargeScan(w, input_bytes / workers);
    cost.ChargeLoadRows(w, g.size() / workers);
  }
  cost.EndStage();
  system->load_report_.input_triples = g.size();
  system->load_report_.input_bytes = input_bytes;
  system->load_report_.simulated_load_millis = cost.ElapsedMillis();
  uint64_t storage = 0;
  for (const auto& [predicate, bytes] : system->text_bytes_) {
    for (uint64_t b : bytes) storage += b;
  }
  system->metrics_.counter("sparqlgx.vp.predicates")
      .Add(system->text_bytes_.size());
  system->metrics_.counter("sparqlgx.vp.text_bytes").Add(storage);
  system->load_report_.storage_bytes = storage;
  system->load_report_.real_load_millis = timer.ElapsedMillis();
  return std::unique_ptr<RdfSystem>(std::move(system));
}

/// SPARQLGX's scan source: a VP node reads its predicate's text file.
/// The rows come from vp_ on a scratch clock; the query's clock is
/// charged the text-file profile instead — the partition's full text
/// scanned, plus per-line parsing of every stored line and output row.
/// The planner sees no sizes: without Catalyst every join shuffles.
class SparqlGxSystem::TextSource final : public core::ScanSource {
 public:
  explicit TextSource(const SparqlGxSystem& system) : system_(system) {}

  Result<uint64_t> ScanPlannerBytes(
      const JoinTreeNode& /*node*/) const override {
    return engine::kUnknownPlannerBytes;
  }

  uint64_t InputRows(const JoinTreeNode& node) const override {
    const core::VpStore::PredicateTable* table =
        system_.vp_.Find(node.patterns[0].predicate);
    return table != nullptr ? table->total_rows : 0;
  }

  // A text file has no row groups, so there is no telemetry to report.
  Result<Relation> Scan(const JoinTreeNode& node, cluster::CostModel& cost,
                        const engine::ExecContext* exec,
                        const core::ScanHints* hints,
                        core::ScanTelemetry* /*telemetry*/) const override {
    const core::NodePattern& pattern = node.patterns[0];
    cluster::CostModel scratch(system_.cluster_);
    PROST_ASSIGN_OR_RETURN(
        Relation scanned,
        system_.vp_.Scan(pattern.predicate, pattern.subject, pattern.object,
                         scratch, exec, hints));
    const core::VpStore::PredicateTable* table =
        system_.vp_.Find(pattern.predicate);
    auto bytes_it = system_.text_bytes_.find(pattern.predicate);
    for (uint32_t w = 0; w < system_.cluster_.num_workers; ++w) {
      if (bytes_it != system_.text_bytes_.end()) {
        cost.ChargeScan(w, bytes_it->second[w]);
      }
      uint64_t part_rows = table == nullptr ? 0 : table->paged[w].num_rows();
      cost.ChargeCpuRows(w, part_rows + scanned.chunks()[w].num_rows());
    }
    return scanned;
  }

 private:
  const SparqlGxSystem& system_;
};

Result<QueryResult> SparqlGxSystem::Execute(
    const sparql::Query& query, obs::QueryProfile* profile) const {
  // SPARQLGX compiles the BGP to a chain of RDD joins over VP files,
  // ordered by its own statistics.
  engine::JoinOptions join_options;
  join_options.allow_broadcast = false;      // No Catalyst planning.
  join_options.reuse_partitioning = false;   // Plain RDD joins re-shuffle.
  return ExecuteVpPlan(query, stats_, graph_->dictionary(), TextSource(*this),
                       join_options, cluster_, profile);
}

Result<uint64_t> SparqlGxSystem::PersistTo(const std::string& dir) const {
  PROST_RETURN_IF_ERROR(RemoveAllRecursively(dir));
  PROST_RETURN_IF_ERROR(MakeDirectories(dir));
  const rdf::Dictionary& dictionary = graph_->dictionary();
  for (const auto& [predicate, table] : vp_.tables()) {
    for (uint32_t w = 0; w < vp_.num_workers(); ++w) {
      PROST_ASSIGN_OR_RETURN(columnar::StoredTable part,
                             table.paged[w].ToStored());
      std::string text;
      const auto& subjects = part.column(0).ids();
      const auto& objects = part.column(1).ids();
      for (size_t r = 0; r < subjects.size(); ++r) {
        text += std::string(dictionary.MustLookupId(subjects[r]));
        text.push_back('\t');
        text += std::string(dictionary.MustLookupId(objects[r]));
        text.push_back('\n');
      }
      // SPARQLGX keeps its HDFS text files codec-compressed; that is
      // what makes it the smallest database in Table 1.
      PROST_ASSIGN_OR_RETURN(std::string compressed, DeflateCompress(text));
      std::string path = StrFormat(
          "%s/pred_%llu_p%u.txt.deflate", dir.c_str(),
          static_cast<unsigned long long>(predicate), w);
      PROST_RETURN_IF_ERROR(WriteStringToFile(path, compressed));
    }
  }
  return DirectorySize(dir);
}

}  // namespace prost::baselines
