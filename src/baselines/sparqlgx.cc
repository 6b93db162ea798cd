#include "baselines/sparqlgx.h"

#include "common/compression.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "core/modifiers.h"
#include "engine/operators.h"

namespace prost::baselines {

using core::JoinTree;
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

Result<QueryResult> SparqlGxSystem::Execute(
    const sparql::Query& query) const {
  // SPARQLGX compiles the BGP to a chain of RDD joins over VP files,
  // ordered by its own statistics.
  core::TranslatorOptions options;
  options.use_property_table = false;
  options.enable_stats_ordering = true;
  PROST_ASSIGN_OR_RETURN(
      JoinTree tree,
      core::Translate(query, stats_, graph_->dictionary(), options));

  cluster::CostModel cost(cluster_);
  cluster::CostModel scratch(cluster_);  // VP's own charges are replaced.
  engine::JoinOptions join_options;
  join_options.allow_broadcast = false;      // No Catalyst planning.
  join_options.reuse_partitioning = false;   // Plain RDD joins re-shuffle.
  // Without Catalyst there are no relation sizes, and every join shuffles.
  const engine::JoinDecision decision =
      engine::ResolveJoinStrategy(engine::kUnknownPlannerBytes,
                                  engine::kUnknownPlannerBytes, join_options,
                                  cluster_);

  QueryResult result;
  cost.ChargeQueryOverhead();
  cost.BeginStage("rdd pipeline");
  Relation accumulated;
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const JoinTreeNode& node = tree.nodes[i];
    PROST_ASSIGN_OR_RETURN(
        Relation scanned,
        vp_.Scan(node.patterns[0].predicate, node.patterns[0].subject,
                 node.patterns[0].object, scratch));
    // Replace the columnar charges with the text-file profile: full text
    // scan of the predicate file plus per-line parsing work.
    const core::VpStore::PredicateTable* table =
        vp_.Find(node.patterns[0].predicate);
    auto bytes_it = text_bytes_.find(node.patterns[0].predicate);
    for (uint32_t w = 0; w < cluster_.num_workers; ++w) {
      if (bytes_it != text_bytes_.end()) {
        cost.ChargeScan(w, bytes_it->second[w]);
      }
      uint64_t part_rows =
          table == nullptr ? 0 : table->paged[w].num_rows();
      cost.ChargeCpuRows(w, part_rows + scanned.chunks()[w].num_rows());
    }
    if (i == 0) {
      accumulated = std::move(scanned);
      continue;
    }
    PROST_ASSIGN_OR_RETURN(
        accumulated, engine::HashJoin(accumulated, scanned, decision, cost));
    result.join_strategies.push_back(decision.strategy);
  }
  PROST_ASSIGN_OR_RETURN(
      accumulated,
      core::ApplyFiltersAndModifiers(std::move(accumulated), query,
                                     graph_->dictionary(), cost));
  cost.EndStage();
  result.relation = std::move(accumulated);
  result.simulated_millis = cost.ElapsedMillis();
  result.counters = cost.counters();
  return result;
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
