#include "baselines/s2rdf.h"

#include "columnar/lexical_format.h"
#include "common/io.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "core/modifiers.h"
#include "core/translator.h"
#include "engine/operators.h"
#include "stats/predicate_index.h"

namespace prost::baselines {

using core::JoinTree;
using core::JoinTreeNode;
using core::QueryResult;
using core::VpStore;
using engine::Relation;

Result<std::unique_ptr<RdfSystem>> S2RdfSystem::Load(
    SharedGraph graph, const cluster::ClusterConfig& cluster) {
  WallTimer timer;
  auto system = std::unique_ptr<S2RdfSystem>(new S2RdfSystem());
  system->graph_ = std::move(graph);
  system->cluster_ = cluster;
  const rdf::EncodedGraph& g = *system->graph_;
  const uint32_t workers = cluster.num_workers;

  system->stats_ = core::DatasetStatistics::Compute(g);
  system->vp_ = VpStore::Build(g, workers, system->pool_);

  // Per predicate: rows plus subject/object membership sets, from the
  // shared statistics layer.
  stats::PredicateIndex index = stats::PredicateIndex::Build(g);

  // ExtVP construction: semi-join every ordered predicate pair in the
  // three correlation directions. This is the O(|P|²) precomputation that
  // dominates S2RDF's loading time in Table 1.
  std::vector<uint32_t> term_lengths = g.dictionary().TermLengths();
  obs::Counter& tables_stored =
      system->metrics_.counter("s2rdf.extvp.tables_stored");
  obs::Counter& rows_stored =
      system->metrics_.counter("s2rdf.extvp.rows_stored");
  obs::Counter& rejected_selectivity =
      system->metrics_.counter("s2rdf.extvp.rejected_selectivity");
  obs::Counter& rejected_empty =
      system->metrics_.counter("s2rdf.extvp.rejected_empty");
  obs::Histogram& selectivity_hist = system->metrics_.histogram(
      "s2rdf.extvp.selectivity", {0.1, 0.25, 0.5, 0.75, 0.95, 1.0});
  uint64_t semi_join_work = 0;
  for (const auto& [p, p_data] : index.entries()) {
    for (const auto& [q, q_data] : index.entries()) {
      if (p == q) continue;
      for (Correlation corr :
           {Correlation::kSS, Correlation::kSO, Correlation::kOS}) {
        const std::unordered_set<rdf::TermId>& probe_set =
            corr == Correlation::kSO ? q_data.objects : q_data.subjects;
        std::vector<std::pair<rdf::TermId, rdf::TermId>> reduced;
        for (const auto& row : p_data.rows) {
          rdf::TermId key = corr == Correlation::kOS ? row.second : row.first;
          if (probe_set.count(key)) reduced.push_back(row);
        }
        semi_join_work += p_data.rows.size() + reduced.size();
        double selectivity = static_cast<double>(reduced.size()) /
                             static_cast<double>(p_data.rows.size());
        selectivity_hist.Observe(selectivity);
        if (reduced.empty()) {
          rejected_empty.Increment();
        } else if (selectivity > kSelectivityThreshold) {
          rejected_selectivity.Increment();
        } else {
          tables_stored.Increment();
          rows_stored.Add(reduced.size());
          system->extvp_.emplace(
              ExtVpKey{corr, p, q},
              VpStore::BuildTable(reduced, workers, term_lengths));
        }
      }
    }
  }

  // Loading simulation: the standard ingest pass plus the semi-join work
  // at the (faster) Spark SQL rate.
  cluster::CostModel cost(cluster);
  uint64_t input_bytes = core::EstimateNTriplesBytes(g);
  cost.BeginStage("load: parse + vertical partitioning");
  for (uint32_t w = 0; w < workers; ++w) {
    cost.ChargeScan(w, input_bytes / workers);
    cost.ChargeLoadRows(w, g.size() / workers);
  }
  cost.ChargeShuffle(input_bytes / 3);
  cost.EndStage();
  cost.BeginStage("load: ExtVP semi-joins");
  for (uint32_t w = 0; w < workers; ++w) {
    cost.ChargeLoadRows(
        w, static_cast<uint64_t>(static_cast<double>(semi_join_work) /
                                 (workers * kExtVpRateFactor)));
  }
  cost.EndStage();

  system->load_report_.input_triples = g.size();
  system->load_report_.input_bytes = input_bytes;
  system->load_report_.simulated_load_millis = cost.ElapsedMillis();
  uint64_t extvp_bytes = 0;
  for (const auto& [key, table] : system->extvp_) {
    for (uint64_t b : table.partition_bytes) extvp_bytes += b;
  }
  system->load_report_.storage_bytes =
      system->vp_.TotalBytesEstimate() + extvp_bytes;
  system->load_report_.real_load_millis = timer.ElapsedMillis();
  return std::unique_ptr<RdfSystem>(std::move(system));
}

const VpStore::PredicateTable* S2RdfSystem::BestTableFor(
    const sparql::Query& query, size_t index, rdf::TermId predicate) const {
  const sparql::TriplePattern& pattern = query.bgp.patterns[index];
  const VpStore::PredicateTable* best = nullptr;
  auto consider = [&](Correlation corr, rdf::TermId q) {
    auto it = extvp_.find(ExtVpKey{corr, predicate, q});
    if (it == extvp_.end()) return;
    if (best == nullptr || it->second.total_rows < best->total_rows) {
      best = &it->second;
    }
  };
  const rdf::Dictionary& dictionary = graph_->dictionary();
  for (size_t j = 0; j < query.bgp.patterns.size(); ++j) {
    if (j == index) continue;
    const sparql::TriplePattern& other = query.bgp.patterns[j];
    rdf::TermId q = dictionary.Lookup(other.predicate.ToNTriples());
    if (q == rdf::kNullTermId) continue;
    if (pattern.subject.is_variable()) {
      if (other.subject.is_variable() &&
          other.subject.value == pattern.subject.value) {
        consider(Correlation::kSS, q);
      }
      if (other.object.is_variable() &&
          other.object.value == pattern.subject.value) {
        consider(Correlation::kSO, q);
      }
    }
    if (pattern.object.is_variable()) {
      if (other.subject.is_variable() &&
          other.subject.value == pattern.object.value) {
        consider(Correlation::kOS, q);
      }
    }
  }
  return best;
}

Result<QueryResult> S2RdfSystem::Execute(const sparql::Query& query) const {
  core::TranslatorOptions options;
  options.use_property_table = false;  // S2RDF is VP/ExtVP only.
  options.enable_stats_ordering = true;
  PROST_ASSIGN_OR_RETURN(
      JoinTree tree,
      core::Translate(query, stats_, graph_->dictionary(), options));

  cluster::CostModel cost(cluster_);
  engine::JoinOptions join_options;  // Full Spark SQL planning.

  QueryResult result;
  cost.ChargeQueryOverhead();
  cost.BeginStage("pipeline");
  Relation accumulated;
  // Catalyst plans each fold step from base-table sizes: the chosen
  // table's partition bytes, while the join so far has an unknown size.
  uint64_t accumulated_bytes = engine::kUnknownPlannerBytes;
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const JoinTreeNode& node = tree.nodes[i];
    // Map the node back to its source-pattern index for ExtVP selection.
    size_t source_index = 0;
    for (size_t j = 0; j < query.bgp.patterns.size(); ++j) {
      if (query.bgp.patterns[j] == node.patterns[0].source) {
        source_index = j;
        break;
      }
    }
    const VpStore::PredicateTable* table =
        BestTableFor(query, source_index, node.patterns[0].predicate);
    if (table == nullptr) table = vp_.Find(node.patterns[0].predicate);
    const uint64_t scanned_bytes = VpStore::ScanTablePlannerBytes(table);

    PROST_ASSIGN_OR_RETURN(
        Relation scanned,
        VpStore::ScanTable(table, node.patterns[0].subject,
                           node.patterns[0].object, cluster_.num_workers,
                           pool_, cost));
    if (i == 0) {
      accumulated = std::move(scanned);
      accumulated_bytes = scanned_bytes;
      continue;
    }
    const engine::JoinDecision decision = engine::ResolveJoinStrategy(
        accumulated_bytes, scanned_bytes, join_options, cluster_);
    PROST_ASSIGN_OR_RETURN(
        accumulated, engine::HashJoin(accumulated, scanned, decision, cost));
    result.join_strategies.push_back(decision.strategy);
    accumulated_bytes = engine::kUnknownPlannerBytes;
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

Result<uint64_t> S2RdfSystem::PersistTo(const std::string& dir) const {
  PROST_RETURN_IF_ERROR(RemoveAllRecursively(dir));
  PROST_RETURN_IF_ERROR(MakeDirectories(dir));
  PROST_RETURN_IF_ERROR(vp_.WriteTo(dir + "/vp", graph_->dictionary()));
  PROST_RETURN_IF_ERROR(MakeDirectories(dir + "/extvp"));
  for (const auto& [key, table] : extvp_) {
    const auto& [corr, p, q] = key;
    for (uint32_t w = 0; w < cluster_.num_workers; ++w) {
      std::string path = StrFormat(
          "%s/extvp/ev%u_%llu_%llu_p%u.tbl", dir.c_str(),
          static_cast<unsigned>(corr), static_cast<unsigned long long>(p),
          static_cast<unsigned long long>(q), w);
      PROST_ASSIGN_OR_RETURN(columnar::StoredTable decoded,
                             table.paged[w].ToStored());
      PROST_RETURN_IF_ERROR(columnar::WriteLexicalTableFile(
          decoded, graph_->dictionary(), path));
    }
  }
  return DirectorySize(dir);
}

}  // namespace prost::baselines
