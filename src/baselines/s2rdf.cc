#include "baselines/s2rdf.h"

#include "columnar/lexical_format.h"
#include "common/io.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "engine/operators.h"
#include "stats/predicate_index.h"

namespace prost::baselines {

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

const VpStore::PredicateTable* S2RdfSystem::TableFor(
    const sparql::Query& query, const JoinTreeNode& node) const {
  const core::NodePattern& node_pattern = node.patterns[0];
  const sparql::TriplePattern& pattern = node_pattern.source;
  const VpStore::PredicateTable* best = nullptr;
  auto consider = [&](Correlation corr, rdf::TermId q) {
    auto it = extvp_.find(ExtVpKey{corr, node_pattern.predicate, q});
    if (it == extvp_.end()) return;
    if (best == nullptr || it->second.total_rows < best->total_rows) {
      best = &it->second;
    }
  };
  auto same_variable = [](const rdf::Term& a, const rdf::Term& b) {
    return a.is_variable() && b.is_variable() && a.value == b.value;
  };
  const rdf::Dictionary& dictionary = graph_->dictionary();
  // Every other pattern of the BGP (the first equal one stands for the
  // node's own) that shares a variable with it offers a reduction.
  bool skipped_self = false;
  for (const sparql::TriplePattern& other : query.bgp.patterns) {
    if (!skipped_self && other == pattern) {
      skipped_self = true;
      continue;
    }
    rdf::TermId q = dictionary.Lookup(other.predicate.ToNTriples());
    if (q == rdf::kNullTermId) continue;
    if (same_variable(pattern.subject, other.subject)) {
      consider(Correlation::kSS, q);
    }
    if (same_variable(pattern.subject, other.object)) {
      consider(Correlation::kSO, q);
    }
    if (same_variable(pattern.object, other.subject)) {
      consider(Correlation::kOS, q);
    }
  }
  return best != nullptr ? best : vp_.Find(node_pattern.predicate);
}

/// S2RDF's scan source for one query: each VP node scans the table
/// TableFor picks and is priced at that table's size — the base-table
/// size Catalyst plans joins from.
class S2RdfSystem::QuerySource final : public core::ScanSource {
 public:
  QuerySource(const S2RdfSystem& system, const sparql::Query& query)
      : system_(system), query_(query) {}

  Result<uint64_t> ScanPlannerBytes(const JoinTreeNode& node) const override {
    return VpStore::ScanTablePlannerBytes(system_.TableFor(query_, node));
  }

  uint64_t InputRows(const JoinTreeNode& node) const override {
    const VpStore::PredicateTable* table = system_.TableFor(query_, node);
    return table != nullptr ? table->total_rows : 0;
  }

  Result<Relation> Scan(const JoinTreeNode& node, cluster::CostModel& cost,
                        const engine::ExecContext* exec,
                        const core::ScanHints* hints,
                        core::ScanTelemetry* telemetry) const override {
    return VpStore::ScanTable(system_.TableFor(query_, node),
                              node.patterns[0].subject,
                              node.patterns[0].object,
                              system_.cluster_.num_workers, system_.pool_,
                              cost, exec, hints, telemetry);
  }

 private:
  const S2RdfSystem& system_;
  const sparql::Query& query_;
};

Result<QueryResult> S2RdfSystem::Execute(const sparql::Query& query,
                                         obs::QueryProfile* profile) const {
  // S2RDF is VP/ExtVP only, with full Spark SQL join planning.
  return ExecuteVpPlan(query, stats_, graph_->dictionary(),
                       QuerySource(*this, query), engine::JoinOptions(),
                       cluster_, profile);
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
