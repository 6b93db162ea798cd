// End-to-end integration tests: every system (PRoST mixed, PRoST VP-only,
// PRoST with the reverse PT, S2RDF, Rya, SPARQLGX) must return exactly the
// same bag of rows as the brute-force reference evaluator on all 20 WatDiv
// basic queries — the central correctness property of the reproduction.

#include <gtest/gtest.h>

#include <memory>

#include "baselines/system.h"
#include "core/prost_db.h"
#include "reference_evaluator.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost {
namespace {

using baselines::RdfSystem;
using baselines::SharedGraph;

class WatDivIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    watdiv::WatDivConfig config;
    config.target_triples = 40000;
    config.seed = 7;
    watdiv::WatDivDataset dataset = watdiv::Generate(config);
    dataset.graph.SortAndDedupe();
    graph_ = std::make_shared<const rdf::EncodedGraph>(
        std::move(dataset.graph));

    cluster::ClusterConfig cluster;
    auto systems = baselines::MakeAllSystems(graph_, cluster);
    ASSERT_TRUE(systems.ok()) << systems.status();
    systems_ = std::make_unique<std::vector<std::unique_ptr<RdfSystem>>>(
        std::move(systems).value());
    auto vp_only = baselines::MakeProstVpOnly(graph_, cluster);
    ASSERT_TRUE(vp_only.ok()) << vp_only.status();
    systems_->push_back(std::move(vp_only).value());

    // PRoST with the §5 reverse Property Table enabled.
    core::ProstDb::Options reverse_options;
    reverse_options.cluster = cluster;
    reverse_options.use_reverse_property_table = true;
    auto reverse_db =
        core::ProstDb::LoadFromSharedGraph(graph_, reverse_options);
    ASSERT_TRUE(reverse_db.ok()) << reverse_db.status();
    reverse_db_ = std::move(reverse_db).value();

    watdiv::WatDivDataset sizing_only;  // Queries depend only on IRIs.
    queries_ = watdiv::BasicQuerySet(sizing_only);
  }

  static void TearDownTestSuite() {
    systems_.reset();
    reverse_db_.reset();
    graph_.reset();
  }

  static SharedGraph graph_;
  static std::unique_ptr<std::vector<std::unique_ptr<RdfSystem>>> systems_;
  static std::unique_ptr<core::ProstDb> reverse_db_;
  static std::vector<watdiv::WatDivQuery> queries_;
};

SharedGraph WatDivIntegrationTest::graph_;
std::unique_ptr<std::vector<std::unique_ptr<RdfSystem>>>
    WatDivIntegrationTest::systems_;
std::unique_ptr<core::ProstDb> WatDivIntegrationTest::reverse_db_;
std::vector<watdiv::WatDivQuery> WatDivIntegrationTest::queries_;

TEST_F(WatDivIntegrationTest, AllSystemsMatchReferenceOnAllBasicQueries) {
  ASSERT_EQ(queries_.size(), 20u);
  size_t nonempty = 0;
  for (const watdiv::WatDivQuery& wq : queries_) {
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << wq.id << ": " << parsed.status();
    const sparql::Query& query = parsed.value();

    std::vector<std::vector<rdf::TermId>> expected =
        testing::ReferenceEvaluate(query, *graph_);
    if (!expected.empty()) ++nonempty;

    for (const auto& system : *systems_) {
      auto result = system->Execute(query);
      ASSERT_TRUE(result.ok())
          << wq.id << " on " << system->name() << ": " << result.status();
      // Result columns follow the query projection in every system.
      EXPECT_EQ(result->relation.column_names(),
                query.EffectiveProjection())
          << wq.id << " on " << system->name();
      std::vector<std::vector<rdf::TermId>> actual =
          result->relation.CollectSortedRows();
      EXPECT_EQ(actual, expected)
          << wq.id << " on " << system->name() << ": got "
          << actual.size() << " rows, expected " << expected.size();
      EXPECT_GT(result->simulated_millis, 0.0)
          << wq.id << " on " << system->name();
    }

    auto reverse_result = reverse_db_->Execute(query);
    ASSERT_TRUE(reverse_result.ok())
        << wq.id << " reverse-PT: " << reverse_result.status();
    EXPECT_EQ(reverse_result->relation.CollectSortedRows(), expected)
        << wq.id << " on PRoST+reversePT";
  }
  // The generator must keep the query mix meaningful: most of the 20
  // queries have answers at this scale.
  EXPECT_GE(nonempty, 15u) << "too many empty-result queries";
}

TEST_F(WatDivIntegrationTest, MixedStrategyUsesFewerJoinsThanVpOnly) {
  // §3.2: grouping same-subject patterns must strictly reduce node count
  // (and therefore joins) on star-heavy queries.
  core::ProstDb::Options mixed_options;
  auto mixed = core::ProstDb::LoadFromSharedGraph(graph_, mixed_options);
  ASSERT_TRUE(mixed.ok());
  core::ProstDb::Options vp_options;
  vp_options.use_property_table = false;
  auto vp_only = core::ProstDb::LoadFromSharedGraph(graph_, vp_options);
  ASSERT_TRUE(vp_only.ok());

  for (const watdiv::WatDivQuery& wq : queries_) {
    auto query = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(query.ok());
    auto mixed_tree = (*mixed)->Plan(query.value());
    auto vp_tree = (*vp_only)->Plan(query.value());
    ASSERT_TRUE(mixed_tree.ok());
    ASSERT_TRUE(vp_tree.ok());
    // Both trees cover every pattern exactly once.
    for (const core::JoinTree* tree : {&*mixed_tree, &*vp_tree}) {
      size_t patterns = 0;
      for (const core::JoinTreeNode& node : tree->nodes) {
        patterns += node.patterns.size();
      }
      EXPECT_EQ(patterns, query->bgp.patterns.size()) << wq.id;
    }
    EXPECT_LE(mixed_tree->nodes.size(), vp_tree->nodes.size()) << wq.id;
    if (wq.query_class == 'S' || wq.query_class == 'C') {
      EXPECT_LT(mixed_tree->nodes.size(), vp_tree->nodes.size()) << wq.id;
    }
  }
}

TEST_F(WatDivIntegrationTest, StarQueriesBecomeSinglePropertyTableNode) {
  // S1 (a 9-pattern star around an offer) must collapse to one PT node
  // (plus none or one VP node for the retailer edge, whose subject is the
  // retailer constant, not the star variable).
  core::ProstDb::Options options;
  auto db = core::ProstDb::LoadFromSharedGraph(graph_, options);
  ASSERT_TRUE(db.ok());
  for (const watdiv::WatDivQuery& wq : queries_) {
    if (wq.id != "S1") continue;
    auto query = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(query.ok());
    auto tree = (*db)->Plan(query.value());
    ASSERT_TRUE(tree.ok());
    EXPECT_LE(tree->nodes.size(), 2u) << tree->ToString();
    size_t pt_nodes = 0;
    for (const auto& node : tree->nodes) {
      if (node.kind == core::NodeKind::kPropertyTable) ++pt_nodes;
    }
    EXPECT_EQ(pt_nodes, 1u) << tree->ToString();
  }
}

TEST_F(WatDivIntegrationTest, LoadReportsAreSane) {
  for (const auto& system : *systems_) {
    const core::LoadReport& report = system->load_report();
    EXPECT_EQ(report.input_triples, graph_->size()) << system->name();
    EXPECT_GT(report.simulated_load_millis, 0.0) << system->name();
    EXPECT_GT(report.storage_bytes, 0u) << system->name();
  }
}

TEST_F(WatDivIntegrationTest, LoadingTimeOrderingMatchesTable1) {
  // Table 1's shape: SPARQLGX <= PRoST < Rya < S2RDF (S2RDF pays the
  // O(|P|²) ExtVP precomputation).
  std::map<std::string, double> load;
  for (const auto& system : *systems_) {
    load[system->name()] = system->load_report().simulated_load_millis;
  }
  EXPECT_LE(load["SPARQLGX"], load["PRoST"]);
  EXPECT_LT(load["PRoST"], load["Rya"]);
  EXPECT_LT(load["Rya"], load["S2RDF"]);
}

}  // namespace
}  // namespace prost
