// Tests for the plan-level static analyzer: defects planted in the scan
// sources of a built physical plan (or in the Join Tree before it is
// lowered, or in the query) must each fail with a distinct diagnostic
// naming the offending scan, ProstDb must reject them before anything
// executes, and every plan built for the WatDiv basic query set must be
// accepted with the full context (stores, statistics, dictionary).

#include "analysis/plan_checker.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/prost_db.h"
#include "plan/planner.h"
#include "rdf/graph.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost::analysis {
namespace {

using rdf::Term;

/// u1 likes p1,p2 ; u2 likes p1 ; users have literal names and ages,
/// products have literal labels — so <likes> objects are all entities
/// while <name>/<age>/<label> objects are all literals.
rdf::EncodedGraph SmallGraph() {
  rdf::EncodedGraph graph;
  auto add = [&](const char* s, const char* p, const char* o, bool lit) {
    graph.Add({Term::Iri(s), Term::Iri(p),
               lit ? Term::Literal(o) : Term::Iri(o)});
  };
  add("u1", "likes", "p1", false);
  add("u1", "likes", "p2", false);
  add("u1", "age", "30", true);
  add("u1", "name", "ann", true);
  add("u2", "likes", "p1", false);
  add("u2", "age", "30", true);
  add("u3", "name", "cat", true);
  add("p1", "label", "x", true);
  add("p2", "label", "y", true);
  graph.SortAndDedupe();
  return graph;
}

/// The plan's scan leaves, left to right, writable so tests can plant
/// defects in their Join Tree sources.
void CollectScans(plan::PlanNode& node,
                  std::vector<plan::ScanNodeBase*>& scans) {
  if (node.kind == plan::PlanNodeKind::kVpScan ||
      node.kind == plan::PlanNodeKind::kPtScan) {
    scans.push_back(static_cast<plan::ScanNodeBase*>(&node));
    return;
  }
  for (const std::unique_ptr<plan::PlanNode>& child : node.children) {
    CollectScans(*child, scans);
  }
}

std::vector<plan::ScanNodeBase*> Scans(plan::PhysicalPlan& physical) {
  std::vector<plan::ScanNodeBase*> scans;
  CollectScans(*physical.root, scans);
  return scans;
}

plan::PlannerInputs Inputs(const core::ProstDb& db) {
  plan::PlannerInputs inputs;
  inputs.vp = &db.vp_store();
  inputs.property_table = db.property_table();
  return inputs;
}

class PlanCheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ProstDb::Options options;
    auto db = core::ProstDb::LoadFromGraph(SmallGraph(), options);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
  }

  PlanContext Context() const {
    PlanContext context;
    context.vp = &db_->vp_store();
    context.property_table = db_->property_table();
    context.stats = &db_->statistics();
    context.dictionary = &db_->dictionary();
    context.cluster = &db_->options().cluster;
    return context;
  }

  /// Parses and translates (ProstDb::Plan does not verify), so tests can
  /// plant defects in the tree before it is lowered.
  void Translate(const std::string& text, sparql::Query* query,
                 core::JoinTree* tree) {
    auto parsed = sparql::ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    *query = std::move(parsed).value();
    auto translated = db_->Plan(*query);
    ASSERT_TRUE(translated.ok()) << translated.status();
    *tree = std::move(translated).value();
  }

  /// Translates and lowers to the unoptimized physical plan, without the
  /// ProstDb verification layer.
  void Build(const std::string& text, sparql::Query* query,
             plan::PhysicalPlan* physical) {
    core::JoinTree tree;
    ASSERT_NO_FATAL_FAILURE(Translate(text, query, &tree));
    auto built = plan::BuildPlan(tree, *query, Inputs(*db_));
    ASSERT_TRUE(built.ok()) << built.status();
    *physical = std::move(built).value();
  }

  /// ProstDb must refuse `query` before executing it, with `expected` in
  /// the diagnostic.
  void ExpectExecuteRejects(const sparql::Query& query,
                            const std::string& expected) {
    auto result = db_->Execute(query);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find(expected), std::string::npos)
        << result.status();
  }

  std::unique_ptr<core::ProstDb> db_;
};

TEST_F(PlanCheckerTest, AcceptsTranslatedPlans) {
  const char* queries[] = {
      "SELECT * WHERE { ?u <likes> ?p . }",
      "SELECT ?u WHERE { ?u <likes> ?p . ?u <age> ?a . ?u <name> ?n . }",
      "SELECT * WHERE { ?u <likes> ?p . ?p <label> ?l . }",
      "SELECT ?u WHERE { ?u <likes> <p1> . }",
      "SELECT * WHERE { ?u <nonexistent> ?x . }",  // Known-empty scan.
  };
  for (const char* text : queries) {
    sparql::Query query;
    plan::PhysicalPlan physical;
    ASSERT_NO_FATAL_FAILURE(Build(text, &query, &physical));
    Status status = CheckScanSources(physical, query, Context());
    EXPECT_TRUE(status.ok()) << text << ": " << status;
    status = CheckPhysicalPlan(physical, query);
    EXPECT_TRUE(status.ok()) << text << ": " << status;
  }
}

TEST_F(PlanCheckerTest, RejectsUnknownPredicateTable) {
  sparql::Query query;
  plan::PhysicalPlan physical;
  ASSERT_NO_FATAL_FAILURE(
      Build("SELECT * WHERE { ?u <likes> ?p . }", &query, &physical));
  std::vector<plan::ScanNodeBase*> scans = Scans(physical);
  ASSERT_EQ(scans.size(), 1u);
  // A term the dictionary knows but that no VP table exists for: a
  // subject IRI. (A never-seen term would be the legal id-0 empty scan.)
  rdf::TermId bogus = db_->dictionary().Lookup("<u1>");
  ASSERT_NE(bogus, rdf::kNullTermId);
  scans[0]->source.patterns[0].predicate = bogus;
  Status status = CheckScanSources(physical, query, Context());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown predicate table"),
            std::string::npos)
      << status;
  EXPECT_NE(status.message().find("scan 0"), std::string::npos) << status;
}

TEST_F(PlanCheckerTest, RejectsJoinKeyTypeMismatch) {
  // ?x is the object of <likes> (objects all entities) in one scan and
  // the object of <name> (objects all literals) in the other; every join
  // on ?x is empty by schema.
  sparql::Query query;
  plan::PhysicalPlan physical;
  ASSERT_NO_FATAL_FAILURE(Build(
      "SELECT * WHERE { ?a <likes> ?x . ?b <name> ?x . }", &query,
      &physical));
  Status status = CheckScanSources(physical, query, Context());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("join-key type mismatch for ?x"),
            std::string::npos)
      << status;
}

TEST_F(PlanCheckerTest, RejectsUnboundProjectedVariable) {
  sparql::Query query;
  core::JoinTree tree;
  ASSERT_NO_FATAL_FAILURE(
      Translate("SELECT ?u WHERE { ?u <likes> ?p . }", &query, &tree));
  query.projection = {"ghost"};
  auto physical = plan::BuildPlan(tree, query, Inputs(*db_));
  ASSERT_TRUE(physical.ok()) << physical.status();
  Status status = CheckPhysicalPlan(*physical, query);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("projected column ?ghost"),
            std::string::npos)
      << status;
  // Through ProstDb the translator refuses it before a plan exists.
  ExpectExecuteRejects(query, "projected variable ?ghost");
}

TEST_F(PlanCheckerTest, RejectsDuplicateOutputColumn) {
  sparql::Query query;
  core::JoinTree tree;
  ASSERT_NO_FATAL_FAILURE(
      Translate("SELECT ?u WHERE { ?u <likes> ?p . }", &query, &tree));
  query.projection = {"u", "u"};
  auto physical = plan::BuildPlan(tree, query, Inputs(*db_));
  ASSERT_TRUE(physical.ok()) << physical.status();
  Status status = CheckPhysicalPlan(*physical, query);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("duplicate projected column ?u"),
            std::string::npos)
      << status;
  ExpectExecuteRejects(query, "duplicate projected column ?u");
}

TEST_F(PlanCheckerTest, RejectsCrossProduct) {
  sparql::Query query;
  core::JoinTree tree;
  ASSERT_NO_FATAL_FAILURE(Translate(
      "SELECT * WHERE { ?u <likes> ?p . ?p <label> ?l . }", &query, &tree));
  ASSERT_EQ(tree.nodes.size(), 2u);
  // The parser refuses disconnected BGPs outright, so disconnect the tree
  // by hand: rename the <label> node's subject — consistently in the tree
  // and in the query, so only the missing join key is wrong.
  for (core::JoinTreeNode& node : tree.nodes) {
    core::NodePattern& pattern = node.patterns[0];
    if (pattern.source.predicate.value != "label") continue;
    pattern.subject.name = "q";
    pattern.source.subject = Term::Variable("q");
  }
  for (sparql::TriplePattern& pattern : query.bgp.patterns) {
    if (pattern.predicate.value == "label") {
      pattern.subject = Term::Variable("q");
    }
  }
  auto physical = plan::BuildPlan(tree, query, Inputs(*db_));
  ASSERT_FALSE(physical.ok());
  EXPECT_NE(physical.status().message().find("at least one shared column"),
            std::string::npos)
      << physical.status();
  // Through ProstDb the translator refuses it before a plan exists.
  ExpectExecuteRejects(query, "cross product");
}

TEST_F(PlanCheckerTest, RejectsUncoveredPattern) {
  sparql::Query query;
  plan::PhysicalPlan physical;
  ASSERT_NO_FATAL_FAILURE(Build(
      "SELECT * WHERE { ?u <likes> ?p . ?p <label> ?l . }", &query,
      &physical));
  std::vector<plan::ScanNodeBase*> scans = Scans(physical);
  ASSERT_EQ(scans.size(), 2u);
  // Both scans now evaluate the same pattern, so the other one is lost.
  scans[1]->source = scans[0]->source;
  Status status = CheckScanSources(physical, query, Context());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not covered by any scan"),
            std::string::npos)
      << status;
}

TEST_F(PlanCheckerTest, RejectsCardinalityAboveStatisticsBound) {
  sparql::Query query;
  plan::PhysicalPlan physical;
  ASSERT_NO_FATAL_FAILURE(
      Build("SELECT * WHERE { ?u <likes> ?p . }", &query, &physical));
  Scans(physical)[0]->source.estimated_cardinality = 1e18;
  Status status = CheckScanSources(physical, query, Context());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("exceeds the statistics upper bound"),
            std::string::npos)
      << status;
}

TEST_F(PlanCheckerTest, RejectsStatisticsStorageDisagreement) {
  sparql::Query query;
  plan::PhysicalPlan physical;
  ASSERT_NO_FATAL_FAILURE(
      Build("SELECT * WHERE { ?u <likes> ?p . }", &query, &physical));
  // Rebuild statistics with a wrong triple count for <likes>: broadcast
  // eligibility and node ordering would be planned against stale sizes.
  auto per_predicate = db_->statistics().per_predicate();
  rdf::TermId likes = db_->dictionary().Lookup("<likes>");
  ASSERT_NE(per_predicate.find(likes), per_predicate.end());
  per_predicate[likes].triple_count += 5;
  core::DatasetStatistics stale =
      core::DatasetStatistics::FromPerPredicate(std::move(per_predicate));
  PlanContext context = Context();
  context.stats = &stale;
  // Keep the estimate below the (inflated) bound so only the
  // storage-agreement check can fire.
  Status status = CheckScanSources(physical, query, context);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("statistics/storage disagreement"),
            std::string::npos)
      << status;
}

TEST_F(PlanCheckerTest, ProstDbPlanPhysicalAndExecuteRunTheChecker) {
  // The type-mismatch query from above translates (Plan does not verify),
  // but is rejected before execution when planned or executed through
  // ProstDb with verify_plans on (the default).
  auto parsed = sparql::ParseQuery(
      "SELECT * WHERE { ?a <likes> ?x . ?b <name> ?x . }");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(db_->Plan(*parsed).ok());
  auto planned = db_->PlanPhysical(*parsed);
  ASSERT_FALSE(planned.ok());
  EXPECT_NE(planned.status().message().find("join-key type mismatch"),
            std::string::npos)
      << planned.status();
  ExpectExecuteRejects(*parsed, "join-key type mismatch");
}

TEST(PlanCheckerWatDivTest, AcceptsEveryTranslatedWatDivPlan) {
  watdiv::WatDivConfig config;
  config.target_triples = 40000;
  config.seed = 7;
  watdiv::WatDivDataset dataset = watdiv::Generate(config);
  core::ProstDb::Options options;
  options.use_reverse_property_table = true;
  auto db = core::ProstDb::LoadFromGraph(std::move(dataset.graph), options);
  ASSERT_TRUE(db.ok()) << db.status();

  PlanContext context;
  context.vp = &(*db)->vp_store();
  context.property_table = (*db)->property_table();
  context.reverse_property_table = (*db)->reverse_property_table();
  context.stats = &(*db)->statistics();
  context.dictionary = &(*db)->dictionary();
  context.cluster = &(*db)->options().cluster;
  plan::PlannerInputs inputs = Inputs(**db);
  inputs.reverse_property_table = context.reverse_property_table;

  watdiv::WatDivDataset sizing_only;  // Queries depend only on IRIs.
  auto queries = watdiv::ParseQuerySet(watdiv::BasicQuerySet(sizing_only));
  ASSERT_TRUE(queries.ok()) << queries.status();
  ASSERT_FALSE(queries->empty());
  for (size_t i = 0; i < queries->size(); ++i) {
    const sparql::Query& query = (*queries)[i];
    auto tree = (*db)->Plan(query);
    ASSERT_TRUE(tree.ok()) << "query " << i << ": " << tree.status();
    auto physical = plan::BuildPlan(*tree, query, inputs);
    ASSERT_TRUE(physical.ok()) << "query " << i << ": " << physical.status();
    Status status = CheckScanSources(*physical, query, context);
    EXPECT_TRUE(status.ok()) << "query " << i << ": " << status;
    // The whole verified pipeline, passes included.
    auto planned = (*db)->PlanPhysical(query);
    EXPECT_TRUE(planned.ok()) << "query " << i << ": " << planned.status();
  }
}

}  // namespace
}  // namespace prost::analysis
