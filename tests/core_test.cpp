// Unit tests for PRoST's core: dataset statistics, VP store scans, the
// Property Table (flat, list, and reverse variants), the SPARQL → Join
// Tree translator, and the executor, checked on small hand-built graphs.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "columnar/buffer_pool.h"
#include "common/io.h"

#include "core/executor.h"
#include "core/join_tree.h"
#include "core/property_table.h"
#include "core/prost_db.h"
#include "core/statistics.h"
#include "core/translator.h"
#include "core/vp_store.h"
#include "plan/planner.h"
#include "rdf/graph.h"
#include "sparql/parser.h"

namespace prost::core {
namespace {

using rdf::Term;
using rdf::TermId;

/// A small social graph used throughout:
///   u1 likes p1, p2 ; u1 age "30" ; u1 name "ann"
///   u2 likes p1      ; u2 age "30"
///   u3 name "cat"
///   p1 label "x" ; p2 label "y"
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

TermId IdOf(const rdf::EncodedGraph& graph, const std::string& lexical) {
  return graph.dictionary().Lookup(lexical);
}

// ------------------------------------------------------------ Statistics

TEST(StatisticsTest, PerPredicateCounts) {
  rdf::EncodedGraph graph = SmallGraph();
  DatasetStatistics stats = DatasetStatistics::Compute(graph);
  EXPECT_EQ(stats.total_triples(), 9u);
  EXPECT_EQ(stats.num_predicates(), 4u);
  rdf::PredicateStats likes = stats.ForPredicate(IdOf(graph, "<likes>"));
  EXPECT_EQ(likes.triple_count, 3u);
  EXPECT_EQ(likes.distinct_subjects, 2u);
  EXPECT_EQ(likes.distinct_objects, 2u);
  EXPECT_TRUE(likes.is_multi_valued());
  EXPECT_EQ(stats.ForPredicate(9999).triple_count, 0u);
}

TEST(StatisticsTest, PatternCardinality) {
  rdf::EncodedGraph graph = SmallGraph();
  DatasetStatistics stats = DatasetStatistics::Compute(graph);
  TermId likes = IdOf(graph, "<likes>");
  sparql::TriplePattern open{Term::Variable("s"), Term::Iri("likes"),
                             Term::Variable("o")};
  EXPECT_DOUBLE_EQ(stats.EstimatePatternCardinality(open, likes), 3.0);
  sparql::TriplePattern bound_object{Term::Variable("s"),
                                     Term::Iri("likes"), Term::Iri("p1")};
  EXPECT_DOUBLE_EQ(stats.EstimatePatternCardinality(bound_object, likes),
                   1.5);
  sparql::TriplePattern bound_subject{Term::Iri("u1"), Term::Iri("likes"),
                                      Term::Variable("o")};
  EXPECT_DOUBLE_EQ(stats.EstimatePatternCardinality(bound_subject, likes),
                   1.5);
}

TEST(StatisticsTest, PairwiseSubjectOverlap) {
  rdf::EncodedGraph graph = SmallGraph();
  DatasetStatistics basic = DatasetStatistics::Compute(graph);
  DatasetStatistics precise = DatasetStatistics::ComputeWithPairwise(graph);
  TermId likes = IdOf(graph, "<likes>");
  TermId age = IdOf(graph, "<age>");
  TermId name = IdOf(graph, "<name>");
  TermId label = IdOf(graph, "<label>");
  EXPECT_FALSE(basic.has_pairwise());
  EXPECT_TRUE(precise.has_pairwise());
  // Without pairwise data the overlap falls back to min of singles.
  EXPECT_EQ(basic.SubjectOverlap(likes, age), 2u);
  // u1 and u2 have both likes and age.
  EXPECT_EQ(precise.SubjectOverlap(likes, age), 2u);
  EXPECT_EQ(precise.SubjectOverlap(age, likes), 2u);  // Symmetric.
  // Only u1 has both likes and name; basic's bound is 2.
  EXPECT_EQ(precise.SubjectOverlap(likes, name), 1u);
  EXPECT_EQ(basic.SubjectOverlap(likes, name), 2u);
  // likes and label never share a subject.
  EXPECT_EQ(precise.SubjectOverlap(likes, label), 0u);
  // Same predicate: its own distinct-subject count.
  EXPECT_EQ(precise.SubjectOverlap(likes, likes), 2u);
}

// -------------------------------------------------------------- VpStore

TEST(VpStoreTest, BuildShape) {
  rdf::EncodedGraph graph = SmallGraph();
  columnar::BufferPool pool(columnar::kUnboundedBudget);
  VpStore vp = VpStore::Build(graph, 3, pool);
  EXPECT_EQ(vp.num_predicates(), 4u);
  const auto* likes = vp.Find(IdOf(graph, "<likes>"));
  ASSERT_NE(likes, nullptr);
  EXPECT_EQ(likes->total_rows, 3u);
  EXPECT_EQ(likes->paged.size(), 3u);
  EXPECT_EQ(vp.Find(9999), nullptr);
  EXPECT_GT(vp.TotalBytesEstimate(), 0u);
}

TEST(VpStoreTest, ScanOpenPattern) {
  rdf::EncodedGraph graph = SmallGraph();
  columnar::BufferPool pool(columnar::kUnboundedBudget);
  VpStore vp = VpStore::Build(graph, 3, pool);
  cluster::CostModel cost((cluster::ClusterConfig()));
  cost.BeginStage("t");
  auto relation = vp.Scan(IdOf(graph, "<likes>"), PatternTerm::Var("s"),
                          PatternTerm::Var("o"), cost);
  cost.EndStage();
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(relation->column_names(),
            (std::vector<std::string>{"s", "o"}));
  EXPECT_EQ(relation->TotalRows(), 3u);
  EXPECT_EQ(relation->hash_partitioned_by(), 0);
  EXPECT_GT(cost.counters().bytes_scanned, 0u);
}

TEST(VpStoreTest, ScanConstants) {
  rdf::EncodedGraph graph = SmallGraph();
  columnar::BufferPool pool(columnar::kUnboundedBudget);
  VpStore vp = VpStore::Build(graph, 3, pool);
  cluster::CostModel cost((cluster::ClusterConfig()));
  cost.BeginStage("t");
  // Constant subject.
  auto by_subject =
      vp.Scan(IdOf(graph, "<likes>"), PatternTerm::Const(IdOf(graph, "<u1>")),
              PatternTerm::Var("o"), cost);
  ASSERT_TRUE(by_subject.ok());
  EXPECT_EQ(by_subject->TotalRows(), 2u);
  EXPECT_EQ(by_subject->num_columns(), 1u);
  // Constant object.
  auto by_object =
      vp.Scan(IdOf(graph, "<likes>"), PatternTerm::Var("s"),
              PatternTerm::Const(IdOf(graph, "<p1>")), cost);
  ASSERT_TRUE(by_object.ok());
  EXPECT_EQ(by_object->TotalRows(), 2u);
  // Impossible constant (id 0) matches nothing.
  auto impossible = vp.Scan(IdOf(graph, "<likes>"), PatternTerm::Var("s"),
                            PatternTerm::Const(rdf::kNullTermId), cost);
  ASSERT_TRUE(impossible.ok());
  EXPECT_EQ(impossible->TotalRows(), 0u);
  // Unknown predicate: empty but well-formed.
  auto unknown = vp.Scan(9999, PatternTerm::Var("s"), PatternTerm::Var("o"),
                         cost);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->TotalRows(), 0u);
  cost.EndStage();
}

TEST(VpStoreTest, ScanSameVariableTwice) {
  rdf::EncodedGraph graph;
  graph.Add({Term::Iri("a"), Term::Iri("p"), Term::Iri("a")});
  graph.Add({Term::Iri("a"), Term::Iri("p"), Term::Iri("b")});
  columnar::BufferPool pool(columnar::kUnboundedBudget);
  VpStore vp = VpStore::Build(graph, 2, pool);
  cluster::CostModel cost((cluster::ClusterConfig()));
  cost.BeginStage("t");
  auto relation = vp.Scan(IdOf(graph, "<p>"), PatternTerm::Var("x"),
                          PatternTerm::Var("x"), cost);
  cost.EndStage();
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(relation->num_columns(), 1u);
  EXPECT_EQ(relation->TotalRows(), 1u);  // only a-p-a
}

TEST(VpStoreTest, NoVariablesIsUnimplemented) {
  rdf::EncodedGraph graph = SmallGraph();
  columnar::BufferPool pool(columnar::kUnboundedBudget);
  VpStore vp = VpStore::Build(graph, 2, pool);
  cluster::CostModel cost((cluster::ClusterConfig()));
  auto result = vp.Scan(IdOf(graph, "<likes>"), PatternTerm::Const(1),
                        PatternTerm::Const(2), cost);
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

// -------------------------------------------------------- PropertyTable

TEST(PropertyTableTest, BuildShape) {
  rdf::EncodedGraph graph = SmallGraph();
  DatasetStatistics stats = DatasetStatistics::Compute(graph);
  columnar::BufferPool pool(columnar::kUnboundedBudget);
  PropertyTable pt = PropertyTable::Build(graph, stats, 3, pool);
  // Distinct subjects: u1, u2, u3, p1, p2.
  EXPECT_EQ(pt.num_rows(), 5u);
  // Columns: key + 4 predicates.
  EXPECT_EQ(pt.num_columns(), 5u);
  EXPECT_TRUE(pt.HasPredicate(IdOf(graph, "<likes>")));
  EXPECT_FALSE(pt.HasPredicate(9999));
  EXPECT_GT(pt.TotalBytesEstimate(), 0u);
}

TEST(PropertyTableTest, StarScanJoinsWithinRow) {
  rdf::EncodedGraph graph = SmallGraph();
  DatasetStatistics stats = DatasetStatistics::Compute(graph);
  columnar::BufferPool pool(columnar::kUnboundedBudget);
  PropertyTable pt = PropertyTable::Build(graph, stats, 3, pool);
  cluster::CostModel cost((cluster::ClusterConfig()));
  cost.BeginStage("t");
  // ?s likes ?o . ?s age ?a  -> only u1 (x2 products) and u2 (x1).
  std::vector<PropertyTable::ColumnPattern> patterns = {
      {IdOf(graph, "<likes>"), PatternTerm::Var("o")},
      {IdOf(graph, "<age>"), PatternTerm::Var("a")},
  };
  auto relation = pt.Scan(PatternTerm::Var("s"), patterns, cost);
  cost.EndStage();
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(relation->column_names(),
            (std::vector<std::string>{"s", "o", "a"}));
  EXPECT_EQ(relation->TotalRows(), 3u);
  EXPECT_EQ(relation->hash_partitioned_by(), 0);
}

TEST(PropertyTableTest, ListExplosionCrossProduct) {
  // Two multi-valued patterns on the same subject multiply out.
  rdf::EncodedGraph graph;
  auto add = [&](const char* s, const char* p, const char* o) {
    graph.Add({Term::Iri(s), Term::Iri(p), Term::Iri(o)});
  };
  add("s", "p", "a");
  add("s", "p", "b");
  add("s", "q", "x");
  add("s", "q", "y");
  add("s", "q", "z");
  add("t", "p", "a");  // makes p multi-valued overall but t lacks q
  DatasetStatistics stats = DatasetStatistics::Compute(graph);
  columnar::BufferPool pool(columnar::kUnboundedBudget);
  PropertyTable pt = PropertyTable::Build(graph, stats, 2, pool);
  cluster::CostModel cost((cluster::ClusterConfig()));
  cost.BeginStage("t");
  std::vector<PropertyTable::ColumnPattern> patterns = {
      {IdOf(graph, "<p>"), PatternTerm::Var("v")},
      {IdOf(graph, "<q>"), PatternTerm::Var("w")},
  };
  auto relation = pt.Scan(PatternTerm::Var("s"), patterns, cost);
  cost.EndStage();
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(relation->TotalRows(), 6u);  // 2 x 3 for s; t filtered out.
}

TEST(PropertyTableTest, ConstantsAndRepeatedVariables) {
  rdf::EncodedGraph graph = SmallGraph();
  DatasetStatistics stats = DatasetStatistics::Compute(graph);
  columnar::BufferPool pool(columnar::kUnboundedBudget);
  PropertyTable pt = PropertyTable::Build(graph, stats, 3, pool);
  cluster::CostModel cost((cluster::ClusterConfig()));
  cost.BeginStage("t");
  // Constant object: ?s likes p1 . ?s age ?a
  std::vector<PropertyTable::ColumnPattern> patterns = {
      {IdOf(graph, "<likes>"), PatternTerm::Const(IdOf(graph, "<p1>"))},
      {IdOf(graph, "<age>"), PatternTerm::Var("a")},
  };
  auto relation = pt.Scan(PatternTerm::Var("s"), patterns, cost);
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(relation->TotalRows(), 2u);  // u1 and u2
  EXPECT_EQ(relation->column_names(),
            (std::vector<std::string>{"s", "a"}));

  // Constant subject.
  std::vector<PropertyTable::ColumnPattern> by_subject = {
      {IdOf(graph, "<likes>"), PatternTerm::Var("o")},
  };
  auto u1 = pt.Scan(PatternTerm::Const(IdOf(graph, "<u1>")), by_subject,
                    cost);
  ASSERT_TRUE(u1.ok());
  EXPECT_EQ(u1->TotalRows(), 2u);
  EXPECT_EQ(u1->num_columns(), 1u);

  // Repeated variable across two patterns: ?s likes ?x . ?s name ?x never
  // matches (products vs literals).
  std::vector<PropertyTable::ColumnPattern> repeated = {
      {IdOf(graph, "<likes>"), PatternTerm::Var("x")},
      {IdOf(graph, "<name>"), PatternTerm::Var("x")},
  };
  auto none = pt.Scan(PatternTerm::Var("s"), repeated, cost);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->TotalRows(), 0u);
  cost.EndStage();
}

TEST(PropertyTableTest, AbsentPredicateYieldsEmpty) {
  rdf::EncodedGraph graph = SmallGraph();
  DatasetStatistics stats = DatasetStatistics::Compute(graph);
  columnar::BufferPool pool(columnar::kUnboundedBudget);
  PropertyTable pt = PropertyTable::Build(graph, stats, 3, pool);
  cluster::CostModel cost((cluster::ClusterConfig()));
  cost.BeginStage("t");
  std::vector<PropertyTable::ColumnPattern> patterns = {
      {IdOf(graph, "<likes>"), PatternTerm::Var("o")},
      {9999, PatternTerm::Var("z")},
  };
  auto relation = pt.Scan(PatternTerm::Var("s"), patterns, cost);
  cost.EndStage();
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(relation->TotalRows(), 0u);
  EXPECT_EQ(relation->num_columns(), 3u);
}

TEST(PropertyTableTest, ReverseTableGroupsByObject) {
  rdf::EncodedGraph graph = SmallGraph();
  DatasetStatistics stats = DatasetStatistics::Compute(graph);
  columnar::BufferPool pool(columnar::kUnboundedBudget);
  PropertyTable reverse = PropertyTable::Build(graph, stats, 3, pool,
                                               /*keyed_on_object=*/true);
  EXPECT_TRUE(reverse.keyed_on_object());
  cluster::CostModel cost((cluster::ClusterConfig()));
  cost.BeginStage("t");
  // ?a likes ?p . ?b likes ?p  (same-object group, value = subject).
  std::vector<PropertyTable::ColumnPattern> patterns = {
      {IdOf(graph, "<likes>"), PatternTerm::Var("a")},
      {IdOf(graph, "<likes>"), PatternTerm::Var("b")},
  };
  auto relation = reverse.Scan(PatternTerm::Var("p"), patterns, cost);
  cost.EndStage();
  ASSERT_TRUE(relation.ok());
  // p1 is liked by {u1,u2} -> 4 pairs; p2 by {u1} -> 1 pair.
  EXPECT_EQ(relation->TotalRows(), 5u);
}

// ------------------------------------------------------------ JoinTree

TranslatorOptions DefaultOptions() { return TranslatorOptions{}; }

Result<JoinTree> Plan(const rdf::EncodedGraph& graph, const char* text,
                      TranslatorOptions options = DefaultOptions()) {
  auto query = sparql::ParseQuery(text);
  if (!query.ok()) return query.status();
  DatasetStatistics stats = DatasetStatistics::Compute(graph);
  return Translate(*query, stats, graph.dictionary(), options);
}

TEST(TranslatorTest, GroupsSameSubjectIntoPtNode) {
  rdf::EncodedGraph graph = SmallGraph();
  auto tree = Plan(graph,
                   "SELECT * WHERE { ?s <likes> ?o . ?s <age> ?a . }");
  ASSERT_TRUE(tree.ok()) << tree.status();
  ASSERT_EQ(tree->nodes.size(), 1u);
  EXPECT_EQ(tree->nodes[0].kind, NodeKind::kPropertyTable);
  EXPECT_EQ(tree->nodes[0].patterns.size(), 2u);
  EXPECT_EQ(tree->TotalPatterns(), 2u);
}

TEST(TranslatorTest, SinglePatternsBecomeVpNodes) {
  rdf::EncodedGraph graph = SmallGraph();
  auto tree = Plan(graph,
                   "SELECT * WHERE { ?s <likes> ?p . ?p <label> ?l . }");
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->nodes.size(), 2u);
  for (const auto& node : tree->nodes) {
    EXPECT_EQ(node.kind, NodeKind::kVerticalPartitioning);
  }
}

TEST(TranslatorTest, PropertyTableDisabled) {
  rdf::EncodedGraph graph = SmallGraph();
  TranslatorOptions options;
  options.use_property_table = false;
  auto tree = Plan(graph,
                   "SELECT * WHERE { ?s <likes> ?o . ?s <age> ?a . }",
                   options);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->nodes.size(), 2u);
}

TEST(TranslatorTest, LiteralNodeGetsHighestPriority) {
  rdf::EncodedGraph graph = SmallGraph();
  // likes has 3 tuples; name with a constant object estimates below 1 and
  // must be planned first; the larger node becomes the root.
  auto tree = Plan(graph,
                   "SELECT * WHERE { ?s <likes> ?o . ?s <name> \"ann\" . }");
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->nodes.size(), 1u);  // Same subject: one PT node.
  auto vp_tree = [&] {
    TranslatorOptions options;
    options.use_property_table = false;
    return Plan(graph,
                "SELECT * WHERE { ?s <likes> ?o . ?s <name> \"ann\" . }",
                options);
  }();
  ASSERT_TRUE(vp_tree.ok());
  ASSERT_EQ(vp_tree->nodes.size(), 2u);
  EXPECT_TRUE(vp_tree->nodes[0].patterns[0].source.HasConstantObject());
  EXPECT_LT(vp_tree->nodes[0].estimated_cardinality,
            vp_tree->nodes[1].estimated_cardinality);
}

TEST(TranslatorTest, OrderKeepsTreeConnected) {
  rdf::EncodedGraph graph = SmallGraph();
  // Chain u -> p -> label; the middle node must never be joined last if
  // it is the only bridge.
  auto tree = Plan(
      graph,
      "SELECT * WHERE { ?u <age> ?a . ?u <likes> ?p . ?p <label> ?l . }");
  ASSERT_TRUE(tree.ok());
  std::set<std::string> bound;
  for (size_t i = 0; i < tree->nodes.size(); ++i) {
    if (i > 0) {
      bool shares = false;
      for (const std::string& v : tree->nodes[i].Variables()) {
        if (bound.count(v)) shares = true;
      }
      EXPECT_TRUE(shares) << "node " << i << " joins without a shared var";
    }
    for (const std::string& v : tree->nodes[i].Variables()) bound.insert(v);
  }
}

TEST(TranslatorTest, ReversePtGroupsLeftoverSameObjectPatterns) {
  rdf::EncodedGraph graph = SmallGraph();
  TranslatorOptions options;
  options.use_reverse_property_table = true;
  auto tree = Plan(graph,
                   "SELECT * WHERE { ?a <likes> ?p . ?b <likes> ?p . }",
                   options);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->nodes.size(), 1u);
  EXPECT_EQ(tree->nodes[0].kind, NodeKind::kReversePropertyTable);
}

TEST(TranslatorTest, PairwiseStatsSharpenPtEstimates) {
  rdf::EncodedGraph graph = SmallGraph();
  auto query = sparql::ParseQuery(
      "SELECT * WHERE { ?s <likes> ?o . ?s <name> ?n . }");
  ASSERT_TRUE(query.ok());
  DatasetStatistics basic = DatasetStatistics::Compute(graph);
  DatasetStatistics precise = DatasetStatistics::ComputeWithPairwise(graph);
  TranslatorOptions options;
  auto basic_tree = Translate(*query, basic, graph.dictionary(), options);
  auto precise_tree =
      Translate(*query, precise, graph.dictionary(), options);
  ASSERT_TRUE(basic_tree.ok());
  ASSERT_TRUE(precise_tree.ok());
  // Only u1 carries both predicates; the precise estimate must be
  // strictly tighter than the basic min-of-singles.
  EXPECT_LT(precise_tree->nodes[0].estimated_cardinality,
            basic_tree->nodes[0].estimated_cardinality);
  EXPECT_DOUBLE_EQ(precise_tree->nodes[0].estimated_cardinality, 1.0);
}

TEST(TranslatorTest, ReversePtGateSkipsSelectivelyBoundObjects) {
  rdf::EncodedGraph graph = SmallGraph();
  TranslatorOptions options;
  options.use_reverse_property_table = true;
  // ?p is selectively bound (?p label "x" has a constant object), so the
  // same-object group {likes(?a,?p), likes(?b,?p)} must NOT become a
  // reverse-PT node.
  auto gated = Plan(graph,
                    "SELECT * WHERE { ?a <likes> ?p . ?b <likes> ?p . "
                    "?p <label> \"x\" . }",
                    options);
  ASSERT_TRUE(gated.ok());
  for (const auto& node : gated->nodes) {
    EXPECT_NE(node.kind, NodeKind::kReversePropertyTable)
        << gated->ToString();
  }
  // Without the selective constraint, the group forms.
  auto grouped = Plan(graph,
                      "SELECT * WHERE { ?a <likes> ?p . ?b <likes> ?p . }",
                      options);
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->nodes.size(), 1u);
  EXPECT_EQ(grouped->nodes[0].kind, NodeKind::kReversePropertyTable);
}

TEST(TranslatorTest, FullyConstantPatternRejected) {
  rdf::EncodedGraph graph = SmallGraph();
  auto tree = Plan(graph, "SELECT * WHERE { <u1> <likes> <p1> . }");
  EXPECT_EQ(tree.status().code(), StatusCode::kUnimplemented);
}

TEST(JoinTreeTest, LabelsAndToString) {
  rdf::EncodedGraph graph = SmallGraph();
  auto tree = Plan(graph,
                   "SELECT * WHERE { ?s <likes> ?o . ?s <age> ?a . }");
  ASSERT_TRUE(tree.ok());
  EXPECT_NE(tree->nodes[0].Label().find("PT("), std::string::npos);
  EXPECT_NE(tree->ToString().find("root"), std::string::npos);
}

// ------------------------------------------------------------- Executor

TEST(ExecutorTest, EndToEndOnSmallGraph) {
  ProstDb::Options options;
  auto db = ProstDb::LoadFromGraph(SmallGraph(), options);
  ASSERT_TRUE(db.ok()) << db.status();

  auto result = (*db)->ExecuteSparql(
      "SELECT * WHERE { ?s <likes> ?p . ?p <label> ?l . }");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 3u);
  EXPECT_GT(result->simulated_millis, 0.0);

  auto decoded = (*db)->DecodeRows(result->relation);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  // Columns follow the sorted SELECT * projection: l, p, s.
  EXPECT_EQ(result->relation.column_names(),
            (std::vector<std::string>{"l", "p", "s"}));
}

TEST(ExecutorTest, DistinctAndLimit) {
  ProstDb::Options options;
  auto db = ProstDb::LoadFromGraph(SmallGraph(), options);
  ASSERT_TRUE(db.ok());
  // ?s likes ?p -> 3 rows; distinct subjects -> 2.
  auto distinct = (*db)->ExecuteSparql(
      "SELECT DISTINCT ?s WHERE { ?s <likes> ?p . }");
  ASSERT_TRUE(distinct.ok()) << distinct.status();
  EXPECT_EQ(distinct->num_rows(), 2u);
  auto limited = (*db)->ExecuteSparql(
      "SELECT ?s WHERE { ?s <likes> ?p . } LIMIT 1");
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->num_rows(), 1u);
}

TEST(ExecutorTest, UnknownConstantGivesEmptyResult) {
  ProstDb::Options options;
  auto db = ProstDb::LoadFromGraph(SmallGraph(), options);
  ASSERT_TRUE(db.ok());
  auto result = (*db)->ExecuteSparql(
      "SELECT * WHERE { ?s <likes> <no-such-product> . }");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST(ExecutorTest, EmptyTreeRejected) {
  ProstDb::Options options;
  auto db = ProstDb::LoadFromGraph(SmallGraph(), options);
  ASSERT_TRUE(db.ok());
  JoinTree empty;
  sparql::Query query;
  plan::PlannerInputs inputs;
  inputs.vp = &(*db)->vp_store();
  auto result = plan::BuildPlan(empty, query, inputs);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProstDbTest, LoadFromNTriplesAndReports) {
  ProstDb::Options options;
  auto db = ProstDb::LoadFromNTriples(
      "<u1> <p> <v1> .\n<u1> <p> <v1> .\n<u2> <p> <v2> .\n", options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->load_report().input_triples, 2u);  // Deduplicated.
  EXPECT_GT((*db)->load_report().simulated_load_millis, 0.0);
  EXPECT_GT((*db)->load_report().storage_bytes, 0u);
  EXPECT_FALSE(ProstDb::LoadFromNTriples("garbage", options).ok());
}

TEST(ProstDbTest, PersistWritesFiles) {
  ProstDb::Options options;
  options.use_reverse_property_table = true;
  auto db = ProstDb::LoadFromGraph(SmallGraph(), options);
  ASSERT_TRUE(db.ok());
  std::string dir = ::testing::TempDir() + "/prost_persist_test";
  auto bytes = (*db)->PersistTo(dir);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_GT(*bytes, 0u);
  (void)RemoveAllRecursively(dir);
}

TEST(ProstDbTest, VpOnlyMatchesMixedResults) {
  ProstDb::Options mixed_options;
  auto mixed = ProstDb::LoadFromGraph(SmallGraph(), mixed_options);
  ProstDb::Options vp_options;
  vp_options.use_property_table = false;
  auto vp = ProstDb::LoadFromGraph(SmallGraph(), vp_options);
  ASSERT_TRUE(mixed.ok());
  ASSERT_TRUE(vp.ok());
  const char* query =
      "SELECT * WHERE { ?s <likes> ?p . ?s <age> ?a . ?p <label> ?l . }";
  auto a = (*mixed)->ExecuteSparql(query);
  auto b = (*vp)->ExecuteSparql(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->relation.CollectSortedRows(),
            b->relation.CollectSortedRows());
  EXPECT_GT(a->num_rows(), 0u);
}

}  // namespace
}  // namespace prost::core
