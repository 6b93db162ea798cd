// Tests for the physical plan IR (src/plan/), the optimizer pass
// pipeline, and the on-vs-off differential guarantee: with every pass
// enabled, results are bit-identical to the seed execution path and the
// simulated time never gets worse — strictly better on a healthy slice
// of the WatDiv basic query set.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/plan_checker.h"
#include "common/io.h"
#include "core/prost_db.h"
#include "engine/relation.h"
#include "plan/passes.h"
#include "plan/plan_ir.h"
#include "plan/planner.h"
#include "random_workload.h"
#include "rdf/graph.h"
#include "reference_evaluator.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost {
namespace {

// ----------------------------------------------------------- Workload

/// One WatDiv dataset, the 20 basic queries, and five PRoST instances
/// over the same graph: optimizer passes on (the default), all off (the
/// seed execution path), everything on except cost-based join ordering
/// (the translator's heuristic order), plus the same on/heuristic pair
/// in pure vertical-partitioning mode. The VP pair is the join-order
/// differential baseline: without the Property Table every star opens
/// into individually reorderable scans, which is where ordering (and
/// exact star statistics) actually bite. Built once for the whole suite.
struct PlanWorkload {
  std::shared_ptr<const rdf::EncodedGraph> graph;
  std::vector<watdiv::WatDivQuery> queries;
  std::vector<sparql::Query> parsed;
  std::unique_ptr<core::ProstDb> on;
  std::unique_ptr<core::ProstDb> off;
  std::unique_ptr<core::ProstDb> heuristic;
  std::unique_ptr<core::ProstDb> vp_on;
  std::unique_ptr<core::ProstDb> vp_heuristic;
};

PlanWorkload BuildPlanWorkload() {
  PlanWorkload built;
  watdiv::WatDivConfig config;
  config.target_triples = 60000;
  watdiv::WatDivDataset dataset = watdiv::Generate(config);
  dataset.graph.SortAndDedupe();
  built.queries = watdiv::BasicQuerySet(dataset);
  built.graph =
      std::make_shared<const rdf::EncodedGraph>(std::move(dataset.graph));
  auto parsed = watdiv::ParseQuerySet(built.queries);
  if (!parsed.ok()) {
    ADD_FAILURE() << "query set: " << parsed.status();
    std::exit(1);
  }
  built.parsed = std::move(parsed).value();

  core::ProstDb::Options options;
  options.cluster.ScaleToDataset(built.graph->size());
  auto on = core::ProstDb::LoadFromSharedGraph(built.graph, options);
  core::ProstDb::Options off_options = options;
  off_options.passes.filter_pushdown = false;
  off_options.passes.join_order = false;
  off_options.passes.resolve_join_strategy = false;
  off_options.passes.early_projection = false;
  auto off = core::ProstDb::LoadFromSharedGraph(built.graph, off_options);
  core::ProstDb::Options heuristic_options = options;
  heuristic_options.passes.join_order = false;
  auto heuristic =
      core::ProstDb::LoadFromSharedGraph(built.graph, heuristic_options);
  core::ProstDb::Options vp_options = options;
  vp_options.use_property_table = false;
  auto vp_on = core::ProstDb::LoadFromSharedGraph(built.graph, vp_options);
  core::ProstDb::Options vp_heuristic_options = vp_options;
  vp_heuristic_options.passes.join_order = false;
  auto vp_heuristic =
      core::ProstDb::LoadFromSharedGraph(built.graph, vp_heuristic_options);
  if (!on.ok() || !off.ok() || !heuristic.ok() || !vp_on.ok() ||
      !vp_heuristic.ok()) {
    ADD_FAILURE() << "load: "
                  << (!on.ok() ? on.status()
                               : (!off.ok() ? off.status()
                                            : heuristic.status()));
    std::exit(1);
  }
  built.on = std::move(on).value();
  built.off = std::move(off).value();
  built.heuristic = std::move(heuristic).value();
  built.vp_on = std::move(vp_on).value();
  built.vp_heuristic = std::move(vp_heuristic).value();
  return built;
}

const PlanWorkload& Workload() {
  static PlanWorkload workload = BuildPlanWorkload();
  return workload;
}

/// A tiny hand-authored database for the crafted pushdown queries.
std::unique_ptr<core::ProstDb> TinyDb() {
  std::string triples;
  for (int i = 0; i < 8; ++i) {
    std::string person = "<http://ex/person" + std::to_string(i) + ">";
    std::string city = "<http://ex/city" + std::to_string(i % 3) + ">";
    triples += person + " <http://ex/livesIn> " + city + " .\n";
    triples += city + " <http://ex/population> \"" +
               std::to_string(100 * (i % 3 + 1)) +
               "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
  }
  core::ProstDb::Options options;
  auto db = core::ProstDb::LoadFromNTriples(triples, options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

// -------------------------------------------------------- Plan shapes

const plan::ScanNodeBase* AsScan(const plan::PlanNode& node) {
  if (node.kind != plan::PlanNodeKind::kVpScan &&
      node.kind != plan::PlanNodeKind::kPtScan) {
    return nullptr;
  }
  return static_cast<const plan::ScanNodeBase*>(&node);
}

void CollectScans(const plan::PlanNode& node,
                  std::vector<const plan::ScanNodeBase*>& scans) {
  if (const plan::ScanNodeBase* scan = AsScan(node)) {
    scans.push_back(scan);
    return;
  }
  for (const auto& child : node.children) CollectScans(*child, scans);
}

/// Joins in execution (post-left-right) order — the order the
/// interpreter reports QueryResult::join_strategies in.
void CollectJoins(const plan::PlanNode& node,
                  std::vector<const plan::HashJoinNode*>& joins) {
  for (const auto& child : node.children) CollectJoins(*child, joins);
  if (node.kind == plan::PlanNodeKind::kHashJoin) {
    joins.push_back(static_cast<const plan::HashJoinNode*>(&node));
  }
}

/// FilterNodes of the unary tail above the top join, root-first.
std::vector<const plan::FilterNode*> TailFilters(const plan::PlanNode& root) {
  std::vector<const plan::FilterNode*> filters;
  const plan::PlanNode* node = &root;
  while (node->children.size() == 1) {
    if (node->kind == plan::PlanNodeKind::kFilter) {
      filters.push_back(static_cast<const plan::FilterNode*>(node));
    }
    node = node->children[0].get();
  }
  return filters;
}

/// All rows of a relation, columns permuted into `column_order`, sorted.
/// Join reordering permutes both row order and chunk boundaries, so the
/// differential suite compares results as sorted row multisets keyed by
/// column name.
std::vector<engine::Row> SortedRows(
    const engine::Relation& relation,
    const std::vector<std::string>& column_order) {
  std::vector<size_t> permutation;
  permutation.reserve(column_order.size());
  for (const std::string& name : column_order) {
    for (size_t c = 0; c < relation.column_names().size(); ++c) {
      if (relation.column_names()[c] == name) {
        permutation.push_back(c);
        break;
      }
    }
  }
  EXPECT_EQ(permutation.size(), column_order.size());
  std::vector<engine::Row> rows;
  for (const engine::RelationChunk& chunk : relation.chunks()) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      engine::Row row;
      row.reserve(permutation.size());
      for (size_t c : permutation) row.push_back(chunk.columns[c][r]);
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ------------------------------------------------- Pass pipeline shape

TEST(PassPipelineTest, SnapshotsChainOnePerPass) {
  const PlanWorkload& workload = Workload();
  for (size_t i = 0; i < workload.parsed.size(); ++i) {
    SCOPED_TRACE(workload.queries[i].id);
    auto planned = workload.on->PlanPhysical(workload.parsed[i]);
    ASSERT_TRUE(planned.ok()) << planned.status();
    ASSERT_EQ(planned->snapshots.size(), 4u);
    EXPECT_EQ(planned->snapshots[0].pass, "filter_pushdown");
    EXPECT_EQ(planned->snapshots[1].pass, "join_order");
    EXPECT_EQ(planned->snapshots[2].pass, "join_strategy");
    EXPECT_EQ(planned->snapshots[3].pass, "early_projection");
    // Snapshots chain: each pass starts from the previous one's output,
    // and the last "after" is the plan Execute() runs.
    EXPECT_EQ(planned->snapshots[0].after, planned->snapshots[1].before);
    EXPECT_EQ(planned->snapshots[1].after, planned->snapshots[2].before);
    EXPECT_EQ(planned->snapshots[2].after, planned->snapshots[3].before);
    EXPECT_EQ(planned->snapshots[3].after, planned->plan.ToString());

    // The first "before" is the unoptimized plan straight out of the
    // planner lowering.
    auto tree = workload.on->Plan(workload.parsed[i]);
    ASSERT_TRUE(tree.ok()) << tree.status();
    plan::PlannerInputs inputs;
    inputs.vp = &workload.on->vp_store();
    inputs.property_table = workload.on->property_table();
    auto unoptimized = plan::BuildPlan(*tree, workload.parsed[i], inputs);
    ASSERT_TRUE(unoptimized.ok()) << unoptimized.status();
    EXPECT_EQ(planned->snapshots[0].before, unoptimized->ToString());
  }
}

TEST(PassPipelineTest, AllPassesOffPlansTheUnoptimizedTree) {
  const PlanWorkload& workload = Workload();
  for (size_t i = 0; i < workload.parsed.size(); ++i) {
    SCOPED_TRACE(workload.queries[i].id);
    auto planned = workload.off->PlanPhysical(workload.parsed[i]);
    ASSERT_TRUE(planned.ok()) << planned.status();
    EXPECT_TRUE(planned->snapshots.empty());
    std::vector<const plan::HashJoinNode*> joins;
    CollectJoins(*planned->plan.root, joins);
    for (const plan::HashJoinNode* join : joins) {
      EXPECT_FALSE(join->decision.has_value());
    }
    std::vector<const plan::ScanNodeBase*> scans;
    CollectScans(*planned->plan.root, scans);
    for (const plan::ScanNodeBase* scan : scans) {
      EXPECT_TRUE(scan->pushed_filters.empty());
    }
  }
}

TEST(PassPipelineTest, InvariantsHoldBeforeAndAfterEveryPass) {
  const PlanWorkload& workload = Workload();
  for (size_t i = 0; i < workload.parsed.size(); ++i) {
    SCOPED_TRACE(workload.queries[i].id);
    const sparql::Query& query = workload.parsed[i];
    auto tree = workload.on->Plan(query);
    ASSERT_TRUE(tree.ok()) << tree.status();
    plan::PlannerInputs inputs;
    inputs.vp = &workload.on->vp_store();
    inputs.property_table = workload.on->property_table();
    auto physical = plan::BuildPlan(*tree, query, inputs);
    ASSERT_TRUE(physical.ok()) << physical.status();

    int validations = 0;
    plan::PassManagerOptions manager_options;
    manager_options.validate = [&](const plan::PhysicalPlan& p) {
      ++validations;
      return analysis::CheckPhysicalPlan(p, query);
    };
    plan::PassManager manager(std::move(manager_options));
    plan::AddDefaultPasses(manager, plan::PassOptions{});
    plan::PassContext context;
    context.join = workload.on->options().join;
    context.cluster = &workload.on->options().cluster;
    context.estimator = &workload.on->estimator();
    Status run = manager.Run(*physical, context);
    EXPECT_TRUE(run.ok()) << run;
    // Once before the first pass, once after each of the four.
    EXPECT_EQ(validations, 5);
  }
}

// ----------------------------------------------------- Golden plans

std::unique_ptr<core::ProstDb> RingDb(bool join_order);

/// Appends one "== <header>" section holding `query`'s text and its
/// optimized plan on `db` (or the planning error).
void AppendGoldenPlan(const std::string& header, const core::ProstDb& db,
                      const sparql::Query& query, std::string& out) {
  out.append("== ").append(header).append("\n");
  out.append("query: ").append(query.ToString()).append("\n");
  auto planned = db.PlanPhysical(query);
  if (planned.ok()) {
    out += planned->plan.ToString();
  } else {
    out.append("error: ").append(planned.status().ToString()).append("\n");
  }
}

/// Plans the join-order pass reaches outside the WatDiv set: the 12-leaf
/// ring query (greedy enumeration), seeded random BGPs of 2-10 patterns
/// (DPsize over varied shapes, constants and tail filters), and
/// hand-written modifier tails (the columns the tail keeps live at the
/// top of the joins), each on a VP-only and a mixed store.
void RenderExtraGoldenPlans(std::string& out) {
  auto ring = sparql::ParseQuery(
      "SELECT * WHERE { "
      "?a <http://ex/knows> ?b . ?b <http://ex/knows> ?c . "
      "?c <http://ex/knows> ?d . ?d <http://ex/knows> ?e . "
      "?a <http://ex/likes> ?i . ?b <http://ex/likes> ?j . "
      "?c <http://ex/likes> ?k . ?d <http://ex/likes> ?l . "
      "?e <http://ex/likes> ?m . ?i <http://ex/type> ?t . "
      "?j <http://ex/type> ?t . ?a <http://ex/name> ?n . }");
  EXPECT_TRUE(ring.ok()) << ring.status();
  if (ring.ok()) {
    AppendGoldenPlan("ring greedy", *RingDb(/*join_order=*/true), *ring, out);
  }

  constexpr size_t kPredicates = 6;
  Rng rng(20261019);
  auto graph = std::make_shared<const rdf::EncodedGraph>(
      testing::RandomGraph(rng, /*triples=*/600, /*entities=*/40,
                           kPredicates));
  core::ProstDb::Options mixed_options;
  mixed_options.cluster.ScaleToDataset(graph->size());
  core::ProstDb::Options vp_options = mixed_options;
  vp_options.use_property_table = false;
  auto mixed = core::ProstDb::LoadFromSharedGraph(graph, mixed_options);
  auto vp = core::ProstDb::LoadFromSharedGraph(graph, vp_options);
  EXPECT_TRUE(mixed.ok() && vp.ok());
  if (!mixed.ok() || !vp.ok()) return;
  const std::pair<const char*, const core::ProstDb*> stores[] = {
      {"vp-only", vp->get()},
      {"mixed", mixed->get()},
  };
  for (size_t i = 0; i < 50; ++i) {
    const size_t patterns = 2 + rng.NextBounded(9);
    sparql::Query query =
        testing::RandomQuery(rng, *graph, patterns, kPredicates);
    ASSERT_TRUE(sparql::ValidateQuery(query).ok()) << query.ToString();
    for (const auto& [name, db] : stores) {
      AppendGoldenPlan(StrFormat("random %s %02zu", name, i), *db, query,
                       out);
    }
  }

  const std::pair<const char*, const char*> tails[] = {
      {"order-by-unprojected",
       "SELECT ?a WHERE { ?a <http://p/0> ?b . ?b <http://p/1> ?c . "
       "?a <http://p/2> ?d . } ORDER BY DESC(?d) LIMIT 5"},
      {"count-variable",
       "SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?a <http://p/0> ?b . "
       "?b <http://p/1> ?c . ?c <http://p/3> ?e . }"},
      {"count-star-filter",
       "SELECT (COUNT(*) AS ?n) WHERE { ?a <http://p/0> ?b . "
       "?b <http://p/1> ?c . ?a <http://p/2> ?d . "
       "FILTER(?b != ?d) FILTER(?c != <http://e/3>) }"},
      {"distinct",
       "SELECT DISTINCT ?b ?c WHERE { ?a <http://p/0> ?b . "
       "?b <http://p/1> ?c . ?c <http://p/4> ?e . ?a <http://p/5> ?f . }"},
  };
  for (const auto& [tail, text] : tails) {
    auto query = sparql::ParseQuery(text);
    EXPECT_TRUE(query.ok()) << tail << ": " << query.status();
    if (!query.ok()) continue;
    for (const auto& [name, db] : stores) {
      AppendGoldenPlan(StrFormat("tail %s %s", name, tail), *db, *query, out);
    }
  }
}

/// The optimized plan of every WatDiv query under three configurations
/// (VP-only, mixed VP+PT, VP-only in the translator's heuristic order),
/// each as a "== <config> <query id>" header followed by
/// PlanPhysical(q).plan.ToString(), then the RenderExtraGoldenPlans
/// sections. Any change to translation, lowering or a pass that alters a
/// plan — shape, join strategy, pushed filter, prune or estimate — shows
/// up as a reviewed diff of the golden file.
std::string RenderGoldenPlans(const PlanWorkload& workload) {
  const std::pair<const char*, const core::ProstDb*> configs[] = {
      {"vp-only", workload.vp_on.get()},
      {"mixed", workload.on.get()},
      {"vp-only-heuristic-order", workload.vp_heuristic.get()},
  };
  std::string out =
      "# Optimized physical plans of the 20 WatDiv basic queries over the\n"
      "# 60k-triple plan_test workload (tests/plan_test.cpp, GoldenPlanTest),\n"
      "# then the ring, random and tail sections (RenderExtraGoldenPlans).\n"
      "# On a mismatch the test writes the actual plans next to its binary\n"
      "# as golden_plans.actual.txt; review the diff, then copy it here.\n";
  for (const auto& [name, db] : configs) {
    for (size_t i = 0; i < workload.parsed.size(); ++i) {
      out += "== " + std::string(name) + " " + workload.queries[i].id + "\n";
      auto planned = db->PlanPhysical(workload.parsed[i]);
      out += planned.ok() ? planned->plan.ToString()
                          : "error: " + planned.status().ToString() + "\n";
    }
  }
  RenderExtraGoldenPlans(out);
  return out;
}

/// Splits rendered plans into their "== ..." sections (header → plan
/// text); lines before the first header are comments.
std::map<std::string, std::string> GoldenSections(const std::string& text) {
  std::map<std::string, std::string> sections;
  std::string* body = nullptr;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.rfind("== ", 0) == 0) {
      body = &sections[line];
    } else if (body != nullptr) {
      *body += line + "\n";
    }
  }
  return sections;
}

TEST(GoldenPlanTest, OptimizedWatDivPlansMatchTheGoldenFile) {
  const std::string actual = RenderGoldenPlans(Workload());
  std::string expected;
  Status read = ReadFileToString(PROST_GOLDEN_PLANS, &expected);
  const std::map<std::string, std::string> want = GoldenSections(expected);
  const std::map<std::string, std::string> got = GoldenSections(actual);
  if (read.ok() && want == got) return;

  std::string diff;
  std::set<std::string> headers;
  for (const auto& [header, plan] : want) headers.insert(header);
  for (const auto& [header, plan] : got) headers.insert(header);
  for (const std::string& header : headers) {
    const auto w = want.find(header);
    const auto g = got.find(header);
    if (w != want.end() && g != got.end() && w->second == g->second) {
      continue;
    }
    diff += "--- expected " + header + "\n" +
            (w == want.end() ? "(missing)\n" : w->second);
    diff += "+++ actual " + header + "\n" +
            (g == got.end() ? "(missing)\n" : g->second);
  }
  Status written = WriteStringToFile(PROST_GOLDEN_PLANS_ACTUAL, actual);
  ADD_FAILURE() << "optimized plans differ from " << PROST_GOLDEN_PLANS
                << (read.ok() ? "" : " (unreadable: " + read.ToString() + ")")
                << "\n"
                << diff << "actual plans "
                << (written.ok() ? "written to " : "NOT written to ")
                << PROST_GOLDEN_PLANS_ACTUAL;
}

// ------------------------------------------------- Early projection

/// Independent liveness walker: recomputes, top-down, the set of columns
/// each node's output must still supply, and checks that every
/// optimizer-inserted prune keeps exactly the live columns (in child
/// column order) and that no dead column survives where no prune was
/// inserted. Returns the number of inserted prunes seen.
int CheckLiveness(const plan::PlanNode& node, std::set<std::string> live) {
  switch (node.kind) {
    case plan::PlanNodeKind::kVpScan:
    case plan::PlanNodeKind::kPtScan:
      return 0;
    case plan::PlanNodeKind::kHashJoin: {
      // Join keys are the columns the children share; they must survive
      // below the join regardless of what downstream reads.
      std::set<std::string> left(node.children[0]->output_columns.begin(),
                                 node.children[0]->output_columns.end());
      std::set<std::string> shared;
      for (const std::string& name : node.children[1]->output_columns) {
        if (left.count(name) > 0) shared.insert(name);
      }
      EXPECT_FALSE(shared.empty());
      int prunes = 0;
      for (const auto& child : node.children) {
        std::set<std::string> child_live;
        for (const std::string& name : child->output_columns) {
          if (live.count(name) > 0 || shared.count(name) > 0) {
            child_live.insert(name);
          }
        }
        if (child->kind == plan::PlanNodeKind::kProject &&
            static_cast<const plan::ProjectNode&>(*child)
                .optimizer_inserted) {
          const auto& prune = static_cast<const plan::ProjectNode&>(*child);
          const plan::PlanNode& input = *prune.children[0];
          // Exactness: the prune keeps precisely the live subset of its
          // input, in input column order, and is never a no-op.
          std::vector<std::string> expected;
          for (const std::string& name : input.output_columns) {
            if (child_live.count(name) > 0) expected.push_back(name);
          }
          EXPECT_EQ(prune.columns, expected);
          EXPECT_LT(prune.columns.size(), input.output_columns.size());
          prunes += 1 + CheckLiveness(
                            input, {prune.columns.begin(),
                                    prune.columns.end()});
        } else {
          // No prune inserted: every column the child produces must be
          // live, or the pass missed a dead column.
          EXPECT_EQ(child_live.size(), child->output_columns.size())
              << "dead column survives under join " << node.Label();
          prunes += CheckLiveness(*child, std::move(child_live));
        }
      }
      return prunes;
    }
    case plan::PlanNodeKind::kFilter: {
      const auto& filter = static_cast<const plan::FilterNode&>(node);
      live.insert(filter.constraint.variable);
      if (filter.constraint.rhs_is_variable) {
        live.insert(filter.constraint.rhs_variable);
      }
      break;
    }
    case plan::PlanNodeKind::kProject: {
      const auto& project = static_cast<const plan::ProjectNode&>(node);
      live = {project.columns.begin(), project.columns.end()};
      break;
    }
    case plan::PlanNodeKind::kOrderBy: {
      const auto& order = static_cast<const plan::OrderByNode&>(node);
      for (const sparql::OrderKey& key : order.keys) live.insert(key.variable);
      break;
    }
    case plan::PlanNodeKind::kAggregate: {
      const auto& aggregate = static_cast<const plan::AggregateNode&>(node);
      if (aggregate.count.variable.empty()) {
        live = {node.children[0]->output_columns.begin(),
                node.children[0]->output_columns.end()};
      } else {
        live = {aggregate.count.variable};
      }
      break;
    }
    case plan::PlanNodeKind::kDistinct:
      live = {node.children[0]->output_columns.begin(),
              node.children[0]->output_columns.end()};
      break;
    case plan::PlanNodeKind::kLimit:
      break;
  }
  return CheckLiveness(*node.children[0], std::move(live));
}

TEST(EarlyProjectionTest, DropsExactlyDeadColumnsOnEveryWatDivQuery) {
  const PlanWorkload& workload = Workload();
  int total_prunes = 0;
  for (size_t i = 0; i < workload.parsed.size(); ++i) {
    SCOPED_TRACE(workload.queries[i].id);
    auto planned = workload.on->PlanPhysical(workload.parsed[i]);
    ASSERT_TRUE(planned.ok()) << planned.status();
    const plan::PlanNode& root = *planned->plan.root;
    total_prunes += CheckLiveness(
        root, {root.output_columns.begin(), root.output_columns.end()});
  }
  // The walker must not be vacuous: the WatDiv set carries dead columns
  // on several queries (that is the point of the pass).
  EXPECT_GT(total_prunes, 0);
}

// ------------------------------------------------- Filter pushdown

TEST(FilterPushdownTest, ConstantsReachScansVariablePairsStayAboveJoin) {
  std::unique_ptr<core::ProstDb> db = TinyDb();
  auto query = sparql::ParseQuery(
      "SELECT ?a ?b ?c WHERE { ?a <http://ex/livesIn> ?b . "
      "?b <http://ex/population> ?c . "
      "FILTER(?c > 150) FILTER(?a != ?b) "
      "FILTER(?b != <http://ex/city7>) }");
  ASSERT_TRUE(query.ok()) << query.status();
  auto planned = db->PlanPhysical(*query);
  ASSERT_TRUE(planned.ok()) << planned.status();

  // The variable-vs-variable filter cannot be pushed: it stays in the
  // tail, above the join.
  std::vector<const plan::FilterNode*> tail =
      TailFilters(*planned->plan.root);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0]->constraint.variable, "a");
  EXPECT_TRUE(tail[0]->constraint.rhs_is_variable);

  // Both constant filters left the tail: ?c > 150 into the one scan that
  // binds ?c, ?b != <city7> into every scan that binds ?b (both).
  std::vector<const plan::ScanNodeBase*> scans;
  CollectScans(*planned->plan.root, scans);
  ASSERT_EQ(scans.size(), 2u);
  int saw_c = 0;
  int saw_b = 0;
  for (const plan::ScanNodeBase* scan : scans) {
    bool binds_c = false;
    for (const std::string& name : plan::PlanBuilder::ScanOutputColumns(
             scan->source)) {
      if (name == "c") binds_c = true;
    }
    for (const sparql::FilterConstraint& pushed : scan->pushed_filters) {
      EXPECT_FALSE(pushed.rhs_is_variable);
      if (pushed.variable == "c") {
        ++saw_c;
        EXPECT_TRUE(binds_c);
      } else {
        EXPECT_EQ(pushed.variable, "b");
        ++saw_b;
      }
    }
  }
  EXPECT_EQ(saw_c, 1);
  EXPECT_EQ(saw_b, 2);

  // And pushing never changes the answer.
  core::ProstDb::Options off_options;
  off_options.passes.filter_pushdown = false;
  off_options.passes.resolve_join_strategy = false;
  off_options.passes.early_projection = false;
  std::string triples;
  for (int i = 0; i < 8; ++i) {
    std::string person = "<http://ex/person" + std::to_string(i) + ">";
    std::string city = "<http://ex/city" + std::to_string(i % 3) + ">";
    triples += person + " <http://ex/livesIn> " + city + " .\n";
    triples += city + " <http://ex/population> \"" +
               std::to_string(100 * (i % 3 + 1)) +
               "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
  }
  auto off = core::ProstDb::LoadFromNTriples(triples, off_options);
  ASSERT_TRUE(off.ok()) << off.status();
  auto on_result = db->Execute(*query);
  auto off_result = (*off)->Execute(*query);
  ASSERT_TRUE(on_result.ok()) << on_result.status();
  ASSERT_TRUE(off_result.ok()) << off_result.status();
  EXPECT_EQ(on_result->relation.column_names(),
            off_result->relation.column_names());
  ASSERT_EQ(on_result->relation.num_chunks(),
            off_result->relation.num_chunks());
  for (uint32_t c = 0; c < on_result->relation.num_chunks(); ++c) {
    EXPECT_EQ(on_result->relation.chunks()[c].columns,
              off_result->relation.chunks()[c].columns);
  }
  EXPECT_GT(on_result->num_rows(), 0u);
}

TEST(FilterPushdownTest, WatDivFiltersAreNeverLost) {
  // Every query filter must survive somewhere: pushed into a scan or
  // kept in the tail, never both, never dropped.
  const PlanWorkload& workload = Workload();
  for (size_t i = 0; i < workload.parsed.size(); ++i) {
    SCOPED_TRACE(workload.queries[i].id);
    auto planned = workload.on->PlanPhysical(workload.parsed[i]);
    ASSERT_TRUE(planned.ok()) << planned.status();
    size_t in_tail = TailFilters(*planned->plan.root).size();
    std::vector<const plan::ScanNodeBase*> scans;
    CollectScans(*planned->plan.root, scans);
    std::set<std::string> pushed_vars;
    for (const plan::ScanNodeBase* scan : scans) {
      for (const sparql::FilterConstraint& pushed : scan->pushed_filters) {
        pushed_vars.insert(pushed.variable);
      }
    }
    size_t pushed_away = 0;
    for (const sparql::FilterConstraint& filter :
         workload.parsed[i].filters) {
      if (!filter.rhs_is_variable && pushed_vars.count(filter.variable)) {
        ++pushed_away;
      }
    }
    EXPECT_EQ(in_tail + pushed_away, workload.parsed[i].filters.size());
  }
}

// ------------------------------------------------- Strategy resolution

TEST(JoinStrategyTest, PlannedStrategyMatchesExecutedOnEveryQuery) {
  const PlanWorkload& workload = Workload();
  for (size_t i = 0; i < workload.parsed.size(); ++i) {
    SCOPED_TRACE(workload.queries[i].id);
    auto planned = workload.on->PlanPhysical(workload.parsed[i]);
    ASSERT_TRUE(planned.ok()) << planned.status();
    std::vector<const plan::HashJoinNode*> joins;
    CollectJoins(*planned->plan.root, joins);
    std::vector<engine::JoinStrategy> resolved;
    for (const plan::HashJoinNode* join : joins) {
      ASSERT_TRUE(join->decision.has_value()) << join->Label();
      resolved.push_back(join->decision->strategy);
    }
    auto result = workload.on->Execute(workload.parsed[i]);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->join_strategies, resolved);
  }
}

/// The join decision is a plan-only fact: with the join_strategy pass
/// off, the executor resolves the same rule over the same planner sizes,
/// so execution is bit-identical to running the pass.
TEST(JoinStrategyTest, ExecutorResolvesUnresolvedPlansIdentically) {
  const PlanWorkload& workload = Workload();
  size_t broadcasts = 0;
  for (const core::ProstDb* resolving :
       {workload.on.get(), workload.vp_on.get()}) {
    core::ProstDb::Options options = resolving->options();
    options.passes.resolve_join_strategy = false;
    auto unresolved =
        core::ProstDb::LoadFromSharedGraph(workload.graph, options);
    ASSERT_TRUE(unresolved.ok()) << unresolved.status();
    for (size_t i = 0; i < workload.parsed.size(); ++i) {
      SCOPED_TRACE(workload.queries[i].id +
                   (options.use_property_table ? " mixed" : " vp-only"));
      auto planned = resolving->Execute(workload.parsed[i]);
      auto executed = (*unresolved)->Execute(workload.parsed[i]);
      ASSERT_TRUE(planned.ok()) << planned.status();
      ASSERT_TRUE(executed.ok()) << executed.status();
      EXPECT_EQ(executed->join_strategies, planned->join_strategies);
      EXPECT_EQ(executed->simulated_millis, planned->simulated_millis);
      EXPECT_EQ(executed->relation.column_names(),
                planned->relation.column_names());
      ASSERT_EQ(executed->relation.num_chunks(),
                planned->relation.num_chunks());
      for (uint32_t w = 0; w < planned->relation.num_chunks(); ++w) {
        EXPECT_EQ(executed->relation.chunks()[w].columns,
                  planned->relation.chunks()[w].columns)
            << "chunk " << w;
      }
      broadcasts += static_cast<size_t>(
          std::count(planned->join_strategies.begin(),
                     planned->join_strategies.end(),
                     engine::JoinStrategy::kBroadcast));
    }
  }
  // Some joins broadcast, so the shipped side was compared too.
  EXPECT_GT(broadcasts, 0u);
}

// ------------------------------------------------- Differential suite

TEST(PlanDifferentialTest, PassesOnIsBitIdenticalAndNeverSlower) {
  const PlanWorkload& workload = Workload();
  int strictly_faster = 0;
  std::string winners;
  for (size_t i = 0; i < workload.parsed.size(); ++i) {
    SCOPED_TRACE(workload.queries[i].id);
    auto on = workload.on->Execute(workload.parsed[i]);
    auto off = workload.off->Execute(workload.parsed[i]);
    ASSERT_TRUE(on.ok()) << on.status();
    ASSERT_TRUE(off.ok()) << off.status();

    // Identical answers: same columns, same TermId rows. Join reordering
    // may permute row order and chunk boundaries, so rows are compared
    // as a sorted multiset in the off plan's column order.
    std::vector<std::string> on_names = on->relation.column_names();
    std::vector<std::string> off_names = off->relation.column_names();
    std::sort(on_names.begin(), on_names.end());
    std::sort(off_names.begin(), off_names.end());
    EXPECT_EQ(on_names, off_names);
    EXPECT_EQ(SortedRows(on->relation, off->relation.column_names()),
              SortedRows(off->relation, off->relation.column_names()));

    // The optimizer never loses simulated time.
    EXPECT_LE(on->simulated_millis, off->simulated_millis + 1e-9);
    if (on->simulated_millis < off->simulated_millis - 1e-9) {
      ++strictly_faster;
      winners += workload.queries[i].id + " ";
    }
  }
  // Early projection + pushdown + join ordering must pay off outright on
  // a healthy slice of the query set (C1/C2/F2/F4/L1 carry dead columns
  // through their join chains at this scale).
  EXPECT_GE(strictly_faster, 5) << "strict wins: " << winners;
}

TEST(PlanDifferentialTest, JoinOrderBeatsHeuristicAndNeverLoses) {
  // Cost-based join ordering against the translator's §3.3 heuristic
  // order, with every other pass identical on both sides: answers are
  // the same row multiset on all 20 queries, the simulated time never
  // regresses (the pass keeps the heuristic tree unless its model
  // predicts a strictly cheaper one, and only when the margin clears
  // estimate noise), and the complex snowflake queries — where the
  // heuristic's star-size priority is blind to join selectivity — must
  // win outright. Runs in pure VP mode: the Property Table collapses
  // stars into single scans, which hides exactly the ordering decisions
  // this differential exists to exercise.
  const PlanWorkload& workload = Workload();
  std::string winners;
  std::set<std::string> strict_wins;
  for (size_t i = 0; i < workload.parsed.size(); ++i) {
    SCOPED_TRACE(workload.queries[i].id);
    auto on = workload.vp_on->Execute(workload.parsed[i]);
    auto heuristic = workload.vp_heuristic->Execute(workload.parsed[i]);
    ASSERT_TRUE(on.ok()) << on.status();
    ASSERT_TRUE(heuristic.ok()) << heuristic.status();

    std::vector<std::string> on_names = on->relation.column_names();
    std::vector<std::string> heuristic_names =
        heuristic->relation.column_names();
    std::sort(on_names.begin(), on_names.end());
    std::sort(heuristic_names.begin(), heuristic_names.end());
    EXPECT_EQ(on_names, heuristic_names);
    EXPECT_EQ(
        SortedRows(on->relation, heuristic->relation.column_names()),
        SortedRows(heuristic->relation, heuristic->relation.column_names()));

    EXPECT_LE(on->simulated_millis, heuristic->simulated_millis + 1e-9)
        << "cost-based order lost to the heuristic";
    if (on->simulated_millis < heuristic->simulated_millis - 1e-9) {
      strict_wins.insert(workload.queries[i].id);
      winners += workload.queries[i].id + " ";
    }
  }
  for (const char* id : {"C1", "C2", "C3"}) {
    EXPECT_EQ(strict_wins.count(id), 1u)
        << id << " should improve under cost-based ordering; wins: "
        << winners;
  }
}

// ------------------------------------------------- Builder error paths

TEST(PlanBuilderTest, EmptyTreeAndCrossProductAreRejected) {
  std::unique_ptr<core::ProstDb> db = TinyDb();
  core::JoinTree empty;
  auto query = sparql::ParseQuery(
      "SELECT * WHERE { ?a <http://ex/livesIn> ?b . }");
  ASSERT_TRUE(query.ok()) << query.status();
  plan::PlannerInputs inputs;
  inputs.vp = &db->vp_store();
  inputs.property_table = db->property_table();
  auto built = plan::BuildPlan(empty, *query, inputs);
  EXPECT_FALSE(built.ok());

  // Two scans with no shared variable cannot be hash-joined.
  auto left_query = sparql::ParseQuery(
      "SELECT * WHERE { ?a <http://ex/livesIn> ?b . }");
  auto right_query = sparql::ParseQuery(
      "SELECT * WHERE { ?x <http://ex/population> ?y . }");
  ASSERT_TRUE(left_query.ok() && right_query.ok());
  auto left_tree = db->Plan(*left_query);
  auto right_tree = db->Plan(*right_query);
  ASSERT_TRUE(left_tree.ok() && right_tree.ok());
  auto cross = plan::PlanBuilder::MakeHashJoin(
      plan::PlanBuilder::MakeScan(left_tree->nodes[0], 0),
      plan::PlanBuilder::MakeScan(right_tree->nodes[0], 0));
  EXPECT_FALSE(cross.ok());
}

TEST(PlanBuilderTest, JoinOutputPlannerSizeIsUnknown) {
  std::unique_ptr<core::ProstDb> db = TinyDb();
  auto query = sparql::ParseQuery(
      "SELECT * WHERE { ?a <http://ex/livesIn> ?b . "
      "?b <http://ex/population> ?p . }");
  ASSERT_TRUE(query.ok()) << query.status();
  auto tree = db->Plan(*query);
  ASSERT_TRUE(tree.ok()) << tree.status();
  ASSERT_EQ(tree->nodes.size(), 2u);
  // Scans carry their storage size and prunes pass it through (static
  // planning); a join's output size is unknown, so it never broadcasts.
  auto left = plan::PlanBuilder::MakeScan(tree->nodes[0], 10);
  std::vector<std::string> left_columns = left->output_columns;
  left = plan::PlanBuilder::MakeProject(std::move(left), left_columns,
                                        /*optimizer_inserted=*/true);
  EXPECT_EQ(left->planner_bytes, 10u);
  auto joined = plan::PlanBuilder::MakeHashJoin(
      std::move(left), plan::PlanBuilder::MakeScan(tree->nodes[1], 20));
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ((*joined)->planner_bytes, engine::kUnknownPlannerBytes);
}

// ------------------------------------------- Greedy join order and skip

/// A ring of eight people: person i knows persons i+1 and (for even i)
/// i+3, follows person i+1 alone, likes one or two of four typed items,
/// and has one name.
std::shared_ptr<const rdf::EncodedGraph> RingGraph() {
  using rdf::Term;
  constexpr int kPeople = 8;
  auto person = [](int i) {
    return Term::Iri("http://ex/person" + std::to_string(i % kPeople));
  };
  auto item = [](int i) {
    return Term::Iri("http://ex/item" + std::to_string(i % 4));
  };
  rdf::EncodedGraph graph;
  for (int i = 0; i < kPeople; ++i) {
    graph.Add({person(i), Term::Iri("http://ex/knows"), person(i + 1)});
    if (i % 2 == 0) {
      graph.Add({person(i), Term::Iri("http://ex/knows"), person(i + 3)});
    }
    graph.Add({person(i), Term::Iri("http://ex/follows"), person(i + 1)});
    graph.Add({person(i), Term::Iri("http://ex/likes"), item(i)});
    if (i % 3 == 0) {
      graph.Add({person(i), Term::Iri("http://ex/likes"), item(i + 1)});
    }
    graph.Add({person(i), Term::Iri("http://ex/name"),
               Term::Literal("name" + std::to_string(i))});
  }
  for (int i = 0; i < 4; ++i) {
    graph.Add({item(i), Term::Iri("http://ex/type"),
               Term::Iri("http://ex/type" + std::to_string(i % 2))});
  }
  graph.SortAndDedupe();
  return std::make_shared<const rdf::EncodedGraph>(std::move(graph));
}

/// Plans `text` on a VP-only store over RingGraph (one scan per pattern)
/// and checks the plan, its leaf count against `min_leaves` /
/// `max_leaves`, and its answer against the reference evaluator. Returns
/// the optimized plan's rendering.
std::string CheckRingQuery(const core::ProstDb& db, const std::string& text,
                           size_t min_leaves, size_t max_leaves) {
  auto query = sparql::ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status();
  if (!query.ok()) return "";
  auto planned = db.PlanPhysical(*query);
  EXPECT_TRUE(planned.ok()) << planned.status();
  if (!planned.ok()) return "";
  Status checked = analysis::CheckPhysicalPlan(planned->plan, *query);
  EXPECT_TRUE(checked.ok()) << checked;
  std::vector<const plan::ScanNodeBase*> scans;
  CollectScans(*planned->plan.root, scans);
  EXPECT_GE(scans.size(), min_leaves);
  EXPECT_LE(scans.size(), max_leaves);

  auto result = db.Execute(*query);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return "";
  EXPECT_EQ(result->relation.column_names(), query->EffectiveProjection());
  const auto expected = testing::ReferenceEvaluate(*query, *RingGraph());
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(result->relation.CollectSortedRows(), expected);
  return planned->plan.ToString();
}

std::unique_ptr<core::ProstDb> RingDb(bool join_order) {
  core::ProstDb::Options options;
  options.use_property_table = false;
  options.passes.join_order = join_order;
  auto db = core::ProstDb::LoadFromSharedGraph(RingGraph(), options);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

TEST(JoinOrderTest, GreedyOrderAboveTheDpThresholdIsCorrect) {
  // Twelve patterns: a four-hop path, what each hop likes, two liked
  // items sharing a type, and a name.
  const std::string text =
      "SELECT * WHERE { "
      "?a <http://ex/knows> ?b . ?b <http://ex/knows> ?c . "
      "?c <http://ex/knows> ?d . ?d <http://ex/knows> ?e . "
      "?a <http://ex/likes> ?i . ?b <http://ex/likes> ?j . "
      "?c <http://ex/likes> ?k . ?d <http://ex/likes> ?l . "
      "?e <http://ex/likes> ?m . ?i <http://ex/type> ?t . "
      "?j <http://ex/type> ?t . ?a <http://ex/name> ?n . }";
  std::unique_ptr<core::ProstDb> db = RingDb(/*join_order=*/true);
  const std::string rendered =
      CheckRingQuery(*db, text, plan::kJoinOrderDpThreshold + 1,
                     plan::kJoinOrderMaxLeaves);
  // The pass ran: every join line carries its estimate.
  size_t joins = 0;
  size_t start = 0;
  while ((start = rendered.find("HashJoin", start)) != std::string::npos) {
    const size_t end = rendered.find('\n', start);
    EXPECT_NE(rendered.substr(start, end - start).find("  est="),
              std::string::npos)
        << rendered;
    ++joins;
    start = end;
  }
  EXPECT_EQ(joins, 11u);
}

TEST(JoinOrderTest, SegmentOfMaxLeavesIsOrderedCorrectly) {
  // 32 patterns, the most the pass orders: a sixteen-hop follows chain
  // and the names of its first sixteen members.
  std::string text = "SELECT * WHERE { ";
  for (int i = 0; i < 16; ++i) {
    text += "?x" + std::to_string(i) + " <http://ex/follows> ?x" +
            std::to_string(i + 1) + " . ";
    text += "?x" + std::to_string(i) + " <http://ex/name> ?n" +
            std::to_string(i) + " . ";
  }
  text += "}";
  // Plans (greedy over all 32 leaves) and answers like the reference.
  std::unique_ptr<core::ProstDb> db = RingDb(/*join_order=*/true);
  CheckRingQuery(*db, text, plan::kJoinOrderMaxLeaves,
                 plan::kJoinOrderMaxLeaves);
}

TEST(JoinOrderTest, SegmentsAboveMaxLeavesKeepTheTranslatorOrder) {
  // 33 patterns: a sixteen-hop follows chain and each member's name.
  std::string text = "SELECT * WHERE { ";
  for (int i = 0; i < 16; ++i) {
    text += "?x" + std::to_string(i) + " <http://ex/follows> ?x" +
            std::to_string(i + 1) + " . ";
  }
  for (int i = 0; i <= 16; ++i) {
    text += "?x" + std::to_string(i) + " <http://ex/name> ?n" +
            std::to_string(i) + " . ";
  }
  text += "}";
  std::unique_ptr<core::ProstDb> ordered = RingDb(/*join_order=*/true);
  std::unique_ptr<core::ProstDb> heuristic = RingDb(/*join_order=*/false);
  const std::string with_pass =
      CheckRingQuery(*ordered, text, plan::kJoinOrderMaxLeaves + 1, 33);
  const std::string without_pass =
      CheckRingQuery(*heuristic, text, plan::kJoinOrderMaxLeaves + 1, 33);
  EXPECT_EQ(with_pass, without_pass);
}

}  // namespace
}  // namespace prost
