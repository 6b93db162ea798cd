// Randomized property test: generate random small graphs and random
// connected BGP queries (with optional constants, repeated variables,
// filters and DISTINCT), and require all six system configurations to
// return exactly the brute-force reference answer. This sweeps plan
// shapes the hand-written tests never reach. The generators live in
// random_workload.h, shared with the parallel-executor differential test.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "baselines/system.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/prost_db.h"
#include "random_workload.h"
#include "reference_evaluator.h"
#include "sparql/parser.h"

namespace prost {
namespace {

using rdf::Term;
using testing::RandomGraph;
using testing::RandomQuery;

class RandomizedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedEquivalenceTest, AllSystemsMatchReference) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed * 7919 + 13);
  size_t triples = 80 + rng.NextBounded(400);
  size_t entities = 10 + rng.NextBounded(40);
  size_t predicates = 2 + rng.NextBounded(6);
  auto graph = std::make_shared<const rdf::EncodedGraph>(
      RandomGraph(rng, triples, entities, predicates));

  cluster::ClusterConfig cluster;
  auto systems = baselines::MakeAllSystems(graph, cluster);
  ASSERT_TRUE(systems.ok()) << systems.status();
  auto vp_only = baselines::MakeProstVpOnly(graph, cluster);
  ASSERT_TRUE(vp_only.ok());
  core::ProstDb::Options reverse_options;
  reverse_options.cluster = cluster;
  reverse_options.use_reverse_property_table = true;
  auto reverse_db =
      core::ProstDb::LoadFromSharedGraph(graph, reverse_options);
  ASSERT_TRUE(reverse_db.ok());

  int interesting = 0;
  for (int round = 0; round < 12; ++round) {
    sparql::Query query;
    if (round == 0) {
      // One guaranteed non-empty query per seed: an open scan of a
      // predicate that actually occurs in the data.
      sparql::TriplePattern pattern;
      pattern.subject = Term::Variable("v0");
      pattern.object = Term::Variable("v1");
      rdf::TermId predicate_id = graph->DistinctPredicates().front();
      pattern.predicate = *graph->dictionary().DecodeTerm(predicate_id);
      query.bgp.patterns.push_back(std::move(pattern));
    } else {
      size_t num_patterns = 1 + rng.NextBounded(4);
      query = RandomQuery(rng, *graph, num_patterns, predicates);
    }
    ASSERT_TRUE(sparql::ValidateQuery(query).ok()) << query.ToString();
    SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                 std::to_string(round) + "\n" + query.ToString());

    auto expected = testing::ReferenceEvaluate(query, *graph);
    if (!expected.empty()) ++interesting;
    for (const auto& system : *systems) {
      auto result = system->Execute(query);
      ASSERT_TRUE(result.ok()) << system->name() << ": " << result.status();
      EXPECT_EQ(result->relation.CollectSortedRows(), expected)
          << system->name();
    }
    auto vp_result = (*vp_only)->Execute(query);
    ASSERT_TRUE(vp_result.ok()) << vp_result.status();
    EXPECT_EQ(vp_result->relation.CollectSortedRows(), expected);
    auto reverse_result = (*reverse_db)->Execute(query);
    ASSERT_TRUE(reverse_result.ok()) << reverse_result.status();
    EXPECT_EQ(reverse_result->relation.CollectSortedRows(), expected)
        << "reverse PT";
  }
  // The generator must not degenerate into always-empty answers.
  EXPECT_GT(interesting, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedEquivalenceTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace prost
