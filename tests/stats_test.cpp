#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "rdf/graph.h"
#include "stats/cardinality_estimator.h"
#include "stats/characteristic_sets.h"
#include "stats/predicate_index.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost {
namespace {

// A six-triple fixture with one multi-valued predicate, one shared
// object, and two distinct subject signatures ({p1,p2} twice, {p2} once):
//   s1 --p1--> o1, o2    s1 --p2--> x
//   s2 --p1--> o1        s2 --p2--> x
//   s3 --p2--> y
rdf::EncodedGraph Fixture() {
  const std::string triples =
      "<http://ex/s1> <http://ex/p1> <http://ex/o1> .\n"
      "<http://ex/s1> <http://ex/p1> <http://ex/o2> .\n"
      "<http://ex/s1> <http://ex/p2> <http://ex/x> .\n"
      "<http://ex/s2> <http://ex/p1> <http://ex/o1> .\n"
      "<http://ex/s2> <http://ex/p2> <http://ex/x> .\n"
      "<http://ex/s3> <http://ex/p2> <http://ex/y> .\n";
  auto graph = rdf::EncodeNTriples(triples);
  EXPECT_TRUE(graph.ok()) << graph.status();
  return std::move(graph).value();
}

rdf::TermId Predicate(const rdf::EncodedGraph& graph, const char* iri) {
  rdf::TermId id = graph.dictionary().Lookup(iri);
  EXPECT_NE(id, rdf::kNullTermId) << iri;
  return id;
}

// ------------------------------------------------ Per-predicate stats

TEST(PredicateStatsTest, CountsDistinctsAndMaxFanouts) {
  rdf::EncodedGraph graph = Fixture();
  auto stats = graph.ComputePredicateStats();
  const rdf::PredicateStats& p1 = stats.at(Predicate(graph, "<http://ex/p1>"));
  EXPECT_EQ(p1.triple_count, 3u);
  EXPECT_EQ(p1.distinct_subjects, 2u);
  EXPECT_EQ(p1.distinct_objects, 2u);
  EXPECT_EQ(p1.max_subject_fanout, 2u);  // s1 carries two p1 triples.
  EXPECT_EQ(p1.max_object_fanout, 2u);   // o1 is reached from s1 and s2.
  EXPECT_TRUE(p1.is_multi_valued());

  const rdf::PredicateStats& p2 = stats.at(Predicate(graph, "<http://ex/p2>"));
  EXPECT_EQ(p2.triple_count, 3u);
  EXPECT_EQ(p2.distinct_subjects, 3u);
  EXPECT_EQ(p2.distinct_objects, 2u);
  EXPECT_EQ(p2.max_subject_fanout, 1u);
  EXPECT_EQ(p2.max_object_fanout, 2u);  // x is shared by s1 and s2.
  EXPECT_FALSE(p2.is_multi_valued());
}

// ------------------------------------------------ Characteristic sets

TEST(CharacteristicSetsTest, ComputeGroupsSubjectsBySignature) {
  rdf::EncodedGraph graph = Fixture();
  stats::CharacteristicSets sets = stats::CharacteristicSets::Compute(graph);
  EXPECT_EQ(sets.num_sets(), 2u);  // {p1,p2} and {p2}.
  EXPECT_EQ(sets.total_subjects(), 3u);

  const rdf::TermId p1 = Predicate(graph, "<http://ex/p1>");
  const rdf::TermId p2 = Predicate(graph, "<http://ex/p2>");
  EXPECT_EQ(sets.EstimateStar({p1}).subjects, 2u);
  EXPECT_EQ(sets.EstimateStar({p2}).subjects, 3u);
  EXPECT_EQ(sets.EstimateStar({p1, p2}).subjects, 2u);
  // Order and duplicates must not matter.
  EXPECT_EQ(sets.EstimateStar({p2, p1, p2}).subjects, 2u);
  // An unknown predicate can never be covered.
  EXPECT_EQ(sets.EstimateStar({p1, rdf::TermId{9999}}).subjects, 0u);
}

// For every predicate pair (a predicate with itself included), the
// subjects of the two-predicate star are exactly the subjects carrying
// both predicates, counted by brute force over the triples.
void ExpectPairStarsCountSubjectOverlap(const rdf::EncodedGraph& graph) {
  std::map<rdf::TermId, std::vector<rdf::TermId>> predicates_of;
  for (const rdf::EncodedTriple& t : graph.triples()) {
    predicates_of[t.subject].push_back(t.predicate);
  }
  std::vector<rdf::TermId> all;
  for (auto& [subject, predicates] : predicates_of) {
    (void)subject;
    std::sort(predicates.begin(), predicates.end());
    predicates.erase(std::unique(predicates.begin(), predicates.end()),
                     predicates.end());
    all.insert(all.end(), predicates.begin(), predicates.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  const stats::CharacteristicSets sets =
      stats::CharacteristicSets::Compute(graph);
  for (rdf::TermId p : all) {
    for (rdf::TermId q : all) {
      uint64_t overlap = 0;
      for (const auto& [subject, predicates] : predicates_of) {
        (void)subject;
        if (std::binary_search(predicates.begin(), predicates.end(), p) &&
            std::binary_search(predicates.begin(), predicates.end(), q)) {
          ++overlap;
        }
      }
      EXPECT_EQ(sets.EstimateStar({p, q}).subjects, overlap)
          << "predicates " << p << ", " << q;
    }
  }
}

TEST(CharacteristicSetsTest, PairStarSubjectsEqualSubjectOverlap) {
  // Nine triples: u1 and u2 both carry likes and age, only u1 carries
  // likes and name, and likes and label never share a subject.
  const std::string triples =
      "<http://ex/u1> <http://ex/likes> <http://ex/p1> .\n"
      "<http://ex/u1> <http://ex/likes> <http://ex/p2> .\n"
      "<http://ex/u1> <http://ex/age> \"30\" .\n"
      "<http://ex/u1> <http://ex/name> \"ann\" .\n"
      "<http://ex/u2> <http://ex/likes> <http://ex/p1> .\n"
      "<http://ex/u2> <http://ex/age> \"30\" .\n"
      "<http://ex/u3> <http://ex/name> \"cat\" .\n"
      "<http://ex/p1> <http://ex/label> \"x\" .\n"
      "<http://ex/p2> <http://ex/label> \"y\" .\n";
  auto graph = rdf::EncodeNTriples(triples);
  ASSERT_TRUE(graph.ok()) << graph.status();
  const stats::CharacteristicSets sets =
      stats::CharacteristicSets::Compute(*graph);
  const rdf::TermId likes = Predicate(*graph, "<http://ex/likes>");
  const rdf::TermId age = Predicate(*graph, "<http://ex/age>");
  const rdf::TermId name = Predicate(*graph, "<http://ex/name>");
  const rdf::TermId label = Predicate(*graph, "<http://ex/label>");
  EXPECT_EQ(sets.EstimateStar({likes, age}).subjects, 2u);
  EXPECT_EQ(sets.EstimateStar({age, likes}).subjects, 2u);
  EXPECT_EQ(sets.EstimateStar({likes, name}).subjects, 1u);
  EXPECT_EQ(sets.EstimateStar({likes, label}).subjects, 0u);
  EXPECT_EQ(sets.EstimateStar({likes, likes}).subjects, 2u);

  ExpectPairStarsCountSubjectOverlap(*graph);
  ExpectPairStarsCountSubjectOverlap(Fixture());
  Rng rng(3);
  auto iri = [&rng](const char* prefix, uint64_t bound) {
    return rdf::Term::Iri(StrFormat("%s%llu", prefix,
                                    static_cast<unsigned long long>(
                                        rng.NextBounded(bound))));
  };
  for (int i = 0; i < 5; ++i) {
    rdf::EncodedGraph random;
    for (int t = 0; t < 300; ++t) {
      rdf::Term subject = iri("http://e/", 40);
      rdf::Term predicate = iri("http://p/", 8);
      random.Add({std::move(subject), std::move(predicate),
                  iri("http://e/", 40)});
    }
    random.SortAndDedupe();
    ExpectPairStarsCountSubjectOverlap(random);
  }
}

TEST(CharacteristicSetsTest, StarRowEstimateIsExactOnTheFixture) {
  rdf::EncodedGraph graph = Fixture();
  stats::CharacteristicSets sets = stats::CharacteristicSets::Compute(graph);
  const rdf::TermId p1 = Predicate(graph, "<http://ex/p1>");
  const rdf::TermId p2 = Predicate(graph, "<http://ex/p2>");
  // Joining VP(p1) and VP(p2) on the subject yields s1:2*1 + s2:1*1 = 3
  // rows; the signature-weighted estimate reproduces it exactly.
  EXPECT_DOUBLE_EQ(sets.EstimateStar({p1, p2}).rows, 3.0);
  // A single-predicate "star" is the full VP table.
  EXPECT_DOUBLE_EQ(sets.EstimateStar({p1}).rows, 3.0);
  EXPECT_DOUBLE_EQ(sets.EstimateStar({p2}).rows, 3.0);
  EXPECT_DOUBLE_EQ(sets.EstimateStar({p1, rdf::TermId{9999}}).rows, 0.0);
}

TEST(CharacteristicSetsTest, IncrementalBuilderMatchesCompute) {
  rdf::EncodedGraph graph = Fixture();
  stats::CharacteristicSets computed =
      stats::CharacteristicSets::Compute(graph);
  stats::CharacteristicSets::Builder builder;
  for (const rdf::EncodedTriple& t : graph.triples()) {
    builder.Add(t.subject, t.predicate);
  }
  stats::CharacteristicSets rebuilt = std::move(builder).Build();
  EXPECT_EQ(rebuilt.num_sets(), computed.num_sets());
  EXPECT_EQ(rebuilt.total_subjects(), computed.total_subjects());
  const rdf::TermId p1 = Predicate(graph, "<http://ex/p1>");
  const rdf::TermId p2 = Predicate(graph, "<http://ex/p2>");
  EXPECT_EQ(rebuilt.EstimateStar({p1, p2}).subjects,
            computed.EstimateStar({p1, p2}).subjects);
  // Add() accumulates one count per (subject, predicate) pair fed in, so
  // the multi-valued p1 keeps its 3 occurrences and estimates agree.
  EXPECT_DOUBLE_EQ(rebuilt.EstimateStar({p1, p2}).rows,
                   computed.EstimateStar({p1, p2}).rows);
}

// --------------------------------------------------- Predicate index

TEST(PredicateIndexTest, GroupsRowsAndMembershipSets) {
  rdf::EncodedGraph graph = Fixture();
  stats::PredicateIndex index = stats::PredicateIndex::Build(graph);
  EXPECT_EQ(index.entries().size(), 2u);
  const stats::PredicateEntry* p1 =
      index.Find(Predicate(graph, "<http://ex/p1>"));
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1->rows.size(), 3u);
  EXPECT_EQ(p1->subjects.size(), 2u);
  EXPECT_EQ(p1->objects.size(), 2u);
  EXPECT_EQ(index.Find(rdf::TermId{9999}), nullptr);
}

// ---------------------------------------------- Cardinality estimator

TEST(CardinalityEstimatorTest, ScanEstimatesWithCharacteristicSets) {
  rdf::EncodedGraph graph = Fixture();
  auto per_predicate = graph.ComputePredicateStats();
  stats::CharacteristicSets sets = stats::CharacteristicSets::Compute(graph);
  stats::CardinalityEstimator est(&per_predicate, &sets);
  ASSERT_TRUE(est.has_characteristic_sets());

  const rdf::TermId p1 = Predicate(graph, "<http://ex/p1>");
  stats::StarDescriptor scan;
  scan.patterns.push_back({p1, false, false});
  EXPECT_DOUBLE_EQ(est.EstimateScanRows(scan), 3.0);
  EXPECT_DOUBLE_EQ(est.EstimateKeyDistinct(scan), 2.0);

  // A constant object keeps 1/distinct_objects of the rows.
  scan.patterns[0].object_is_constant = true;
  EXPECT_DOUBLE_EQ(est.EstimateScanRows(scan), 1.5);
  EXPECT_DOUBLE_EQ(est.EstimateValueDistinct(scan, 0, 3.0), 2.0);

  // A constant subject selects one of the star's key values.
  scan.patterns[0].object_is_constant = false;
  scan.patterns[0].subject_is_constant = true;
  EXPECT_DOUBLE_EQ(est.EstimateScanRows(scan), 1.5);
  EXPECT_DOUBLE_EQ(est.EstimateKeyDistinct(scan), 1.0);
}

TEST(CardinalityEstimatorTest, StarExactAnswersAndFallbackSentinel) {
  rdf::EncodedGraph graph = Fixture();
  auto per_predicate = graph.ComputePredicateStats();
  stats::CharacteristicSets sets = stats::CharacteristicSets::Compute(graph);
  const rdf::TermId p1 = Predicate(graph, "<http://ex/p1>");
  const rdf::TermId p2 = Predicate(graph, "<http://ex/p2>");

  stats::CardinalityEstimator with(&per_predicate, &sets);
  const auto star = with.StarExact({p1, p2});
  ASSERT_TRUE(star.has_value());
  EXPECT_DOUBLE_EQ(star->rows, 3.0);
  EXPECT_EQ(star->subjects, 2u);

  // Without characteristic sets the answer is empty so callers fall
  // back to independence math instead of trusting a bogus zero.
  stats::CardinalityEstimator without(&per_predicate, nullptr);
  EXPECT_FALSE(without.has_characteristic_sets());
  EXPECT_FALSE(without.StarExact({p1, p2}).has_value());
}

// ------------------------------------------- Indexed lookup vs oracle

// The linear scan EstimateStar replaced, kept as its oracle: every
// signature in set order, superset test by std::includes.
stats::CharacteristicSets::StarEstimate LinearStar(
    const stats::CharacteristicSets& sets,
    std::vector<rdf::TermId> predicates) {
  std::sort(predicates.begin(), predicates.end());
  predicates.erase(std::unique(predicates.begin(), predicates.end()),
                   predicates.end());
  stats::CharacteristicSets::StarEstimate star;
  for (const stats::CharacteristicSet& set : sets.sets()) {
    if (set.predicates.size() < predicates.size()) continue;
    if (!std::includes(set.predicates.begin(), set.predicates.end(),
                       predicates.begin(), predicates.end())) {
      continue;
    }
    star.subjects += set.subject_count;
    double per_subject = 1.0;
    for (rdf::TermId predicate : predicates) {
      const auto it = std::lower_bound(set.predicates.begin(),
                                       set.predicates.end(), predicate);
      const size_t index = static_cast<size_t>(it - set.predicates.begin());
      per_subject *= static_cast<double>(set.occurrences[index]) /
                     static_cast<double>(set.subject_count);
    }
    star.rows += static_cast<double>(set.subject_count) * per_subject;
  }
  return star;
}

// Exact comparison on the raw doubles: the index must add the same terms
// in the same order as the scan.
void ExpectMatchesOracle(const stats::CharacteristicSets& sets,
                         const std::vector<rdf::TermId>& predicates) {
  const auto indexed = sets.EstimateStar(predicates);
  const auto linear = LinearStar(sets, predicates);
  EXPECT_EQ(indexed.subjects, linear.subjects)
      << ::testing::PrintToString(predicates);
  EXPECT_EQ(indexed.rows, linear.rows) << ::testing::PrintToString(predicates);
}

// Every predicate any signature carries, ascending.
std::vector<rdf::TermId> PredicatesOf(const stats::CharacteristicSets& sets) {
  std::vector<rdf::TermId> all;
  for (const stats::CharacteristicSet& set : sets.sets()) {
    all.insert(all.end(), set.predicates.begin(), set.predicates.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

// A random lookup of 3-9 predicates, mostly drawn (with repeats) from one
// signature so that it has supersets, sometimes mixed with any predicate
// or an id no signature carries.
std::vector<rdf::TermId> RandomLookup(const stats::CharacteristicSets& sets,
                                      const std::vector<rdf::TermId>& all,
                                      Rng& rng) {
  const std::vector<rdf::TermId>& base =
      sets.sets()[rng.NextBounded(sets.num_sets())].predicates;
  std::vector<rdf::TermId> lookup;
  const size_t size = rng.NextInRange(3, 9);
  while (lookup.size() < size) {
    if (rng.NextBernoulli(0.1)) {
      lookup.push_back(all[rng.NextBounded(all.size())]);
    } else if (rng.NextBernoulli(0.02)) {
      lookup.push_back(all.back() + 1 + rng.NextBounded(1000));
    } else if (!base.empty()) {
      lookup.push_back(base[rng.NextBounded(base.size())]);
    }
  }
  return lookup;
}

// The WatDiv dataset and queries plan_test optimizes, built once.
struct WatDivStats {
  std::shared_ptr<const rdf::EncodedGraph> graph;
  std::vector<sparql::Query> queries;
  stats::CharacteristicSets computed;
};

WatDivStats BuildWatDivStats() {
  WatDivStats built;
  watdiv::WatDivConfig config;
  config.target_triples = 60000;
  watdiv::WatDivDataset dataset = watdiv::Generate(config);
  dataset.graph.SortAndDedupe();
  auto parsed = watdiv::ParseQuerySet(watdiv::BasicQuerySet(dataset));
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (parsed.ok()) built.queries = std::move(parsed).value();
  built.graph =
      std::make_shared<const rdf::EncodedGraph>(std::move(dataset.graph));
  built.computed = stats::CharacteristicSets::Compute(*built.graph);
  return built;
}

const WatDivStats& WatDiv() {
  static const WatDivStats built = BuildWatDivStats();
  return built;
}

// Checks the empty set, every one- and two-predicate set, every WatDiv
// star's predicate set, and 1,000 seeded random sets. `sets` must be
// keyed on the WatDiv graph's predicate ids.
void ExpectIndexMatchesOracle(const stats::CharacteristicSets& sets) {
  const std::vector<rdf::TermId> all = PredicatesOf(sets);
  ASSERT_GT(all.size(), 10u);
  ExpectMatchesOracle(sets, {});
  for (size_t i = 0; i < all.size(); ++i) {
    ExpectMatchesOracle(sets, {all[i]});
    for (size_t j = i + 1; j < all.size(); ++j) {
      ExpectMatchesOracle(sets, {all[i], all[j]});
    }
  }
  const rdf::Dictionary& dictionary = WatDiv().graph->dictionary();
  size_t stars = 0;
  for (const sparql::Query& query : WatDiv().queries) {
    std::map<std::string, std::vector<rdf::TermId>> by_subject;
    for (const sparql::TriplePattern& p : query.bgp.patterns) {
      by_subject[p.subject.ToNTriples()].push_back(
          dictionary.Lookup(p.predicate.ToNTriples()));
    }
    for (const auto& [subject, predicates] : by_subject) {
      (void)subject;
      ExpectMatchesOracle(sets, predicates);
      ++stars;
    }
  }
  EXPECT_GE(stars, WatDiv().queries.size());
  Rng rng(18);
  for (int i = 0; i < 1000; ++i) {
    ExpectMatchesOracle(sets, RandomLookup(sets, all, rng));
  }
}

TEST(CharacteristicSetsIndexTest, MatchesLinearScanAfterCompute) {
  ExpectIndexMatchesOracle(WatDiv().computed);
}

TEST(CharacteristicSetsIndexTest, MatchesLinearScanAfterIncrementalBuild) {
  stats::CharacteristicSets::Builder builder;
  for (const rdf::EncodedTriple& t : WatDiv().graph->triples()) {
    builder.Add(t.subject, t.predicate);
  }
  const stats::CharacteristicSets built = std::move(builder).Build();
  EXPECT_EQ(built.num_sets(), WatDiv().computed.num_sets());
  ExpectIndexMatchesOracle(built);
}

}  // namespace
}  // namespace prost
