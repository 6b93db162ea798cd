// Unit tests for the WatDiv-like workload: sizing, deterministic
// generation, schema shape, and the 20 basic query templates.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "rdf/ntriples.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"
#include "watdiv/schema.h"

namespace prost::watdiv {
namespace {

TEST(SizingTest, ScalesWithTarget) {
  WatDivConfig small_config;
  small_config.target_triples = 30000;
  WatDivConfig big_config;
  big_config.target_triples = 300000;
  WatDivSizing small = ComputeSizing(small_config);
  WatDivSizing big = ComputeSizing(big_config);
  EXPECT_GT(big.users, small.users * 5);
  EXPECT_GT(small.users, 0u);
  EXPECT_GT(small.products, 0u);
  EXPECT_GT(small.retailers, 0u);
  // Fixed-size vocabularies do not scale.
  EXPECT_EQ(small.countries, big.countries);
  EXPECT_EQ(small.sub_genres, big.sub_genres);
}

TEST(SizingTest, TinyTargetsGetFloors) {
  WatDivConfig config;
  config.target_triples = 10;
  WatDivSizing sizing = ComputeSizing(config);
  EXPECT_GE(sizing.users, 100u);
  EXPECT_GE(sizing.retailers, 5u);
}

TEST(GeneratorTest, HitsTargetWithinTolerance) {
  WatDivConfig config;
  config.target_triples = 50000;
  WatDivDataset dataset = Generate(config);
  double ratio = static_cast<double>(dataset.graph.size()) /
                 static_cast<double>(config.target_triples);
  EXPECT_GT(ratio, 0.6) << dataset.graph.size();
  EXPECT_LT(ratio, 1.7) << dataset.graph.size();
}

TEST(GeneratorTest, DeterministicForSeed) {
  WatDivConfig config;
  config.target_triples = 20000;
  WatDivDataset a = Generate(config);
  WatDivDataset b = Generate(config);
  ASSERT_EQ(a.graph.size(), b.graph.size());
  EXPECT_EQ(a.graph.triples(), b.graph.triples());
  config.seed = 43;
  WatDivDataset c = Generate(config);
  EXPECT_NE(a.graph.triples(), c.graph.triples());
}

TEST(GeneratorTest, ValidRdfAndRoundTrip) {
  WatDivConfig config;
  config.target_triples = 5000;
  WatDivDataset dataset = Generate(config);
  std::string text = ToNTriplesText(dataset);
  auto reparsed = rdf::EncodeNTriples(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->size(), dataset.graph.size());
}

TEST(GeneratorTest, CoreScheduleIsPresent) {
  WatDivConfig config;
  config.target_triples = 30000;
  WatDivDataset dataset = Generate(config);
  const rdf::Dictionary& dict = dataset.graph.dictionary();
  // Every predicate the query templates touch must exist in the data.
  for (const std::string& predicate :
       {Predicates::type(), Predicates::likes(), Predicates::friendOf(),
        Predicates::subscribes(), Predicates::makesPurchase(),
        Predicates::purchaseFor(), Predicates::purchaseDate(),
        Predicates::caption(), Predicates::description(),
        Predicates::keywords(), Predicates::text(),
        Predicates::contentRating(), Predicates::contentSize(),
        Predicates::language(), Predicates::hasGenre(), Predicates::tag(),
        Predicates::title(), Predicates::publisher(), Predicates::author(),
        Predicates::actor(), Predicates::artist(), Predicates::conductor(),
        Predicates::trailer(), Predicates::hasReview(),
        Predicates::reviewer(), Predicates::revTitle(),
        Predicates::totalVotes(), Predicates::offers(),
        Predicates::includes(), Predicates::price(),
        Predicates::serialNumber(), Predicates::validFrom(),
        Predicates::validThrough(), Predicates::eligibleRegion(),
        Predicates::eligibleQuantity(), Predicates::priceValidUntil(),
        Predicates::legalName(), Predicates::jobTitle(),
        Predicates::nationality(), Predicates::location(),
        Predicates::gender(), Predicates::age(), Predicates::givenName(),
        Predicates::familyName(), Predicates::homepage(),
        Predicates::url(), Predicates::hits(),
        Predicates::parentCountry()}) {
    EXPECT_NE(dict.Lookup("<" + predicate + ">"), rdf::kNullTermId)
        << predicate;
  }
  // Popular placeholder entities exist.
  for (const std::string& entity :
       {UserIri(0), ProductIri(0), RetailerIri(0), WebsiteIri(0), CityIri(0),
        SubGenreIri(0), TopicIri(0), LanguageIri(0), CountryIri(5),
        RoleIri(2), ProductCategoryIri(0), ProductCategoryIri(2),
        AgeGroupIri(0)}) {
    EXPECT_NE(dict.Lookup("<" + entity + ">"), rdf::kNullTermId) << entity;
  }
}

TEST(GeneratorTest, MultiValuedPredicatesExist) {
  WatDivConfig config;
  config.target_triples = 30000;
  WatDivDataset dataset = Generate(config);
  dataset.graph.SortAndDedupe();
  auto stats = dataset.graph.ComputePredicateStats();
  const rdf::Dictionary& dict = dataset.graph.dictionary();
  auto stat_of = [&](const std::string& p) {
    return stats.at(dict.Lookup("<" + p + ">"));
  };
  // The PT's list columns come from these.
  EXPECT_TRUE(stat_of(Predicates::likes()).is_multi_valued());
  EXPECT_TRUE(stat_of(Predicates::friendOf()).is_multi_valued());
  EXPECT_TRUE(stat_of(Predicates::offers()).is_multi_valued());
  // Single-valued attributes stay flat.
  EXPECT_FALSE(stat_of(Predicates::legalName()).is_multi_valued());
  EXPECT_FALSE(stat_of(Predicates::url()).is_multi_valued());
}

TEST(GeneratorTest, PowerLawPopularity) {
  WatDivConfig config;
  config.target_triples = 40000;
  WatDivDataset dataset = Generate(config);
  const rdf::Dictionary& dict = dataset.graph.dictionary();
  rdf::TermId likes =
      dict.Lookup(rdf::Term::Iri(Predicates::likes()).ToNTriples());
  rdf::TermId popular =
      dict.Lookup(rdf::Term::Iri(ProductIri(0)).ToNTriples());
  ASSERT_NE(likes, rdf::kNullTermId);
  size_t popular_count = 0, total = 0;
  for (const auto& t : dataset.graph.triples()) {
    if (t.predicate != likes) continue;
    ++total;
    if (t.object == popular) ++popular_count;
  }
  ASSERT_GT(total, 100u);
  // Rank-0 product receives far more than a uniform share of likes.
  double uniform_share =
      static_cast<double>(total) / dataset.sizing.products;
  EXPECT_GT(popular_count, uniform_share * 5);
}

// -------------------------------------------------------------- Queries

TEST(QueriesTest, TwentyTemplatesWithExpectedClasses) {
  WatDivDataset dataset;  // Queries only need the placeholder IRIs.
  auto queries = BasicQuerySet(dataset);
  ASSERT_EQ(queries.size(), 20u);
  std::map<char, int> counts;
  std::set<std::string> ids;
  for (const auto& q : queries) {
    ++counts[q.query_class];
    ids.insert(q.id);
  }
  EXPECT_EQ(counts['C'], 3);
  EXPECT_EQ(counts['F'], 5);
  EXPECT_EQ(counts['L'], 5);
  EXPECT_EQ(counts['S'], 7);
  EXPECT_EQ(ids.size(), 20u);
}

TEST(QueriesTest, AllParseAndValidate) {
  WatDivDataset dataset;
  auto queries = BasicQuerySet(dataset);
  auto parsed = ParseQuerySet(queries);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), 20u);
}

TEST(QueriesTest, ShapesMatchClasses) {
  WatDivDataset dataset;
  auto queries = BasicQuerySet(dataset);
  auto parsed = ParseQuerySet(queries);
  ASSERT_TRUE(parsed.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& query = (*parsed)[i];
    if (queries[i].query_class == 'S') {
      // Star queries: all patterns share one subject variable (a concrete
      // subject pattern pointing at the star is allowed, as in S1/S7).
      std::map<std::string, int> subject_counts;
      for (const auto& p : query.bgp.patterns) {
        if (p.subject.is_variable()) ++subject_counts[p.subject.value];
      }
      int max_count = 0;
      for (const auto& [v, c] : subject_counts) max_count = std::max(max_count, c);
      EXPECT_GE(max_count + 1, static_cast<int>(query.bgp.patterns.size()))
          << queries[i].id;
    }
    if (queries[i].query_class == 'L') {
      EXPECT_LE(query.bgp.patterns.size(), 3u) << queries[i].id;
    }
  }
}

}  // namespace
}  // namespace prost::watdiv
