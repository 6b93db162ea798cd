// Shared random-workload generators for the property tests: small random
// graphs with connecting vocabularies, and random connected BGP queries
// (optional constants, repeated variables, filters, DISTINCT). Used by
// both the cross-system equivalence test and the parallel-executor
// differential test, so the two sweeps cover the same plan-shape space.

#ifndef PROST_TESTS_RANDOM_WORKLOAD_H_
#define PROST_TESTS_RANDOM_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "rdf/graph.h"
#include "sparql/algebra.h"
#include "watdiv/queries.h"

namespace prost::testing {

/// A random graph over a small vocabulary so joins actually connect:
/// `entities` subjects/objects, `predicates` predicates, some literal
/// objects.
inline rdf::EncodedGraph RandomGraph(Rng& rng, size_t triples,
                                     size_t entities, size_t predicates) {
  rdf::EncodedGraph graph;
  for (size_t i = 0; i < triples; ++i) {
    std::string s = StrFormat("http://e/%llu",
                              static_cast<unsigned long long>(
                                  rng.NextBounded(entities)));
    std::string p = StrFormat("http://p/%llu",
                              static_cast<unsigned long long>(
                                  rng.NextBounded(predicates)));
    rdf::Term object =
        rng.NextBernoulli(0.3)
            ? rdf::Term::TypedLiteral(
                  std::to_string(rng.NextBounded(20)),
                  "http://www.w3.org/2001/XMLSchema#integer")
            : rdf::Term::Iri(StrFormat("http://e/%llu",
                                       static_cast<unsigned long long>(
                                           rng.NextBounded(entities))));
    graph.Add({rdf::Term::Iri(s), rdf::Term::Iri(p), std::move(object)});
  }
  graph.SortAndDedupe();
  return graph;
}

/// A random connected BGP: each pattern after the first reuses one
/// already-bound variable in subject or object position. Every query it
/// draws passes sparql::ValidateQuery.
inline sparql::Query RandomQuery(Rng& rng, const rdf::EncodedGraph& graph,
                                 size_t num_patterns, size_t predicates) {
  using rdf::Term;
  sparql::Query query;
  std::vector<std::string> bound;
  size_t next_var = 0;
  auto fresh_var = [&] {
    std::string name = StrFormat("v%zu", next_var++);
    bound.push_back(name);
    return name;
  };
  auto random_bound = [&] { return bound[rng.NextBounded(bound.size())]; };
  auto random_entity_id = [&]() -> rdf::TermId {
    // A term id that exists in the data, for non-vacuous constants.
    if (graph.size() == 0) return rdf::kNullTermId;
    const auto& t = graph.triples()[rng.NextBounded(graph.size())];
    return rng.NextBernoulli(0.5) ? t.subject : t.object;
  };

  for (size_t i = 0; i < num_patterns; ++i) {
    sparql::TriplePattern pattern;
    pattern.predicate = Term::Iri(StrFormat(
        "http://p/%llu",
        static_cast<unsigned long long>(rng.NextBounded(predicates))));
    bool reuse_in_subject = i == 0 || rng.NextBernoulli(0.5);
    // Drawn before this pattern binds a fresh variable, so the reused
    // variable always connects it to an earlier pattern.
    const std::string reused = i > 0 ? random_bound() : std::string();
    // Subject position.
    if (i > 0 && reuse_in_subject) {
      pattern.subject = Term::Variable(reused);
    } else if (i == 0 || rng.NextBernoulli(0.85)) {
      pattern.subject = Term::Variable(fresh_var());
    } else {
      auto decoded = graph.dictionary().DecodeTerm(random_entity_id());
      pattern.subject = decoded.ok() && !decoded->is_literal()
                            ? *decoded
                            : Term::Variable(fresh_var());
    }
    // Object position.
    if (i > 0 && !reuse_in_subject) {
      pattern.object = Term::Variable(reused);
    } else if (rng.NextBernoulli(0.75)) {
      pattern.object = Term::Variable(fresh_var());
    } else {
      auto decoded = graph.dictionary().DecodeTerm(random_entity_id());
      pattern.object =
          decoded.ok() ? *decoded : Term::Variable(fresh_var());
    }
    query.bgp.patterns.push_back(std::move(pattern));
  }

  // Occasional FILTER over some bound variable.
  if (rng.NextBernoulli(0.4)) {
    sparql::FilterConstraint filter;
    filter.variable = random_bound();
    filter.op = static_cast<sparql::CompareOp>(rng.NextBounded(6));
    if (rng.NextBernoulli(0.3) && bound.size() > 1) {
      filter.rhs_is_variable = true;
      filter.rhs_variable = random_bound();
    } else if (rng.NextBernoulli(0.5)) {
      filter.rhs_term = Term::TypedLiteral(
          std::to_string(rng.NextBounded(20)),
          "http://www.w3.org/2001/XMLSchema#integer");
    } else {
      auto decoded = graph.dictionary().DecodeTerm(random_entity_id());
      filter.rhs_term = decoded.ok() ? *decoded : Term::Literal("x");
    }
    query.filters.push_back(std::move(filter));
  }
  query.distinct = rng.NextBernoulli(0.3);
  return query;
}

/// Weighted sampler over the WatDiv basic query set, modeling a serving
/// mix: star and linear lookups dominate, snowflakes are common, complex
/// analytics are rare (the usual read-heavy serving skew). Draws return
/// *indices* into the query vector handed to the constructor, so callers
/// can pair every draw with a precomputed per-query reference result —
/// the serving stress test samples the same deterministic stream per
/// client and checks each answer bitwise.
class QueryMixSampler {
 public:
  /// Relative weight of one WatDiv query class in the serving mix.
  static uint32_t ClassWeight(char query_class) {
    switch (query_class) {
      case 'C':
        return 1;  // Complex: rare analytics.
      case 'F':
        return 2;  // Snowflake.
      case 'L':
        return 4;  // Linear: the point-lookup bread and butter.
      case 'S':
        return 3;  // Star.
      default:
        return 1;
    }
  }

  explicit QueryMixSampler(const std::vector<watdiv::WatDivQuery>& queries) {
    cumulative_.reserve(queries.size());
    uint64_t total = 0;
    for (const watdiv::WatDivQuery& query : queries) {
      total += ClassWeight(query.query_class);
      cumulative_.push_back(total);
    }
  }

  /// Index of the next sampled query, weighted by class.
  size_t SampleIndex(Rng& rng) const {
    uint64_t pick = rng.NextBounded(cumulative_.back());
    size_t index = 0;
    while (cumulative_[index] <= pick) ++index;
    return index;
  }

 private:
  std::vector<uint64_t> cumulative_;  // Per-query cumulative weights.
};

}  // namespace prost::testing

#endif  // PROST_TESTS_RANDOM_WORKLOAD_H_
