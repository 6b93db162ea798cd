#ifndef PROST_CORE_STATISTICS_H_
#define PROST_CORE_STATISTICS_H_

#include <cstdint>
#include <map>

#include "rdf/graph.h"
#include "rdf/triple.h"
#include "sparql/algebra.h"

namespace prost::core {

/// The loading-phase dataset statistics of §3.3: "(1) the total number of
/// triples and (2) the number of distinct subjects for each predicate.
/// They are calculated during the loading phase without any significant
/// overhead." Distinct objects are additionally tracked for the
/// constant-object selectivity estimate and the reverse Property Table.
class DatasetStatistics {
 public:
  DatasetStatistics() = default;

  /// One pass over the encoded graph.
  static DatasetStatistics Compute(const rdf::EncodedGraph& graph);

  uint64_t total_triples() const { return total_triples_; }
  size_t num_predicates() const { return per_predicate_.size(); }

  /// Stats for a predicate; zeroed stats for unknown predicates (a query
  /// mentioning an absent predicate has an empty answer).
  rdf::PredicateStats ForPredicate(rdf::TermId predicate) const;

  const std::map<rdf::TermId, rdf::PredicateStats>& per_predicate() const {
    return per_predicate_;
  }

  /// Estimated number of result tuples for one triple pattern, the §3.3
  /// priority signal: the predicate's triple count, divided by distinct
  /// subjects for a constant subject and by distinct objects for a
  /// constant object ("the presence of a literal is a strong constraint").
  double EstimatePatternCardinality(const sparql::TriplePattern& pattern,
                                    rdf::TermId predicate_id) const;

 private:
  uint64_t total_triples_ = 0;
  std::map<rdf::TermId, rdf::PredicateStats> per_predicate_;
};

}  // namespace prost::core

#endif  // PROST_CORE_STATISTICS_H_
