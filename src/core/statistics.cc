#include "core/statistics.h"

#include <algorithm>

namespace prost::core {

DatasetStatistics DatasetStatistics::Compute(const rdf::EncodedGraph& graph) {
  DatasetStatistics stats;
  stats.total_triples_ = graph.size();
  stats.per_predicate_ = graph.ComputePredicateStats();
  return stats;
}

rdf::PredicateStats DatasetStatistics::ForPredicate(
    rdf::TermId predicate) const {
  auto it = per_predicate_.find(predicate);
  if (it == per_predicate_.end()) return rdf::PredicateStats{};
  return it->second;
}

double DatasetStatistics::EstimatePatternCardinality(
    const sparql::TriplePattern& pattern, rdf::TermId predicate_id) const {
  rdf::PredicateStats predicate_stats = ForPredicate(predicate_id);
  if (predicate_stats.triple_count == 0) return 0.0;
  double cardinality = static_cast<double>(predicate_stats.triple_count);
  if (pattern.HasConstantSubject() && predicate_stats.distinct_subjects > 0) {
    cardinality /= static_cast<double>(predicate_stats.distinct_subjects);
  }
  if (pattern.HasConstantObject() && predicate_stats.distinct_objects > 0) {
    cardinality /= static_cast<double>(predicate_stats.distinct_objects);
  }
  return std::max(cardinality, 1e-3);
}

}  // namespace prost::core
