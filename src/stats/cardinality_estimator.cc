#include "stats/cardinality_estimator.h"

#include <algorithm>
#include <cmath>

namespace prost::stats {
namespace {

double Floor(double value) { return std::max(value, kMinEstimatedRows); }

}  // namespace

const rdf::PredicateStats* CardinalityEstimator::Lookup(
    rdf::TermId predicate) const {
  if (per_predicate_ == nullptr) return nullptr;
  const auto it = per_predicate_->find(predicate);
  return it == per_predicate_->end() ? nullptr : &it->second;
}

CardinalityEstimator::StarCounts CardinalityEstimator::CountStar(
    const StarDescriptor& scan) const {
  // Characteristic sets answer "how many subjects carry all of these
  // predicates" exactly; they only apply to subject-keyed stars.
  if (!scan.key_is_object && has_characteristic_sets()) {
    std::vector<rdf::TermId> predicates;
    predicates.reserve(scan.patterns.size());
    for (const PatternDescriptor& p : scan.patterns) {
      predicates.push_back(p.predicate);
    }
    const CharacteristicSets::StarEstimate star =
        characteristic_sets_->EstimateStar(predicates);
    return {static_cast<double>(star.subjects), star.rows, star};
  }
  // Independence fallback: prod_p d_p / U^(k-1) with U the largest
  // per-predicate distinct count in the star (so a single pattern is just
  // d_p, and every extra pattern scales by its hit rate against U).
  double product = 1.0;
  double universe = 1.0;
  for (const PatternDescriptor& p : scan.patterns) {
    const rdf::PredicateStats* stats = Lookup(p.predicate);
    if (stats == nullptr || stats->triple_count == 0) return {};
    const double distinct = static_cast<double>(
        scan.key_is_object ? stats->distinct_objects
                           : stats->distinct_subjects);
    product *= distinct;
    universe = std::max(universe, distinct);
  }
  for (size_t i = 1; i < scan.patterns.size(); ++i) product /= universe;
  // Keys that survive every pattern, each multiplied by its average
  // per-key multiplicity under each predicate.
  StarCounts counts{product, product, std::nullopt};
  for (const PatternDescriptor& p : scan.patterns) {
    const rdf::PredicateStats* stats = Lookup(p.predicate);
    const uint64_t distinct = scan.key_is_object ? stats->distinct_objects
                                                 : stats->distinct_subjects;
    if (distinct == 0) return {product, 0.0, std::nullopt};
    counts.rows *= static_cast<double>(stats->triple_count) /
                   static_cast<double>(distinct);
  }
  return counts;
}

CardinalityEstimator::ScanEstimate CardinalityEstimator::EstimateScan(
    const StarDescriptor& scan) const {
  const StarCounts star = CountStar(scan);
  ScanEstimate estimate;
  estimate.star = star.star;
  // Constant bindings select a fraction of the key / value domains.
  double rows = star.rows;
  bool key_constant = false;
  bool value_unknown = false;
  for (const PatternDescriptor& p : scan.patterns) {
    const bool on_key =
        scan.key_is_object ? p.object_is_constant : p.subject_is_constant;
    if (on_key) key_constant = true;
    const bool on_value =
        scan.key_is_object ? p.subject_is_constant : p.object_is_constant;
    if (on_value && !value_unknown) {
      const rdf::PredicateStats* stats = Lookup(p.predicate);
      if (stats == nullptr) {
        value_unknown = true;
        continue;
      }
      const uint64_t distinct = scan.key_is_object ? stats->distinct_subjects
                                                   : stats->distinct_objects;
      rows /= static_cast<double>(std::max<uint64_t>(distinct, 1));
    }
  }
  if (key_constant) rows /= std::max(star.keys, 1.0);
  estimate.rows = scan.patterns.empty() || value_unknown
                      ? kMinEstimatedRows
                      : Floor(rows);
  estimate.key_distinct = key_constant ? 1.0 : Floor(star.keys);
  return estimate;
}

double CardinalityEstimator::EstimateValueDistinct(const StarDescriptor& scan,
                                                   size_t pattern_index,
                                                   double scan_rows) const {
  const PatternDescriptor& pattern = scan.patterns[pattern_index];
  const rdf::PredicateStats* stats = Lookup(pattern.predicate);
  if (stats == nullptr) return 1.0;
  const uint64_t raw = scan.key_is_object ? stats->distinct_subjects
                                          : stats->distinct_objects;
  const double distinct = static_cast<double>(std::max<uint64_t>(raw, 1));
  return Floor(std::min(distinct, std::max(scan_rows, 1.0)));
}

std::optional<CharacteristicSets::StarEstimate>
CardinalityEstimator::StarExact(
    const std::vector<rdf::TermId>& predicates) const {
  if (!has_characteristic_sets()) return std::nullopt;
  return characteristic_sets_->EstimateStar(predicates);
}

}  // namespace prost::stats
