#ifndef PROST_STATS_CARDINALITY_ESTIMATOR_H_
#define PROST_STATS_CARDINALITY_ESTIMATOR_H_

#include <map>
#include <optional>
#include <vector>

#include "rdf/graph.h"
#include "rdf/triple.h"
#include "stats/characteristic_sets.h"

namespace prost::stats {

/// Estimates are floored at this value so selectivity products never
/// collapse to an absorbing zero (matches the storage-layer convention).
inline constexpr double kMinEstimatedRows = 1e-3;

/// One triple pattern as the estimator sees it: which predicate it scans
/// and which of its endpoints are bound to constants. Variable names are
/// deliberately absent — the caller owns variable identity; the estimator
/// only needs the shape.
struct PatternDescriptor {
  rdf::TermId predicate = rdf::kNullTermId;
  bool subject_is_constant = false;
  bool object_is_constant = false;
};

/// A scan: one pattern (vertical-partition scan) or several patterns
/// sharing a key variable (property-table star scan). `key_is_object`
/// marks reverse-property-table scans, whose shared key is the object.
struct StarDescriptor {
  bool key_is_object = false;
  std::vector<PatternDescriptor> patterns;
};

/// Cardinality estimation over per-predicate statistics plus (optional)
/// characteristic sets. Per-predicate counts give exact single-pattern
/// cardinalities; characteristic sets make star estimates near-exact;
/// everything else degrades to attribute-independence formulas.
///
/// The estimator borrows the statistics maps it is given — they must
/// outlive it (in practice both live on the same store object). It is
/// immutable after construction and safe to share across threads.
class CardinalityEstimator {
 public:
  CardinalityEstimator(
      const std::map<rdf::TermId, rdf::PredicateStats>* per_predicate,
      const CharacteristicSets* characteristic_sets)
      : per_predicate_(per_predicate),
        characteristic_sets_(characteristic_sets) {}

  /// A scan's estimates, from one count of its star.
  struct ScanEstimate {
    /// Expected output rows of the scan.
    double rows = 0.0;
    /// Expected distinct values the scan's key column carries (1 when
    /// the key is constant). This is the denominator material for key
    /// joins.
    double key_distinct = 0.0;
    /// The characteristic-set statistics of the scan's predicates, when
    /// the star was counted from them (a subject-keyed scan, sets
    /// present): what StarExact returns for those predicates.
    std::optional<CharacteristicSets::StarEstimate> star;
  };
  ScanEstimate EstimateScan(const StarDescriptor& scan) const;

  /// Expected distinct values of pattern `pattern_index`'s value column
  /// (the non-key endpoint) within a scan producing `scan_rows` rows.
  double EstimateValueDistinct(const StarDescriptor& scan,
                               size_t pattern_index, double scan_rows) const;

  /// Exact subject-star statistics over the characteristic sets, from
  /// one lookup: the rows of joining the full VP tables of `predicates`
  /// on their shared subject, and the subjects carrying every predicate
  /// (the star's distinct key values). Empty when characteristic sets
  /// are unavailable — callers fall back to independence.
  std::optional<CharacteristicSets::StarEstimate> StarExact(
      const std::vector<rdf::TermId>& predicates) const;

  const rdf::PredicateStats* Lookup(rdf::TermId predicate) const;
  bool has_characteristic_sets() const {
    return characteristic_sets_ != nullptr &&
           characteristic_sets_->num_sets() > 0;
  }

 private:
  // Distinct key values carried by the star and its expected rows,
  // before constant bindings, and the characteristic-set statistics they
  // came from, if they did.
  struct StarCounts {
    double keys = 0.0;
    double rows = 0.0;
    std::optional<CharacteristicSets::StarEstimate> star;
  };
  StarCounts CountStar(const StarDescriptor& scan) const;

  const std::map<rdf::TermId, rdf::PredicateStats>* per_predicate_;
  const CharacteristicSets* characteristic_sets_;
};

}  // namespace prost::stats

#endif  // PROST_STATS_CARDINALITY_ESTIMATOR_H_
