#ifndef PROST_STATS_CHARACTERISTIC_SETS_H_
#define PROST_STATS_CHARACTERISTIC_SETS_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "rdf/graph.h"

namespace prost::stats {

/// One characteristic set (Neumann & Moerkotte, "Characteristic Sets:
/// Accurate Cardinality Estimation for RDF Queries with Multiple Joins",
/// ICDE 2011): the exact set of predicates emitted by some group of
/// subjects, how many subjects share that signature, and how many triples
/// those subjects contribute per predicate. Star-shaped query cardinality
/// is then a sum over the signatures that are supersets of the query's
/// predicate set — exact for the subject-count part, and off only by
/// per-predicate multiplicity correlation for the row-count part.
struct CharacteristicSet {
  /// Sorted, distinct predicate ids forming the signature.
  std::vector<rdf::TermId> predicates;
  /// Subjects whose distinct-predicate set is exactly `predicates`.
  uint64_t subject_count = 0;
  /// Total triples those subjects hold per predicate, aligned with
  /// `predicates` (>= subject_count per entry; > means multi-valued).
  std::vector<uint64_t> occurrences;
};

/// The full collection of characteristic sets for one dataset, with an
/// inverted index from each predicate to the signatures that carry it.
/// Immutable after construction, so it is safe to share across
/// concurrent queries.
class CharacteristicSets {
 public:
  /// Both star statistics of one predicate set, from one index walk.
  struct StarEstimate {
    /// Distinct subjects that carry *every* predicate of the set. This
    /// is exact, not an estimate.
    uint64_t subjects = 0;
    /// Expected output rows of a subject-star join over the set (one
    /// scan per predicate, all joined on a shared subject):
    ///   sum over supersets S of count(S) * prod_p occ_p(S) / count(S),
    /// i.e. subjects weighted by their expected per-predicate
    /// multiplicity product. 0 when no signature covers the set.
    double rows = 0.0;
  };

  /// Incremental construction from (subject, predicate) pairs, one per
  /// triple (Compute feeds it the encoded graph).
  class Builder {
   public:
    void Add(rdf::TermId subject, rdf::TermId predicate);
    CharacteristicSets Build() &&;

   private:
    std::map<rdf::TermId, std::map<rdf::TermId, uint64_t>> by_subject_;
  };

  CharacteristicSets() = default;

  static CharacteristicSets Compute(const rdf::EncodedGraph& graph);

  const std::vector<CharacteristicSet>& sets() const { return sets_; }
  size_t num_sets() const { return sets_.size(); }

  /// Star statistics over `predicates` (ids need not be sorted;
  /// duplicates are ignored). Walks the shortest of the predicates'
  /// posting lists and skips forward through the others, so only the
  /// signatures that are supersets of the set are visited, in ascending
  /// signature order: both sums add the same terms in the same order as
  /// a scan over sets().
  StarEstimate EstimateStar(const std::vector<rdf::TermId>& predicates) const;

 private:
  /// Fills postings_ from sets_, which must be in ascending signature
  /// order.
  void BuildIndex();

  /// One signature carrying a predicate: its index in sets_, and the
  /// predicate's position within it.
  struct Posting {
    uint32_t set = 0;
    uint32_t position = 0;
  };

  std::vector<CharacteristicSet> sets_;
  /// Predicate -> the signatures that contain it, by ascending index.
  std::unordered_map<rdf::TermId, std::vector<Posting>> postings_;
};

}  // namespace prost::stats

#endif  // PROST_STATS_CHARACTERISTIC_SETS_H_
