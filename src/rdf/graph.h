#ifndef PROST_RDF_GRAPH_H_
#define PROST_RDF_GRAPH_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"

namespace prost::rdf {

/// Per-predicate dataset statistics — exactly the two statistics PRoST's
/// optimizer uses (§3.3 of the paper): the number of triples per predicate
/// and the number of distinct subjects per predicate. Distinct objects are
/// also tracked because the S2RDF baseline and the future-work reverse
/// Property Table use them.
struct PredicateStats {
  uint64_t triple_count = 0;
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
  /// Triples whose object is a literal (including virtual integers). With
  /// `triple_count` this classifies the predicate's object domain, the
  /// schema signal the plan checker uses for join-key type agreement
  /// (S2RDF-style: a literal-valued predicate can never join a subject
  /// position).
  uint64_t literal_objects = 0;
  /// Worst-case multiplicities: the most triples any single subject
  /// (resp. object) carries under this predicate. These bound join
  /// fan-out where averages cannot — a skewed predicate (reviews
  /// concentrated on popular products) joins far above the
  /// independence estimate, but never above these caps.
  uint64_t max_subject_fanout = 0;
  uint64_t max_object_fanout = 0;

  /// True when at least one subject has more than one object value — the
  /// multi-valued case that forces list columns in the Property Table.
  bool is_multi_valued() const { return triple_count > distinct_subjects; }

  /// Object-domain classification; meaningless when triple_count == 0.
  bool objects_all_literals() const {
    return triple_count > 0 && literal_objects == triple_count;
  }
  bool objects_all_entities() const {
    return triple_count > 0 && literal_objects == 0;
  }

  bool operator==(const PredicateStats& other) const = default;
};

/// A dictionary-encoded RDF graph: the in-memory interchange format every
/// storage backend loads from.
class EncodedGraph {
 public:
  EncodedGraph() = default;
  EncodedGraph(const EncodedGraph&) = delete;
  EncodedGraph& operator=(const EncodedGraph&) = delete;
  EncodedGraph(EncodedGraph&&) = default;
  EncodedGraph& operator=(EncodedGraph&&) = default;

  /// Encodes and appends one triple.
  void Add(const Triple& triple);

  /// Appends an already-encoded triple (ids must come from dictionary()).
  void AddEncoded(EncodedTriple triple) { triples_.push_back(triple); }

  const std::vector<EncodedTriple>& triples() const { return triples_; }
  const Dictionary& dictionary() const { return dictionary_; }
  Dictionary& mutable_dictionary() { return dictionary_; }

  size_t size() const { return triples_.size(); }

  /// Computes per-predicate statistics in one pass (sorted scan). This is
  /// the loading-phase statistics collection the paper describes as having
  /// "no significant overhead".
  std::map<TermId, PredicateStats> ComputePredicateStats() const;

  /// The distinct predicate ids present, in ascending id order.
  std::vector<TermId> DistinctPredicates() const;

  /// Decodes triple `index` back to lexical form (testing/debug).
  Result<Triple> DecodeTriple(size_t index) const;

  /// Sorts triples by (s,p,o) id and removes duplicates. RDF graphs are
  /// sets; loaders call this once so duplicate statements in the input
  /// cannot inflate stores.
  void SortAndDedupe();

 private:
  Dictionary dictionary_;
  std::vector<EncodedTriple> triples_;
};

/// Parses an N-Triples document straight into an encoded graph.
Result<EncodedGraph> EncodeNTriples(std::string_view document);

}  // namespace prost::rdf

#endif  // PROST_RDF_GRAPH_H_
