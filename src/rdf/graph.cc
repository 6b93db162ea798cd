#include "rdf/graph.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "rdf/ntriples.h"

namespace prost::rdf {

void EncodedGraph::Add(const Triple& triple) {
  EncodedTriple encoded;
  encoded.subject = dictionary_.InternTerm(triple.subject);
  encoded.predicate = dictionary_.InternTerm(triple.predicate);
  encoded.object = dictionary_.InternTerm(triple.object);
  triples_.push_back(encoded);
}

std::map<TermId, PredicateStats> EncodedGraph::ComputePredicateStats() const {
  // Group triples by predicate, then count distincts per group with local
  // hash sets (bounded by the group size, not the whole graph).
  std::map<TermId, std::vector<const EncodedTriple*>> by_predicate;
  for (const EncodedTriple& t : triples_) {
    by_predicate[t.predicate].push_back(&t);
  }
  std::map<TermId, PredicateStats> stats;
  for (const auto& [predicate, group] : by_predicate) {
    PredicateStats s;
    s.triple_count = group.size();
    std::unordered_map<TermId, uint64_t> subjects;
    std::unordered_map<TermId, uint64_t> objects;
    subjects.reserve(group.size());
    objects.reserve(group.size());
    for (const EncodedTriple* t : group) {
      s.max_subject_fanout = std::max(s.max_subject_fanout, ++subjects[t->subject]);
      s.max_object_fanout = std::max(s.max_object_fanout, ++objects[t->object]);
      if (dictionary_.IsLiteralId(t->object)) ++s.literal_objects;
    }
    s.distinct_subjects = subjects.size();
    s.distinct_objects = objects.size();
    stats.emplace(predicate, s);
  }
  return stats;
}

std::vector<TermId> EncodedGraph::DistinctPredicates() const {
  std::vector<TermId> predicates;
  predicates.reserve(64);
  for (const EncodedTriple& t : triples_) predicates.push_back(t.predicate);
  std::sort(predicates.begin(), predicates.end());
  predicates.erase(std::unique(predicates.begin(), predicates.end()),
                   predicates.end());
  return predicates;
}

void EncodedGraph::SortAndDedupe() {
  std::sort(triples_.begin(), triples_.end());
  triples_.erase(std::unique(triples_.begin(), triples_.end()),
                 triples_.end());
}

Result<Triple> EncodedGraph::DecodeTriple(size_t index) const {
  if (index >= triples_.size()) {
    return Status::OutOfRange("triple index out of range");
  }
  const EncodedTriple& t = triples_[index];
  PROST_ASSIGN_OR_RETURN(Term subject, dictionary_.DecodeTerm(t.subject));
  PROST_ASSIGN_OR_RETURN(Term predicate, dictionary_.DecodeTerm(t.predicate));
  PROST_ASSIGN_OR_RETURN(Term object, dictionary_.DecodeTerm(t.object));
  return Triple{std::move(subject), std::move(predicate), std::move(object)};
}

Result<EncodedGraph> EncodeNTriples(std::string_view document) {
  EncodedGraph graph;
  PROST_RETURN_IF_ERROR(
      ParseNTriples(document, [&](Triple&& t) { graph.Add(t); }));
  return graph;
}

}  // namespace prost::rdf
