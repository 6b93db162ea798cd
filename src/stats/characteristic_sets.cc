#include "stats/characteristic_sets.h"

#include <algorithm>
#include <span>
#include <utility>

namespace prost::stats {
namespace {

// Returns the sorted distinct ids of `predicates`.
std::vector<rdf::TermId> Canonical(std::vector<rdf::TermId> predicates) {
  std::sort(predicates.begin(), predicates.end());
  predicates.erase(std::unique(predicates.begin(), predicates.end()),
                   predicates.end());
  return predicates;
}

// Drops the postings of ascending `list` below signature `set`. Probes
// 1, 2, 4, ... entries ahead before a binary search, so a step costs
// O(log distance): dense walks stay linear, sparse ones logarithmic.
template <typename Posting>
std::span<const Posting> SkipTo(std::span<const Posting> list, uint32_t set) {
  if (list.empty() || list.front().set >= set) return list;
  size_t below = 0;  // list[below].set < set
  size_t probe = 1;
  while (probe < list.size() && list[probe].set < set) {
    below = probe;
    probe *= 2;
  }
  const auto it = std::lower_bound(
      list.begin() + below + 1, list.begin() + std::min(probe, list.size()),
      set, [](const Posting& p, uint32_t s) { return p.set < s; });
  return list.subspan(static_cast<size_t>(it - list.begin()));
}

}  // namespace

void CharacteristicSets::Builder::Add(rdf::TermId subject,
                                      rdf::TermId predicate) {
  ++by_subject_[subject][predicate];
}

CharacteristicSets CharacteristicSets::Builder::Build() && {
  // Group subjects by their (sorted) distinct-predicate signature and
  // accumulate per-predicate triple totals.
  struct Accumulator {
    uint64_t subject_count = 0;
    std::vector<uint64_t> occurrences;
  };
  std::map<std::vector<rdf::TermId>, Accumulator> by_signature;
  for (const auto& [subject, predicate_counts] : by_subject_) {
    (void)subject;
    std::vector<rdf::TermId> signature;
    signature.reserve(predicate_counts.size());
    for (const auto& [predicate, count] : predicate_counts) {
      (void)count;
      signature.push_back(predicate);
    }
    Accumulator& acc = by_signature[signature];
    if (acc.occurrences.empty()) acc.occurrences.resize(signature.size(), 0);
    ++acc.subject_count;
    size_t i = 0;
    for (const auto& [predicate, count] : predicate_counts) {
      (void)predicate;
      acc.occurrences[i++] += count;
    }
  }

  CharacteristicSets result;
  result.sets_.reserve(by_signature.size());
  for (auto& [signature, acc] : by_signature) {
    CharacteristicSet set;
    set.predicates = signature;
    set.subject_count = acc.subject_count;
    set.occurrences = std::move(acc.occurrences);
    result.sets_.push_back(std::move(set));
  }
  result.BuildIndex();
  return result;
}

void CharacteristicSets::BuildIndex() {
  postings_.clear();
  for (size_t i = 0; i < sets_.size(); ++i) {
    const std::vector<rdf::TermId>& predicates = sets_[i].predicates;
    for (size_t position = 0; position < predicates.size(); ++position) {
      postings_[predicates[position]].push_back(
          {static_cast<uint32_t>(i), static_cast<uint32_t>(position)});
    }
  }
}

CharacteristicSets CharacteristicSets::Compute(const rdf::EncodedGraph& graph) {
  Builder builder;
  for (const auto& triple : graph.triples()) {
    builder.Add(triple.subject, triple.predicate);
  }
  return std::move(builder).Build();
}

CharacteristicSets::StarEstimate CharacteristicSets::EstimateStar(
    const std::vector<rdf::TermId>& predicates) const {
  const std::vector<rdf::TermId> query = Canonical(predicates);
  StarEstimate star;
  if (query.empty()) {
    for (const CharacteristicSet& set : sets_) {
      star.subjects += set.subject_count;
      star.rows += static_cast<double>(set.subject_count);
    }
    return star;
  }
  // The query's posting lists, in query order. The shortest drives the
  // walk; every list is ascending, so the others only move forward.
  std::vector<std::span<const Posting>> lists;
  lists.reserve(query.size());
  size_t shortest = 0;
  for (rdf::TermId predicate : query) {
    const auto it = postings_.find(predicate);
    if (it == postings_.end()) return star;
    lists.emplace_back(it->second);
    if (lists.back().size() < lists[shortest].size()) {
      shortest = lists.size() - 1;
    }
  }
  for (const Posting& candidate : lists[shortest]) {
    bool in_all = true;
    for (size_t i = 0; i < lists.size() && in_all; ++i) {
      if (i == shortest) continue;
      lists[i] = SkipTo(lists[i], candidate.set);
      if (lists[i].empty()) return star;
      in_all = lists[i].front().set == candidate.set;
    }
    if (!in_all) continue;
    // count(S) subjects each contribute the product of their average
    // per-predicate multiplicities occ_p(S) / count(S), multiplied in
    // query order.
    const CharacteristicSet& set = sets_[candidate.set];
    star.subjects += set.subject_count;
    double per_subject = 1.0;
    for (size_t i = 0; i < lists.size(); ++i) {
      const uint32_t position =
          i == shortest ? candidate.position : lists[i].front().position;
      per_subject *= static_cast<double>(set.occurrences[position]) /
                     static_cast<double>(set.subject_count);
    }
    star.rows += static_cast<double>(set.subject_count) * per_subject;
  }
  return star;
}

}  // namespace prost::stats
