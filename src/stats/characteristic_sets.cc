#include "stats/characteristic_sets.h"

#include <algorithm>
#include <charconv>
#include <span>
#include <string>
#include <utility>

#include "common/io.h"
#include "common/str_util.h"

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

// Parses a whole field as a decimal uint64_t; false on anything else
// (empty, signs, trailing bytes, overflow).
bool ParseCount(const std::string& field, uint64_t* value) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *value);
  return ec == std::errc() && ptr == end;
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
    result.total_subjects_ += set.subject_count;
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

Status CharacteristicSets::WriteTo(const std::string& path,
                                   const rdf::Dictionary& dictionary) const {
  std::string out;
  out += StrFormat("charsets 1 %zu\n", sets_.size());
  for (const CharacteristicSet& set : sets_) {
    out += StrFormat("%llu\t%zu",
                             static_cast<unsigned long long>(set.subject_count),
                             set.predicates.size());
    for (size_t i = 0; i < set.predicates.size(); ++i) {
      auto lexical = dictionary.LookupId(set.predicates[i]);
      if (!lexical.ok()) return lexical.status();
      out += StrFormat(
          "\t%s\t%llu", std::string(lexical.value()).c_str(),
          static_cast<unsigned long long>(set.occurrences[i]));
    }
    out += '\n';
  }
  return WriteStringToFile(path, out);
}

Result<CharacteristicSets> CharacteristicSets::ReadFrom(
    const std::string& path, rdf::Dictionary& dictionary) {
  std::string contents;
  PROST_RETURN_IF_ERROR(ReadFileToString(path, &contents));
  std::vector<std::string> lines = StrSplit(contents, '\n');
  if (lines.empty() || lines[0].rfind("charsets 1 ", 0) != 0) {
    return Status::Corruption("characteristic-set file header missing: " +
                              path);
  }
  CharacteristicSets result;
  for (size_t line_no = 1; line_no < lines.size(); ++line_no) {
    const std::string& line = lines[line_no];
    if (line.empty()) continue;
    const std::vector<std::string> parts = StrSplit(line, '\t');
    CharacteristicSet set;
    uint64_t num_predicates = 0;
    // Bound the predicate count by the fields present before any
    // arithmetic on it, so a huge count can neither wrap nor allocate.
    if (parts.size() < 2 || !ParseCount(parts[0], &set.subject_count) ||
        !ParseCount(parts[1], &num_predicates) || set.subject_count == 0 ||
        num_predicates > (parts.size() - 2) / 2 ||
        parts.size() != 2 + 2 * num_predicates) {
      return Status::Corruption("bad characteristic-set line in " + path);
    }
    // Re-intern: ids in the file's writing session are meaningless here.
    std::vector<std::pair<rdf::TermId, uint64_t>> entries(num_predicates);
    for (size_t i = 0; i < num_predicates; ++i) {
      entries[i].first = dictionary.Intern(parts[2 + 2 * i]);
      if (!ParseCount(parts[3 + 2 * i], &entries[i].second) ||
          entries[i].second < set.subject_count) {
        return Status::Corruption("bad characteristic-set count in " + path);
      }
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [id, occ] : entries) {
      if (!set.predicates.empty() && set.predicates.back() == id) {
        return Status::Corruption(
            "repeated predicate in a characteristic set in " + path);
      }
      set.predicates.push_back(id);
      set.occurrences.push_back(occ);
    }
    result.total_subjects_ += set.subject_count;
    result.sets_.push_back(std::move(set));
  }
  // Keep the in-memory order canonical (sorted by signature) so a
  // round-trip is structurally identical to a fresh Compute(), and the
  // index's ascending postings visit sets in the same order.
  std::sort(result.sets_.begin(), result.sets_.end(),
            [](const CharacteristicSet& a, const CharacteristicSet& b) {
              return a.predicates < b.predicates;
            });
  for (size_t i = 1; i < result.sets_.size(); ++i) {
    if (result.sets_[i - 1].predicates == result.sets_[i].predicates) {
      return Status::Corruption("repeated characteristic set in " + path);
    }
  }
  result.BuildIndex();
  return result;
}

}  // namespace prost::stats
