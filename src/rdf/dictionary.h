#ifndef PROST_RDF_DICTIONARY_H_
#define PROST_RDF_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "rdf/term.h"
#include "rdf/triple.h"

namespace prost::rdf {

/// Bidirectional mapping between RDF terms (in canonical N-Triples lexical
/// form) and dense 64-bit ids. All four engines in this repository operate
/// on dictionary-encoded data, mirroring what S2RDF / PRoST achieve with
/// string columns + Parquet dictionary pages.
///
/// Ids are assigned in first-seen order starting at 1 (0 is reserved as
/// the null id used by Property Table NULL cells).
class Dictionary {
 public:
  /// Lexical length (bytes) of every term, indexed by id (index 0 unused).
  /// Precomputed once and shared by size estimators.
  std::vector<uint32_t> TermLengths() const;

 public:
  Dictionary() = default;
  // Dictionaries can be large; keep them move-only to avoid accidental
  // deep copies.
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;

  /// Returns the id for `lexical`, interning it if unseen.
  TermId Intern(std::string_view lexical);

  /// Interns the canonical form of `term`.
  TermId InternTerm(const Term& term) { return Intern(term.ToNTriples()); }

  /// Returns the id for `lexical` or kNullTermId if not present.
  TermId Lookup(std::string_view lexical) const;

  /// Returns the lexical form for `id`; error for out-of-range or null id.
  Result<std::string_view> LookupId(TermId id) const;

  /// Like LookupId, for ids the caller *knows* are interned (e.g. ids read
  /// back out of this dictionary's own tables). Aborts with a diagnostic
  /// on an out-of-range id — a programming error, not a runtime condition.
  std::string_view MustLookupId(TermId id) const;

  /// True when `id` denotes an RDF literal: either a virtual integer id or
  /// an interned term whose canonical lexical form starts with '"'.
  /// Out-of-range ids are not literals.
  bool IsLiteralId(TermId id) const;

  /// Decodes `id` back into a structured Term.
  Result<Term> DecodeTerm(TermId id) const;

  /// Number of interned terms.
  size_t size() const { return lexicals_.size(); }

 private:
  // deque keeps element addresses stable so index_ may key on views into
  // the stored strings.
  std::deque<std::string> lexicals_;  // index = id - 1
  std::unordered_map<std::string_view, TermId> index_;
};

}  // namespace prost::rdf

#endif  // PROST_RDF_DICTIONARY_H_
