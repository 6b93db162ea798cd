#ifndef PROST_RDF_SPARQL_JSON_H_
#define PROST_RDF_SPARQL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"

/// SPARQL 1.1 Query Results JSON bindings of dictionary terms: the
/// encoder that turns one term's N-Triples bytes into its typed binding
/// object, and a per-store table that holds every term's binding encoded
/// once, so a result writer emits each cell as one copy.

namespace prost::rdf {

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslash, control characters). UTF-8 passes through untouched.
std::string JsonEscape(std::string_view text);

/// Appends the typed binding object ({"type":…,"value":…,…}) for one
/// term, read from its N-Triples form the way rdf::ParseTerm reads it:
/// an IRI or blank node loses its `<>` or `_:`, and a literal body keeps
/// its escapes (\" \\ \n \r \t are JSON escapes too) while raw control
/// bytes are escaped, followed by its xml:lang or datatype.
/// kParseError on any other backslash escape or an unrecognized term;
/// `out` may then hold a partial binding.
Status AppendBinding(std::string_view lexical, std::string* out);

/// Every term's binding, indexed by id: one byte arena holding the
/// AppendBinding output of each term in id order, and a uint32_t offset
/// array where id's binding is arena[offsets[id], offsets[id + 1]). The
/// arena is sized exactly before it is filled. Immutable once built.
class BindingTable {
 public:
  /// An empty table: every Get is empty.
  BindingTable() = default;

  /// Encodes every term of `dictionary`. One pass sums the bindings'
  /// lengths, then the arena is reserved to that size and a second pass
  /// fills it. A term AppendBinding rejects gets an empty slice, and so
  /// does every term whose binding would end past 4 GiB of arena.
  explicit BindingTable(const Dictionary& dictionary);

  /// `id`'s binding, or empty when the table holds none: the null id,
  /// an id beyond the dictionary (virtual integers included), or a term
  /// the encoder rejects. A binding is never empty, so callers take
  /// empty as "encode this cell yourself".
  std::string_view Get(TermId id) const {
    if (id >= offsets_.size() - 1) return {};
    return std::string_view(arena_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }

  /// Bytes of bindings held (the arena's size).
  size_t arena_bytes() const { return arena_.size(); }

 private:
  std::string arena_;
  std::vector<uint32_t> offsets_ = {0};
};

}  // namespace prost::rdf

#endif  // PROST_RDF_SPARQL_JSON_H_
