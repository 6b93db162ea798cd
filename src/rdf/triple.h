#ifndef PROST_RDF_TRIPLE_H_
#define PROST_RDF_TRIPLE_H_

#include <cstdint>
#include <string>
#include <tuple>

#include "rdf/term.h"

namespace prost::rdf {

/// Dictionary-encoded term identifier. Id 0 is reserved as "invalid /
/// null"; valid ids start at 1.
using TermId = uint64_t;
inline constexpr TermId kNullTermId = 0;

/// Aggregate results (COUNT) are integers that need not exist in the
/// dictionary. They are carried as "virtual" term ids with the top bit
/// set; consumers decode them without a dictionary lookup. Dictionary ids
/// never reach this range (they are dense from 1).
inline constexpr TermId kVirtualIntegerBit = 1ull << 63;

inline TermId VirtualIntegerId(uint64_t value) {
  return kVirtualIntegerBit | value;
}
inline bool IsVirtualIntegerId(TermId id) {
  return (id & kVirtualIntegerBit) != 0;
}
inline uint64_t VirtualIntegerValue(TermId id) {
  return id & ~kVirtualIntegerBit;
}
/// The N-Triples lexical form a virtual integer id stands for:
/// `"N"^^<http://www.w3.org/2001/XMLSchema#integer>`.
std::string VirtualIntegerLexical(TermId id);

/// An RDF triple over concrete (lexical) terms.
struct Triple {
  Term subject;
  Term predicate;
  Term object;

  bool operator==(const Triple& other) const = default;
  bool operator<(const Triple& other) const {
    return std::tie(subject, predicate, object) <
           std::tie(other.subject, other.predicate, other.object);
  }

  /// One N-Triples line, including the trailing " ." (no newline).
  std::string ToNTriples() const;
};

/// A dictionary-encoded triple; the representation every storage backend
/// and the execution engine operate on.
struct EncodedTriple {
  TermId subject = kNullTermId;
  TermId predicate = kNullTermId;
  TermId object = kNullTermId;

  bool operator==(const EncodedTriple& other) const = default;
  bool operator<(const EncodedTriple& other) const {
    return std::tie(subject, predicate, object) <
           std::tie(other.subject, other.predicate, other.object);
  }
};

}  // namespace prost::rdf

#endif  // PROST_RDF_TRIPLE_H_
