#ifndef PROST_RDF_TERM_H_
#define PROST_RDF_TERM_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace prost::rdf {

/// The three RDF term kinds plus "variable", which appears only in query
/// triple patterns, never in data.
enum class TermKind : uint8_t {
  kIri = 0,
  kLiteral = 1,
  kBlank = 2,
  kVariable = 3,
};

/// A single RDF term. IRIs store the IRI without angle brackets; literals
/// store the lexical value plus optional datatype IRI and language tag;
/// blank nodes store the label without the `_:` prefix; variables store
/// the name without the leading `?`.
struct Term {
  TermKind kind = TermKind::kIri;
  std::string value;
  /// Datatype IRI (no angle brackets); empty when absent. Literals only.
  std::string datatype;
  /// Language tag without '@'; empty when absent. Literals only.
  std::string language;

  static Term Iri(std::string iri);
  static Term Literal(std::string value);
  static Term TypedLiteral(std::string value, std::string datatype);
  static Term LangLiteral(std::string value, std::string language);
  static Term Blank(std::string label);
  static Term Variable(std::string name);

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
  bool is_blank() const { return kind == TermKind::kBlank; }
  bool is_variable() const { return kind == TermKind::kVariable; }
  /// True for IRI / literal / blank — anything bindable in data.
  bool is_concrete() const { return kind != TermKind::kVariable; }

  /// Canonical N-Triples serialization: `<iri>`, `"val"^^<dt>`, `"val"@en`,
  /// `_:label`, or `?name` for variables.
  std::string ToNTriples() const;

  bool operator==(const Term& other) const = default;
  /// Lexicographic over (kind, value, datatype, language); gives data a
  /// stable canonical order for tests and result comparison.
  bool operator<(const Term& other) const;
};

/// Parses one serialized term (as produced by ToNTriples, or any valid
/// N-Triples term). Leading/trailing whitespace is not allowed.
Result<Term> ParseTerm(std::string_view text);

}  // namespace prost::rdf

#endif  // PROST_RDF_TERM_H_
