#include "rdf/triple.h"

namespace prost::rdf {

std::string VirtualIntegerLexical(TermId id) {
  return "\"" + std::to_string(VirtualIntegerValue(id)) +
         "\"^^<http://www.w3.org/2001/XMLSchema#integer>";
}

std::string Triple::ToNTriples() const {
  return subject.ToNTriples() + " " + predicate.ToNTriples() + " " +
         object.ToNTriples() + " .";
}

}  // namespace prost::rdf
