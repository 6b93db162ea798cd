#include "rdf/triple.h"

namespace prost::rdf {

std::string VirtualIntegerLexical(TermId id) {
  std::string out = "\"";
  out.append(std::to_string(VirtualIntegerValue(id)))
      .append("\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  return out;
}

std::string Triple::ToNTriples() const {
  return subject.ToNTriples() + " " + predicate.ToNTriples() + " " +
         object.ToNTriples() + " .";
}

}  // namespace prost::rdf
