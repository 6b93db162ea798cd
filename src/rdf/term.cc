#include "rdf/term.h"

#include <tuple>

namespace prost::rdf {
namespace {

/// Escapes a literal value per N-Triples rules.
std::string EscapeLiteral(std::string_view value) {
  std::string out;
  out.reserve(value.size() + 2);
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Result<std::string> UnescapeLiteral(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '\\') {
      out.push_back(raw[i]);
      continue;
    }
    if (i + 1 >= raw.size()) {
      return Status::ParseError("dangling escape in literal");
    }
    char next = raw[++i];
    switch (next) {
      case '"':
        out.push_back('"');
        break;
      case '\\':
        out.push_back('\\');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      default:
        return Status::ParseError(std::string("unknown escape \\") + next);
    }
  }
  return out;
}

}  // namespace

Term Term::Iri(std::string iri) {
  return Term{TermKind::kIri, std::move(iri), {}, {}};
}

Term Term::Literal(std::string value) {
  return Term{TermKind::kLiteral, std::move(value), {}, {}};
}

Term Term::TypedLiteral(std::string value, std::string datatype) {
  return Term{TermKind::kLiteral, std::move(value), std::move(datatype), {}};
}

Term Term::LangLiteral(std::string value, std::string language) {
  return Term{TermKind::kLiteral, std::move(value), {}, std::move(language)};
}

Term Term::Blank(std::string label) {
  return Term{TermKind::kBlank, std::move(label), {}, {}};
}

Term Term::Variable(std::string name) {
  return Term{TermKind::kVariable, std::move(name), {}, {}};
}

std::string Term::ToNTriples() const {
  switch (kind) {
    case TermKind::kIri:
      return "<" + value + ">";
    case TermKind::kLiteral: {
      std::string out = "\"";
      out.append(EscapeLiteral(value)).append("\"");
      if (!language.empty()) {
        out += "@" + language;
      } else if (!datatype.empty()) {
        out += "^^<" + datatype + ">";
      }
      return out;
    }
    case TermKind::kBlank:
      return "_:" + value;
    case TermKind::kVariable:
      return "?" + value;
  }
  return "";
}

bool Term::operator<(const Term& other) const {
  return std::tie(kind, value, datatype, language) <
         std::tie(other.kind, other.value, other.datatype, other.language);
}

Result<Term> ParseTerm(std::string_view text) {
  if (text.empty()) return Status::ParseError("empty term");
  if (text.front() == '<') {
    if (text.back() != '>' || text.size() < 2) {
      return Status::ParseError("unterminated IRI: " + std::string(text));
    }
    return Term::Iri(std::string(text.substr(1, text.size() - 2)));
  }
  if (text.front() == '?') {
    if (text.size() < 2) return Status::ParseError("empty variable name");
    return Term::Variable(std::string(text.substr(1)));
  }
  if (text.size() >= 2 && text[0] == '_' && text[1] == ':') {
    if (text.size() < 3) return Status::ParseError("empty blank node label");
    return Term::Blank(std::string(text.substr(2)));
  }
  if (text.front() == '"') {
    // Find the closing quote, skipping escaped characters.
    size_t end = std::string_view::npos;
    for (size_t i = 1; i < text.size(); ++i) {
      if (text[i] == '\\') {
        ++i;
        continue;
      }
      if (text[i] == '"') {
        end = i;
        break;
      }
    }
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated literal: " + std::string(text));
    }
    PROST_ASSIGN_OR_RETURN(std::string value,
                           UnescapeLiteral(text.substr(1, end - 1)));
    std::string_view rest = text.substr(end + 1);
    if (rest.empty()) return Term::Literal(std::move(value));
    if (rest.front() == '@') {
      if (rest.size() < 2) return Status::ParseError("empty language tag");
      return Term::LangLiteral(std::move(value), std::string(rest.substr(1)));
    }
    if (rest.size() >= 4 && rest.substr(0, 3) == "^^<" && rest.back() == '>') {
      return Term::TypedLiteral(std::move(value),
                                std::string(rest.substr(3, rest.size() - 4)));
    }
    return Status::ParseError("malformed literal suffix: " +
                              std::string(text));
  }
  return Status::ParseError("unrecognized term: " + std::string(text));
}

}  // namespace prost::rdf
