#include "rdf/sparql_json.h"

#include <limits>

#include "common/str_util.h"

namespace prost::rdf {

namespace {

/// Appends the JSON escape of control byte `c`.
void AppendControlEscape(char c, std::string* out) {
  switch (c) {
    case '\n':
      out->append("\\n");
      break;
    case '\r':
      out->append("\\r");
      break;
    case '\t':
      out->append("\\t");
      break;
    case '\b':
      out->append("\\b");
      break;
    case '\f':
      out->append("\\f");
      break;
    default:
      out->append(StrFormat("\\u%04x", c));
  }
}

bool IsControl(char c) { return static_cast<unsigned char>(c) < 0x20; }

/// True when `text` holds a quote, a backslash or a control byte. Written
/// without an early exit so the compiler vectorizes it: most terms hold
/// none, and are then copied whole.
bool HasSpecialByte(std::string_view text) {
  bool special = false;
  for (const char c : text) {
    special |= (c == '"') | (c == '\\') | IsControl(c);
  }
  return special;
}

/// JsonEscape, appending to `out`: unescaped runs are copied whole.
void AppendJsonEscaped(std::string_view text, std::string* out) {
  if (!HasSpecialByte(text)) {
    out->append(text);
    return;
  }
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"' || c == '\\') {
      out->append(text.data() + run, i - run);
      out->push_back('\\');
      out->push_back(c);
      run = i + 1;
    } else if (IsControl(c)) {
      out->append(text.data() + run, i - run);
      AppendControlEscape(c, out);
      run = i + 1;
    }
  }
  out->append(text.data() + run, text.size() - run);
}

/// Appends the JSON string body for an N-Triples literal body (the bytes
/// between its quotes). The escapes rdf::ParseTerm accepts are JSON
/// escapes as they stand, so they are copied; raw control bytes are
/// escaped; any other escape is the ParseError ParseTerm gives it.
Status AppendLiteralBody(std::string_view body, std::string* out) {
  if (!HasSpecialByte(body)) {
    out->append(body);
    return Status::OK();
  }
  size_t run = 0;
  for (size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (c == '\\') {
      if (i + 1 == body.size()) {
        return Status::ParseError("dangling escape in literal");
      }
      const char next = body[++i];
      if (std::string_view("\"\\nrt").find(next) == std::string_view::npos) {
        return Status::ParseError(std::string("unknown escape \\") + next);
      }
    } else if (IsControl(c)) {
      out->append(body.data() + run, i - run);
      AppendControlEscape(c, out);
      run = i + 1;
    }
  }
  out->append(body.data() + run, body.size() - run);
  return Status::OK();
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendJsonEscaped(text, &out);
  return out;
}

Status AppendBinding(std::string_view lexical, std::string* out) {
  if (lexical.size() >= 2 && lexical.front() == '<' &&
      lexical.back() == '>') {
    out->append("{\"type\":\"uri\",\"value\":\"");
    AppendJsonEscaped(lexical.substr(1, lexical.size() - 2), out);
    out->append("\"}");
    return Status::OK();
  }
  if (lexical.size() >= 3 && lexical.substr(0, 2) == "_:") {
    out->append("{\"type\":\"bnode\",\"value\":\"");
    AppendJsonEscaped(lexical.substr(2), out);
    out->append("\"}");
    return Status::OK();
  }
  if (lexical.empty() || lexical.front() != '"') {
    return Status::ParseError("unrecognized term: " + std::string(lexical));
  }
  size_t end = 1;
  while (end < lexical.size() && lexical[end] != '"') {
    end += lexical[end] == '\\' ? 2 : 1;
  }
  if (end >= lexical.size()) {
    return Status::ParseError("unterminated literal: " +
                              std::string(lexical));
  }
  const std::string_view suffix = lexical.substr(end + 1);
  std::string_view key;  // "xml:lang" or "datatype", when the suffix has one.
  std::string_view annotation;
  if (suffix.size() >= 2 && suffix.front() == '@') {
    key = "xml:lang";
    annotation = suffix.substr(1);
  } else if (suffix.size() >= 4 && suffix.substr(0, 3) == "^^<" &&
             suffix.back() == '>') {
    key = "datatype";
    annotation = suffix.substr(3, suffix.size() - 4);
  } else if (!suffix.empty()) {
    return Status::ParseError("malformed literal suffix: " +
                              std::string(lexical));
  }
  out->append("{\"type\":\"literal\",\"value\":\"");
  PROST_RETURN_IF_ERROR(AppendLiteralBody(lexical.substr(1, end - 1), out));
  out->push_back('"');
  if (!annotation.empty()) {
    out->append(",\"");
    out->append(key);
    out->append("\":\"");
    AppendJsonEscaped(annotation, out);
    out->push_back('"');
  }
  out->push_back('}');
  return Status::OK();
}

BindingTable::BindingTable(const Dictionary& dictionary)
    : offsets_(dictionary.size() + 2, 0) {
  // Pass 1: id's binding length lands in offsets_[id + 1]. A rejected
  // term, and every term from the first one that would end past what a
  // uint32_t offset reaches, keeps length 0.
  std::string binding;
  uint64_t total = 0;
  for (TermId id = 1; id <= dictionary.size(); ++id) {
    binding.clear();
    if (!AppendBinding(dictionary.MustLookupId(id), &binding).ok()) continue;
    if (total + binding.size() > std::numeric_limits<uint32_t>::max()) break;
    total += binding.size();
    offsets_[id + 1] = static_cast<uint32_t>(binding.size());
  }
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  // Pass 2 fills the arena in id order, so it never grows past `total`.
  arena_.reserve(total);
  for (TermId id = 1; id <= dictionary.size(); ++id) {
    if (offsets_[id + 1] == offsets_[id]) continue;
    // Pass 1 accepted this term, and the encoder is deterministic.
    PROST_IGNORE_ERROR(AppendBinding(dictionary.MustLookupId(id), &arena_));
  }
}

}  // namespace prost::rdf
