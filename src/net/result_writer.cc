#include "net/result_writer.h"

#include <cctype>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "rdf/triple.h"

namespace prost::net {

namespace {

/// A deliberately small JSON reader: just enough grammar to parse the
/// SPARQL results documents this layer itself writes (objects, arrays,
/// strings with escapes, numbers, true/false/null). Not a general JSON
/// library — unknown constructs fail with kParseError rather than being
/// guessed at.
struct JsonValue {
  enum class Kind { kObject, kArray, kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0;
  bool boolean = false;

  const JsonValue* Find(std::string_view key) const {
    for (const auto& [name, value] : object) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    PROST_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (position_ != text_.size()) {
      return Status::ParseError("trailing bytes after JSON document");
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (position_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[position_]))) {
      ++position_;
    }
  }

  bool Consume(char expected) {
    SkipWhitespace();
    if (position_ < text_.size() && text_[position_] == expected) {
      ++position_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (position_ >= text_.size()) {
      return Status::ParseError("unexpected end of JSON");
    }
    char c = text_[position_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseLiteral(c == 't');
    if (c == 'n') {
      PROST_RETURN_IF_ERROR(Expect("null"));
      return JsonValue{};
    }
    return ParseNumber();
  }

  Status Expect(std::string_view word) {
    if (text_.substr(position_, word.size()) != word) {
      return Status::ParseError("malformed JSON literal");
    }
    position_ += word.size();
    return Status::OK();
  }

  Result<JsonValue> ParseLiteral(bool value) {
    PROST_RETURN_IF_ERROR(Expect(value ? "true" : "false"));
    JsonValue out;
    out.kind = JsonValue::Kind::kBool;
    out.boolean = value;
    return out;
  }

  Result<JsonValue> ParseNumber() {
    size_t start = position_;
    while (position_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[position_])) ||
            std::string_view("+-.eE").find(text_[position_]) !=
                std::string_view::npos)) {
      ++position_;
    }
    if (start == position_) return Status::ParseError("malformed JSON value");
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(std::string(text_.substr(start,
                                                      position_ - start))
                                 .c_str(),
                             nullptr);
    return out;
  }

  Result<JsonValue> ParseString() {
    ++position_;  // Opening quote.
    std::string out;
    while (position_ < text_.size()) {
      char c = text_[position_++];
      if (c == '"') {
        JsonValue value;
        value.kind = JsonValue::Kind::kString;
        value.string = std::move(out);
        return value;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (position_ >= text_.size()) break;
      char escape = text_[position_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out.push_back(escape);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
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
        case 'u': {
          if (position_ + 4 > text_.size()) {
            return Status::ParseError("truncated \\u escape");
          }
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[position_++];
            if (!std::isxdigit(static_cast<unsigned char>(h))) {
              return Status::ParseError("malformed \\u escape");
            }
            code = code * 16 +
                   static_cast<unsigned int>(
                       h <= '9' ? h - '0'
                                : std::tolower(h) - 'a' + 10);
          }
          // The writer only emits \u00XX for control bytes; decoding
          // the Basic Latin range is all the round trip needs.
          if (code > 0x7F) {
            return Status::ParseError("non-ASCII \\u escape unsupported");
          }
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          return Status::ParseError("unknown JSON escape");
      }
    }
    return Status::ParseError("unterminated JSON string");
  }

  Result<JsonValue> ParseObject() {
    ++position_;  // '{'
    JsonValue out;
    out.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return out;
    while (true) {
      SkipWhitespace();
      if (position_ >= text_.size() || text_[position_] != '"') {
        return Status::ParseError("expected JSON object key");
      }
      PROST_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      if (!Consume(':')) return Status::ParseError("expected ':'");
      PROST_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      out.object.emplace_back(std::move(key.string), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return out;
      return Status::ParseError("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    ++position_;  // '['
    JsonValue out;
    out.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return out;
    while (true) {
      PROST_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      out.array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return out;
      return Status::ParseError("expected ',' or ']'");
    }
  }

  std::string_view text_;
  size_t position_ = 0;
};

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

/// JsonEscape, appending to `out`: unescaped runs are copied whole.
void AppendJsonEscaped(std::string_view text, std::string* out) {
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

/// Appends the typed binding object ({"type": ..., "value": ..., ...})
/// for one term, read from its N-Triples form the way rdf::ParseTerm
/// reads it.
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

Result<rdf::Term> TermFromBinding(const JsonValue& binding) {
  const JsonValue* type = binding.Find("type");
  const JsonValue* value = binding.Find("value");
  if (type == nullptr || value == nullptr ||
      type->kind != JsonValue::Kind::kString ||
      value->kind != JsonValue::Kind::kString) {
    return Status::ParseError("binding missing type/value");
  }
  if (type->string == "uri") return rdf::Term::Iri(value->string);
  if (type->string == "bnode") return rdf::Term::Blank(value->string);
  if (type->string == "literal") {
    const JsonValue* lang = binding.Find("xml:lang");
    if (lang != nullptr && lang->kind == JsonValue::Kind::kString) {
      return rdf::Term::LangLiteral(value->string, lang->string);
    }
    const JsonValue* datatype = binding.Find("datatype");
    if (datatype != nullptr &&
        datatype->kind == JsonValue::Kind::kString) {
      return rdf::Term::TypedLiteral(value->string, datatype->string);
    }
    return rdf::Term::Literal(value->string);
  }
  return Status::ParseError("unknown binding type: " + type->string);
}

}  // namespace

ResultFormat SparqlResultWriter::Negotiate(std::string_view accept_header) {
  for (const std::string& entry : StrSplit(accept_header, ',')) {
    // Strip q-factor and other media-type parameters.
    std::string_view media(entry);
    size_t semicolon = media.find(';');
    if (semicolon != std::string_view::npos) {
      media = media.substr(0, semicolon);
    }
    media = StrTrim(media);
    if (media == "application/sparql-results+json" ||
        media == "application/json") {
      return ResultFormat::kJson;
    }
    if (media == "text/tab-separated-values") return ResultFormat::kTsv;
  }
  // Unknown, wildcard, or absent: JSON is the SPARQL protocol default.
  return ResultFormat::kJson;
}

const char* SparqlResultWriter::ContentType(ResultFormat format) {
  switch (format) {
    case ResultFormat::kJson:
      return "application/sparql-results+json";
    case ResultFormat::kTsv:
      return "text/tab-separated-values";
  }
  return "application/sparql-results+json";
}

Status SparqlResultWriter::Write(const core::ProstDb& db,
                                 const engine::Relation& relation,
                                 ResultFormat format,
                                 const BodySink& emit) {
  const rdf::Dictionary& dictionary = db.dictionary();
  const std::vector<std::string>& vars = relation.column_names();
  const bool json = format == ResultFormat::kJson;

  // The head, and each column's cell prefix, escaped once per query.
  // TSV is the SPARQL 1.1 "?var" header row, then one N-Triples term per
  // cell (N-Triples escapes tab and newline, so cells never contain a
  // separator).
  std::string out;
  out.reserve(kChunkBytes);
  std::vector<std::string> prefixes(vars.size());
  out += json ? "{\"head\":{\"vars\":[" : "";
  for (size_t c = 0; c < vars.size(); ++c) {
    if (json) {
      const std::string key = "\"" + JsonEscape(vars[c]) + "\"";
      out += (c == 0 ? "" : ",") + key;
      prefixes[c] = (c == 0 ? "" : ",") + key + ":";
    } else {
      out += (c == 0 ? "?" : "\t?") + vars[c];
      prefixes[c] = c == 0 ? "" : "\t";
    }
  }
  out += json ? "]},\"results\":{\"bindings\":[" : "\n";

  std::string integer;  // A virtual integer's lexical form.
  bool first_row = true;
  for (const engine::RelationChunk& chunk : relation.chunks()) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      if (json) out += first_row ? "{" : ",{";
      first_row = false;
      for (size_t c = 0; c < chunk.columns.size(); ++c) {
        out += prefixes[c];
        const rdf::TermId id = chunk.columns[c][r];
        std::string_view lexical;
        if (rdf::IsVirtualIntegerId(id)) {
          integer = rdf::VirtualIntegerLexical(id);
          lexical = integer;
        } else {
          PROST_ASSIGN_OR_RETURN(lexical, dictionary.LookupId(id));
        }
        if (json) {
          PROST_RETURN_IF_ERROR(AppendBinding(lexical, &out));
        } else {
          out += lexical;
        }
      }
      out += json ? "}" : "\n";
      if (out.size() >= kChunkBytes) {
        PROST_RETURN_IF_ERROR(emit(out));
        out.clear();
      }
    }
  }
  if (json) out += "]}}";
  return emit(out);
}

Result<std::string> SparqlResultWriter::Serialize(
    const core::ProstDb& db, const engine::Relation& relation,
    ResultFormat format) {
  std::string body;
  PROST_RETURN_IF_ERROR(
      Write(db, relation, format, [&body](std::string_view piece) {
        body.append(piece);
        return Status::OK();
      }));
  return body;
}

Result<SparqlResultSet> SparqlResultWriter::ParseJson(
    std::string_view json) {
  PROST_ASSIGN_OR_RETURN(JsonValue document, JsonReader(json).Parse());
  if (document.kind != JsonValue::Kind::kObject) {
    return Status::ParseError("results document is not a JSON object");
  }
  const JsonValue* head = document.Find("head");
  const JsonValue* results = document.Find("results");
  if (head == nullptr || results == nullptr) {
    return Status::ParseError("missing head/results");
  }
  const JsonValue* vars = head->Find("vars");
  const JsonValue* bindings = results->Find("bindings");
  if (vars == nullptr || vars->kind != JsonValue::Kind::kArray ||
      bindings == nullptr ||
      bindings->kind != JsonValue::Kind::kArray) {
    return Status::ParseError("missing head.vars/results.bindings");
  }

  SparqlResultSet out;
  for (const JsonValue& var : vars->array) {
    if (var.kind != JsonValue::Kind::kString) {
      return Status::ParseError("head.vars entry is not a string");
    }
    out.vars.push_back(var.string);
  }
  for (const JsonValue& row : bindings->array) {
    if (row.kind != JsonValue::Kind::kObject) {
      return Status::ParseError("binding row is not an object");
    }
    std::vector<std::string> decoded;
    decoded.reserve(out.vars.size());
    for (const std::string& var : out.vars) {
      const JsonValue* binding = row.Find(var);
      if (binding == nullptr) {
        return Status::ParseError("row missing binding for ?" + var);
      }
      PROST_ASSIGN_OR_RETURN(rdf::Term term, TermFromBinding(*binding));
      decoded.push_back(term.ToNTriples());
    }
    out.rows.push_back(std::move(decoded));
  }
  return out;
}

Result<SparqlResultSet> SparqlResultWriter::ParseTsv(std::string_view tsv) {
  SparqlResultSet out;
  bool header = true;
  for (const std::string& line : StrSplit(tsv, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> cells = StrSplit(line, '\t');
    if (header) {
      for (std::string& cell : cells) {
        if (cell.empty() || cell[0] != '?') {
          return Status::ParseError("TSV header cell is not a ?var");
        }
        out.vars.push_back(cell.substr(1));
      }
      header = false;
      continue;
    }
    if (cells.size() != out.vars.size()) {
      return Status::ParseError("TSV row width does not match header");
    }
    out.rows.push_back(std::move(cells));
  }
  if (header) return Status::ParseError("empty TSV document");
  return out;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendJsonEscaped(text, &out);
  return out;
}

}  // namespace prost::net
