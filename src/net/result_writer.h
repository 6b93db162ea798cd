#ifndef PROST_NET_RESULT_WRITER_H_
#define PROST_NET_RESULT_WRITER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/prost_db.h"
#include "engine/relation.h"
#include "net/http.h"

/// Result serialization for the SPARQL protocol endpoint: a Relation
/// (projected variables as columns, dictionary-encoded ids as values)
/// becomes SPARQL 1.1 Query Results JSON or TSV, chosen by the request's
/// Accept header. Each cell is written once, straight from the
/// dictionary's N-Triples bytes into one reused buffer, which is handed
/// on in pieces of about kChunkBytes so the server can stream them as
/// HTTP chunks. The inverse parsers exist so tests and the bench can
/// deserialize a response back into lexical rows and compare them
/// row-identically against in-process execution.

namespace prost::net {

enum class ResultFormat {
  kJson,  // application/sparql-results+json (the default).
  kTsv,   // text/tab-separated-values.
};

/// A deserialized result set: variable names plus rows of N-Triples
/// lexical terms ("<iri>", "\"lit\"^^<dt>", "_:b0"), in response order.
struct SparqlResultSet {
  std::vector<std::string> vars;
  std::vector<std::vector<std::string>> rows;
};

class SparqlResultWriter {
 public:
  /// Write hands its buffer to the sink at the first row boundary at or
  /// past this many bytes, so a streamed response holds one chunk, not
  /// the whole body.
  static constexpr size_t kChunkBytes = 64 * 1024;

  /// Content negotiation over the Accept header: the first recognized
  /// media type wins ("application/sparql-results+json" or
  /// "application/json" → JSON; "text/tab-separated-values" → TSV);
  /// anything else — including an absent or wildcard Accept — falls back
  /// to JSON, the format every SPARQL client speaks.
  static ResultFormat Negotiate(std::string_view accept_header);

  static const char* ContentType(ResultFormat format);

  /// Serializes `relation` in `format` into `emit`, looking each id up in
  /// `db`'s dictionary. Rows go out chunk by chunk and row by row — the
  /// relation's CollectRows order, the order ProstDb::DecodeRows yields —
  /// so a network client and an in-process caller see identical row
  /// sequences. Each view passed to `emit` is valid only during the call;
  /// a non-OK Status from it stops the write and is returned. JSON
  /// bindings come straight from the N-Triples form: an IRI or blank node
  /// loses its `<>` or `_:`, and a literal body keeps its escapes
  /// (\" \\ \n \r \t are JSON escapes too) while raw control bytes are
  /// escaped. kParseError on any other backslash escape or an
  /// unrecognized term, kNotFound on an id the dictionary lacks; pieces
  /// emitted before the error stay emitted.
  static Status Write(const core::ProstDb& db,
                      const engine::Relation& relation, ResultFormat format,
                      const BodySink& emit);

  /// Write into one string.
  static Result<std::string> Serialize(const core::ProstDb& db,
                                       const engine::Relation& relation,
                                       ResultFormat format);

  /// Parses a SPARQL 1.1 JSON results document (the writer's own output
  /// shape) back into lexical rows. Binding terms are reassembled into
  /// canonical N-Triples.
  static Result<SparqlResultSet> ParseJson(std::string_view json);

  /// Parses the TSV serialization back into lexical rows.
  static Result<SparqlResultSet> ParseTsv(std::string_view tsv);
};

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslash, control characters). UTF-8 passes through untouched.
std::string JsonEscape(std::string_view text);

}  // namespace prost::net

#endif  // PROST_NET_RESULT_WRITER_H_
