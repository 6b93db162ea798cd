#ifndef PROST_NET_RESULT_WRITER_H_
#define PROST_NET_RESULT_WRITER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/prost_db.h"
#include "engine/relation.h"
#include "net/http.h"
#include "rdf/sparql_json.h"

/// Result serialization for the SPARQL protocol endpoint: a Relation
/// (projected variables as columns, dictionary-encoded ids as values)
/// becomes SPARQL 1.1 Query Results JSON or TSV, chosen by the request's
/// Accept header. A JSON cell is one copy of its term's binding from the
/// store's rdf::BindingTable, a TSV cell one copy of the dictionary's
/// N-Triples bytes, into one reused buffer, which is handed on in pieces
/// of about kChunkBytes so the server can stream them as HTTP chunks.
/// The inverse parsers exist so tests and the bench can deserialize a
/// response back into lexical rows and compare them row-identically
/// against in-process execution.

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
  /// `db`'s binding table (JSON, built on first use) or dictionary (TSV).
  /// Rows go out chunk by chunk and row by row — the relation's
  /// CollectRows order, the order ProstDb::DecodeRows yields — so a
  /// network client and an in-process caller see identical row
  /// sequences. Each view passed to `emit` is valid only during the call;
  /// a non-OK Status from it stops the write and is returned. JSON
  /// bindings are rdf::AppendBinding's; a virtual integer, which the
  /// table lacks, is encoded when written. kParseError when a cell's term
  /// is one AppendBinding rejects, kNotFound on an id the dictionary
  /// lacks; pieces emitted before the error stay emitted.
  static Status Write(const core::ProstDb& db,
                      const engine::Relation& relation, ResultFormat format,
                      const BodySink& emit);

  /// Write into one string.
  static Result<std::string> Serialize(const core::ProstDb& db,
                                       const engine::Relation& relation,
                                       ResultFormat format);

  /// Parses a SPARQL 1.1 JSON results document (the writer's own output
  /// shape) back into lexical rows. Binding terms are reassembled into
  /// canonical N-Triples. Any malformed input, arrays or objects nested
  /// more than 32 deep included, is kParseError.
  static Result<SparqlResultSet> ParseJson(std::string_view json);

  /// Parses the TSV serialization back into lexical rows. Every cell must
  /// be one N-Triples term and is kept in canonical form; any malformed
  /// cell is kParseError.
  static Result<SparqlResultSet> ParseTsv(std::string_view tsv);
};

/// JSON string escaping, for the server's error bodies and metrics.
using rdf::JsonEscape;

}  // namespace prost::net

#endif  // PROST_NET_RESULT_WRITER_H_
