#ifndef PROST_NET_HTTP_H_
#define PROST_NET_HTTP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

/// A minimal-but-correct HTTP/1.1 layer: exactly the surface the SPARQL
/// protocol endpoint needs, none it does not (no HTTP/2, no chunked
/// *requests*). Requests: request line + headers + Content-Length bodies
/// + keep-alive. Responses: Content-Length bodies, or a streamed body
/// sent as Transfer-Encoding: chunked (HTTP/1.1) or delimited by the
/// connection close (HTTP/1.0). Both parsers are incremental and
/// byte-stream agnostic — the server and client feed them recv(2)
/// fragments, the parser-tier tests feed them hand-torn byte slices with
/// no socket in sight — and every request size limit maps to the HTTP
/// status the RFC assigns (431 for request-line/header overflow, 413 for
/// body overflow).

namespace prost::net {

/// One parsed request. Header names are lowercased at parse time
/// (HTTP/1.1 header names are case-insensitive); values keep their bytes
/// minus surrounding whitespace.
struct HttpRequest {
  std::string method;        // Uppercase verbs as sent: "GET", "POST".
  std::string target;        // Raw request target, e.g. "/sparql?query=…".
  std::string path;          // Target up to '?', percent-decoded.
  std::string query_string;  // Raw bytes after '?' (still encoded).
  std::string version;       // "HTTP/1.1" or "HTTP/1.0".
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Connection semantics after this request: HTTP/1.1 defaults to
  /// keep-alive unless "Connection: close"; HTTP/1.0 the reverse.
  bool keep_alive = true;

  /// First header with this name (lowercase), or nullptr.
  const std::string* FindHeader(std::string_view name) const;
};

/// Parser size limits, each with its own HTTP rejection status.
struct HttpLimits {
  /// Request line (431 when exceeded before the line terminates).
  size_t max_request_line_bytes = 8 * 1024;
  /// Everything up to the blank line (431).
  size_t max_header_bytes = 32 * 1024;
  /// Declared Content-Length (413).
  size_t max_body_bytes = 1024 * 1024;
};

/// A malformed or over-limit request, already classified as the HTTP
/// response it deserves (400 / 411 / 413 / 431 / 501).
struct HttpParseError {
  int http_status = 400;
  std::string message;
};

/// Incremental HTTP/1.1 request parser over a byte stream.
///
///   HttpParser parser;
///   parser.Feed(bytes_from_recv);
///   HttpRequest request;
///   switch (parser.Next(&request)) { ... }
///
/// Feed appends arbitrary fragments (torn anywhere, including mid-token);
/// Next consumes at most one complete request from the buffer per call,
/// leaving pipelined followers buffered for the next call. After kError
/// the stream position is undefined and the connection must be closed
/// (which is what every error here requires anyway).
///
/// NOT thread-safe: one parser per connection, owned by its handler.
class HttpParser {
 public:
  enum class Outcome {
    kRequest,   // *request is complete and consumed from the buffer.
    kNeedMore,  // The buffer holds only a request prefix; Feed more.
    kError,     // Malformed/over-limit; see error().
  };

  HttpParser() = default;
  explicit HttpParser(HttpLimits limits) : limits_(limits) {}

  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  Outcome Next(HttpRequest* request);

  /// Valid after Next returned kError.
  const HttpParseError& error() const { return error_; }

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  Outcome Fail(int http_status, std::string message);

  HttpLimits limits_;
  std::string buffer_;
  HttpParseError error_;
};

/// Receives a streamed response body piece by piece; a non-OK Status
/// stops the producer.
using BodySink = std::function<Status(std::string_view piece)>;

/// How a response body is delimited on the wire.
enum class BodyFraming {
  kContentLength,  // A buffered body, sized up front.
  kChunked,        // A streamed body to an HTTP/1.1 peer.
  kClose,          // A streamed body to an HTTP/1.0 peer, which must not
                   // get chunked (RFC 9112 §7): it ends at the close, so
                   // a stream cut short looks complete to that peer.
};

/// One response to send: either a buffered `body`, or a `stream` that
/// produces the body while it is sent, so the server holds one piece at
/// a time instead of the whole body.
struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// When set, replaces `body`: called once, it passes the body to the
  /// sink in pieces. The head goes out with the first piece, so a failure
  /// before it can still become an error response; a failure after it
  /// can only cut the stream short.
  std::function<Status(const BodySink& emit)> stream;
  bool keep_alive = true;

  void AddHeader(std::string name, std::string value) {
    headers.emplace_back(std::move(name), std::move(value));
  }
  /// Status line, the explicit headers, the framing header
  /// (Content-Length of `body`, or Transfer-Encoding: chunked) and the
  /// Connection header for `keep_alive`, through the blank line.
  std::string Head(BodyFraming framing) const;
};

/// The bytes that frame one piece of a chunked body: the hex size line
/// before it; a CRLF (kCrlf) after it. kLastChunk ends the body.
std::string ChunkSizeLine(size_t bytes);
inline constexpr std::string_view kCrlf = "\r\n";
inline constexpr std::string_view kLastChunk = "0\r\n\r\n";

/// The canonical reason phrase for the status codes this server emits
/// ("OK", "Bad Request", ...); "Unknown" otherwise.
const char* HttpReasonPhrase(int status);

/// The typed Status→HTTP mapping for execution-layer errors (everything
/// the parse/translate/admit/execute pipeline can return):
///
///   kInvalidArgument, kParseError  → 400  (translator message carried)
///   kNotFound                      → 404
///   kDeadlineExceeded              → 408
///   kResourceExhausted             → 429  (per-query budget exhausted)
///   kUnavailable                   → 503  (admission shed / draining;
///                                          callers add Retry-After)
///   anything else                  → 500
int HttpStatusForStatus(const Status& status);

/// Percent-decodes `text` (+ optionally as space, the form-encoding
/// convention). kInvalidArgument on truncated or non-hex escapes.
Result<std::string> PercentDecode(std::string_view text,
                                  bool plus_as_space);

/// Percent-encodes `text` for use as a URI query value (unreserved
/// characters pass through, everything else becomes %XX).
std::string PercentEncode(std::string_view text);

/// Splits an application/x-www-form-urlencoded payload (also the format
/// of a URI query string) into decoded name/value pairs.
Result<std::vector<std::pair<std::string, std::string>>> ParseFormEncoded(
    std::string_view text);

/// Incremental HTTP/1.1 *response* parser (the client side), with the
/// same feeding contract as HttpParser. The status line and headers are
/// parsed once; body bytes then move into the response as they arrive,
/// so each is copied once however the reads are torn. Bodies are framed
/// by Content-Length, by Transfer-Encoding: chunked (chunk extensions
/// ignored, trailers read and discarded), or — with neither — by the
/// connection close (see Finish). 1xx, 204 and 304 responses have no
/// body. After kError every later call returns kError.
class HttpResponseParser {
 public:
  struct Response {
    int status = 0;
    std::string version;
    std::vector<std::pair<std::string, std::string>> headers;  // lowercased
    std::string body;

    const std::string* FindHeader(std::string_view name) const;
  };

  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  /// kRequest is reused to mean "one complete response parsed" (moved
  /// into *response); bytes of a pipelined follower stay buffered.
  HttpParser::Outcome Next(Response* response);

  /// The peer closed the connection. kRequest when that completes a
  /// close-delimited body; kNeedMore when no response had begun (a clean
  /// close between responses); kError when it cut a response short.
  HttpParser::Outcome Finish(Response* response);

  const HttpParseError& error() const { return error_; }

 private:
  enum class Phase {
    kHead,         // Waiting for the status line and headers.
    kLengthBody,   // remaining_ Content-Length bytes to go.
    kUntilClose,   // Close-delimited body: everything until EOF.
    kChunkSize,    // Waiting for a chunk-size line.
    kChunkData,    // remaining_ bytes of the current chunk to go.
    kChunkEnd,     // Waiting for the CRLF after a chunk's data.
    kTrailers,     // After the last chunk: trailer lines, then CRLF.
    kFailed,
  };

  /// Consumes buffered bytes until a response completes (kRequest), the
  /// buffer runs dry (kNeedMore) or the bytes are malformed (kError).
  HttpParser::Outcome Advance();
  /// Parses the head ending at `terminator` and picks the body framing:
  /// kRequest when the response has no body, kNeedMore when one follows.
  HttpParser::Outcome ParseHead(size_t terminator);
  /// Moves up to remaining_ buffered bytes into the body.
  void TakeBody();
  /// The CRLF-terminated line starting at position_: its end, or npos
  /// when it is incomplete. Fails on a bare LF or an overlong line.
  HttpParser::Outcome FindLineEnd(size_t* line_end);
  /// Hands the finished response out and resets for the next one.
  HttpParser::Outcome Complete(Response* response);
  HttpParser::Outcome Fail(std::string message);

  std::string buffer_;
  size_t position_ = 0;  // Bytes of buffer_ already consumed.
  size_t scanned_ = 0;   // Where the search for the head's end resumes.
  Phase phase_ = Phase::kHead;
  size_t remaining_ = 0;
  Response current_;
  HttpParseError error_;
};

}  // namespace prost::net

#endif  // PROST_NET_HTTP_H_
