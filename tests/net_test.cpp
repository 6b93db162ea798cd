// Tests for the SPARQL protocol endpoint (src/net/), in three tiers:
//
//  1. Parser tier — the HTTP/1.1 request and response parsers driven by
//     an in-memory byte stream (no sockets anywhere): table-driven
//     malformed/over-limit rejections, torn reads split at every byte
//     boundary, pipelined requests and chunked responses, keep-alive
//     semantics, a seeded mutation fuzz of the response parser,
//     percent/form decoding, the typed Status→HTTP map, and
//     Accept-header negotiation.
//
//  2. Writer tier — SparqlResultWriter against the decode → re-parse
//     serializer it replaced, kept here as a byte-exact oracle: escapes,
//     language tags, datatypes, blank nodes, COUNT's virtual integers,
//     chunk boundaries and the errors ParseTerm gives.
//
//  3. Loopback tier — a real net::Server on an ephemeral port over a
//     WatDiv fixture, queried through net::Client: every WatDiv basic
//     query must come back row-identical (JSON and TSV) to in-process
//     ProstDb execution, a large result streams as chunks (and
//     close-delimited to HTTP/1.0) that join to Serialize's bytes, a
//     failure after the head cuts the stream while one before it is a
//     500, four concurrent clients stay correct, admission overflow
//     surfaces as 503 + Retry-After, and a graceful drain finishes
//     in-flight responses while 503ing late requests.
//
// Runs under the TSan CI leg (label `net`): the acceptor + handler pool +
// concurrent clients double as a data-race probe on the net layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "core/prost_db.h"
#include "engine/relation.h"
#include "net/client.h"
#include "net/http.h"
#include "net/result_writer.h"
#include "net/server.h"
#include "net/socket.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "serve/session_manager.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost {
namespace {

using net::HttpLimits;
using net::HttpParser;
using net::HttpRequest;
using net::HttpResponse;
using net::HttpResponseParser;
using net::ResultFormat;
using net::SparqlResultSet;
using net::SparqlResultWriter;

// ------------------------------------------------------------ parser tier

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpParser parser;
  parser.Feed(
      "GET /sparql?query=SELECT%20x HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "ACCEPT: text/tab-separated-values\r\n"
      "\r\n");
  HttpRequest request;
  ASSERT_EQ(parser.Next(&request), HttpParser::Outcome::kRequest);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/sparql");
  EXPECT_EQ(request.query_string, "query=SELECT%20x");
  EXPECT_EQ(request.version, "HTTP/1.1");
  // Header names are lowercased; values keep their bytes.
  ASSERT_NE(request.FindHeader("accept"), nullptr);
  EXPECT_EQ(*request.FindHeader("accept"), "text/tab-separated-values");
  EXPECT_TRUE(request.keep_alive);  // HTTP/1.1 default.
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_EQ(parser.Next(&request), HttpParser::Outcome::kNeedMore);
}

TEST(HttpParserTest, TornReadsSplitAtEveryByteBoundary) {
  const std::string body = "SELECT * WHERE { ?s ?p ?o }";
  const std::string full =
      "POST /sparql HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  for (size_t split = 1; split < full.size(); ++split) {
    HttpParser parser;
    HttpRequest request;
    parser.Feed(std::string_view(full).substr(0, split));
    // A prefix must never produce a request or an error.
    ASSERT_EQ(parser.Next(&request), HttpParser::Outcome::kNeedMore)
        << "split at " << split;
    parser.Feed(std::string_view(full).substr(split));
    ASSERT_EQ(parser.Next(&request), HttpParser::Outcome::kRequest)
        << "split at " << split;
    EXPECT_EQ(request.method, "POST");
    EXPECT_EQ(request.body, body);
  }
  // Byte-at-a-time: the cruellest peer.
  HttpParser parser;
  HttpRequest request;
  for (size_t i = 0; i + 1 < full.size(); ++i) {
    parser.Feed(std::string_view(full).substr(i, 1));
    ASSERT_EQ(parser.Next(&request), HttpParser::Outcome::kNeedMore)
        << "byte " << i;
  }
  parser.Feed(std::string_view(full).substr(full.size() - 1));
  ASSERT_EQ(parser.Next(&request), HttpParser::Outcome::kRequest);
  EXPECT_EQ(request.body, body);
}

TEST(HttpParserTest, PipelinedSecondRequestStaysBuffered) {
  HttpParser parser;
  parser.Feed(
      "GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n"
      "\r\n"  // Stray CRLF between pipelined requests is tolerated.
      "GET /metrics HTTP/1.1\r\nHost: a\r\n\r\n");
  HttpRequest request;
  ASSERT_EQ(parser.Next(&request), HttpParser::Outcome::kRequest);
  EXPECT_EQ(request.path, "/healthz");
  EXPECT_GT(parser.buffered_bytes(), 0u);
  ASSERT_EQ(parser.Next(&request), HttpParser::Outcome::kRequest);
  EXPECT_EQ(request.path, "/metrics");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(HttpParserTest, KeepAliveSemanticsByVersion) {
  struct Case {
    const char* name;
    const char* wire;
    bool keep_alive;
  };
  const Case kCases[] = {
      {"Http11Default", "GET / HTTP/1.1\r\nHost: a\r\n\r\n", true},
      {"Http11Close",
       "GET / HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n", false},
      {"Http11CloseTokenList",
       "GET / HTTP/1.1\r\nHost: a\r\nConnection: foo, Close\r\n\r\n", false},
      {"Http10Default", "GET / HTTP/1.0\r\nHost: a\r\n\r\n", false},
      {"Http10KeepAlive",
       "GET / HTTP/1.0\r\nHost: a\r\nConnection: keep-alive\r\n\r\n", true},
  };
  for (const Case& c : kCases) {
    HttpParser parser;
    parser.Feed(c.wire);
    HttpRequest request;
    ASSERT_EQ(parser.Next(&request), HttpParser::Outcome::kRequest) << c.name;
    EXPECT_EQ(request.keep_alive, c.keep_alive) << c.name;
  }
}

TEST(HttpParserTest, TableOfRejections) {
  struct Case {
    const char* name;
    std::string wire;
    int http_status;
  };
  const std::string long_target(9000, 'a');
  const std::string long_header(40000, 'h');
  std::vector<Case> cases = {
      {"TwoTokenRequestLine", "GET /\r\nHost: a\r\n\r\n", 400},
      {"FourTokenRequestLine", "GET / HTTP/1.1 extra\r\nHost: a\r\n\r\n",
       400},
      {"UnknownVersion", "GET / HTTP/2.0\r\nHost: a\r\n\r\n", 505},
      {"HeaderWithoutColon", "GET / HTTP/1.1\r\nHost a\r\n\r\n", 400},
      {"ObsoleteFolding",
       "GET / HTTP/1.1\r\nHost: a\r\n folded\r\n\r\n", 400},
      {"PostWithoutContentLength",
       "POST /sparql HTTP/1.1\r\nHost: a\r\n\r\n", 411},
      {"MalformedContentLength",
       "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 12x\r\n\r\n", 400},
      {"TransferEncoding",
       "POST / HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n",
       501},
      {"BodyOverLimit",
       "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 99999999\r\n\r\n",
       413},
      {"BadPercentEscapeInPath",
       "GET /spar%zzql HTTP/1.1\r\nHost: a\r\n\r\n", 400},
      // Request line too long — even before its CRLF ever arrives.
      {"OversizedRequestLine", "GET /" + long_target, 431},
      {"OversizedHeaderBlock",
       "GET / HTTP/1.1\r\nX-Big: " + long_header + "\r\n\r\n", 431},
  };
  for (const Case& c : cases) {
    HttpParser parser;
    parser.Feed(c.wire);
    HttpRequest request;
    ASSERT_EQ(parser.Next(&request), HttpParser::Outcome::kError) << c.name;
    EXPECT_EQ(parser.error().http_status, c.http_status)
        << c.name << ": " << parser.error().message;
    EXPECT_FALSE(parser.error().message.empty()) << c.name;
  }
}

TEST(HttpParserTest, CustomLimitsAreHonored) {
  HttpLimits limits;
  limits.max_body_bytes = 8;
  HttpParser parser(limits);
  parser.Feed("POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 9\r\n\r\n");
  HttpRequest request;
  ASSERT_EQ(parser.Next(&request), HttpParser::Outcome::kError);
  EXPECT_EQ(parser.error().http_status, 413);
}

TEST(HttpResponseTest, SerializeRoundTripsThroughResponseParser) {
  HttpResponse response;
  response.status = 429;
  response.AddHeader("Content-Type", "application/json");
  response.AddHeader("Retry-After", "1");
  response.body = "{\"error\":{}}";
  response.keep_alive = false;

  HttpResponseParser parser;
  parser.Feed(response.Head(net::BodyFraming::kContentLength));
  parser.Feed(response.body);
  HttpResponseParser::Response parsed;
  ASSERT_EQ(parser.Next(&parsed), HttpParser::Outcome::kRequest);
  EXPECT_EQ(parsed.status, 429);
  EXPECT_EQ(parsed.body, response.body);
  ASSERT_NE(parsed.FindHeader("retry-after"), nullptr);
  ASSERT_NE(parsed.FindHeader("content-length"), nullptr);
  EXPECT_EQ(*parsed.FindHeader("content-length"),
            std::to_string(response.body.size()));
  ASSERT_NE(parsed.FindHeader("connection"), nullptr);
  EXPECT_EQ(*parsed.FindHeader("connection"), "close");
}

/// A chunked response with a chunk extension and a trailer field.
const std::string kChunkedResponse =
    "HTTP/1.1 200 OK\r\n"
    "Content-Type: text/plain\r\n"
    "Transfer-Encoding: chunked\r\n"
    "\r\n"
    "5;name=value\r\nhello\r\n"
    "7\r\n, world\r\n"
    "0\r\n"
    "X-Checksum: 1\r\n"
    "\r\n";

TEST(HttpResponseParserTest, ChunkedResponseSplitAtEveryByteBoundary) {
  const std::string& full = kChunkedResponse;
  for (size_t split = 1; split < full.size(); ++split) {
    HttpResponseParser parser;
    HttpResponseParser::Response response;
    parser.Feed(std::string_view(full).substr(0, split));
    ASSERT_EQ(parser.Next(&response), HttpParser::Outcome::kNeedMore)
        << "split at " << split;
    parser.Feed(std::string_view(full).substr(split));
    ASSERT_EQ(parser.Next(&response), HttpParser::Outcome::kRequest)
        << "split at " << split << ": " << parser.error().message;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "hello, world") << "split at " << split;
    ASSERT_NE(response.FindHeader("content-type"), nullptr);
  }
  HttpResponseParser parser;
  HttpResponseParser::Response response;
  for (size_t i = 0; i + 1 < full.size(); ++i) {
    parser.Feed(std::string_view(full).substr(i, 1));
    ASSERT_EQ(parser.Next(&response), HttpParser::Outcome::kNeedMore)
        << "byte " << i;
  }
  parser.Feed(std::string_view(full).substr(full.size() - 1));
  ASSERT_EQ(parser.Next(&response), HttpParser::Outcome::kRequest);
  EXPECT_EQ(response.body, "hello, world");
}

TEST(HttpResponseParserTest, PipelinedChunkedResponses) {
  HttpResponseParser parser;
  parser.Feed(kChunkedResponse +
              "HTTP/1.1 503 Service Unavailable\r\n"
              "Transfer-Encoding: gzip, chunked\r\n\r\n"
              "3\r\nbye\r\n0\r\n\r\n");
  HttpResponseParser::Response response;
  ASSERT_EQ(parser.Next(&response), HttpParser::Outcome::kRequest);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "hello, world");
  ASSERT_EQ(parser.Next(&response), HttpParser::Outcome::kRequest)
      << parser.error().message;
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(response.body, "bye");
  EXPECT_EQ(parser.Next(&response), HttpParser::Outcome::kNeedMore);
  // Both consumed: the peer closing now is a clean end.
  EXPECT_EQ(parser.Finish(&response), HttpParser::Outcome::kNeedMore);
}

TEST(HttpResponseParserTest, MalformedChunkFramingIsRejected) {
  const std::string head =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
  const std::pair<const char*, std::string> kCases[] = {
      {"NonHexSize", head + "5g\r\nhello\r\n0\r\n\r\n"},
      {"NoSizeDigits", head + ";ext\r\nhello\r\n0\r\n\r\n"},
      {"OverflowingSize",
       head + "1000000000000000000000\r\nhello\r\n0\r\n\r\n"},
      {"MissingCrlfAfterData", head + "5\r\nhelloX\r\n0\r\n\r\n"},
      {"BareLfSizeLine", head + "5\nhello\r\n0\r\n\r\n"},
      {"UnsupportedCoding",
       "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nxx"},
      {"MalformedContentLength",
       "HTTP/1.1 200 OK\r\nContent-Length: 1x\r\n\r\nx"},
      {"MalformedStatusCode", "HTTP/1.1 2x0 OK\r\n\r\n"},
  };
  for (const auto& [name, wire] : kCases) {
    HttpResponseParser parser;
    parser.Feed(wire);
    HttpResponseParser::Response response;
    ASSERT_EQ(parser.Next(&response), HttpParser::Outcome::kError) << name;
    EXPECT_FALSE(parser.error().message.empty()) << name;
    // The error is sticky: the stream position is lost for good.
    EXPECT_EQ(parser.Next(&response), HttpParser::Outcome::kError) << name;
    EXPECT_EQ(parser.Finish(&response), HttpParser::Outcome::kError) << name;
  }
}

TEST(HttpResponseParserTest, CloseDelimitedBodyEndsAtFinish) {
  HttpResponseParser parser;
  parser.Feed("HTTP/1.0 200 OK\r\nConnection: close\r\n\r\nall of ");
  HttpResponseParser::Response response;
  ASSERT_EQ(parser.Next(&response), HttpParser::Outcome::kNeedMore);
  parser.Feed("it");
  ASSERT_EQ(parser.Finish(&response), HttpParser::Outcome::kRequest);
  EXPECT_EQ(response.version, "HTTP/1.0");
  EXPECT_EQ(response.body, "all of it");

  // EOF anywhere inside a framed response cuts it short.
  const std::string cut[] = {
      "HTTP/1.1 200 OK\r\nContent-Le",
      "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
      kChunkedResponse.substr(0, kChunkedResponse.size() - 2),
  };
  for (const std::string& wire : cut) {
    HttpResponseParser truncated;
    truncated.Feed(wire);
    ASSERT_EQ(truncated.Next(&response), HttpParser::Outcome::kNeedMore)
        << wire;
    EXPECT_EQ(truncated.Finish(&response), HttpParser::Outcome::kError)
        << wire;
  }
  // A body-less status needs no framing at all.
  HttpResponseParser no_body;
  no_body.Feed("HTTP/1.1 204 No Content\r\n\r\n");
  ASSERT_EQ(no_body.Next(&response), HttpParser::Outcome::kRequest);
  EXPECT_EQ(response.status, 204);
  EXPECT_EQ(response.body, "");
}

/// Seeded mutation fuzzing: bit flips, truncations and random feed splits
/// of well-formed responses. Every case must end in a parsed response or
/// kError — never a crash, a sanitizer report, or a loop that does not
/// end.
TEST(HttpResponseParserTest, SeededMutationsParseOrFail) {
  const std::string kSeeds[] = {
      kChunkedResponse,
      "HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n"
      "Connection: keep-alive\r\n\r\nnot found",
      kChunkedResponse + "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
      "HTTP/1.0 200 OK\r\nConnection: close\r\n\r\nbody until close",
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "a\r\n0123456789\r\n1;x=\"y\"\r\n!\r\n0\r\n\r\n",
  };
  std::mt19937_64 rng(20240917);
  auto below = [&rng](size_t n) {
    return static_cast<size_t>(rng() % std::max<size_t>(n, 1));
  };
  size_t parsed_responses = 0;
  size_t errors = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string wire = kSeeds[below(std::size(kSeeds))];
    switch (round % 3) {
      case 0:  // Bit flips.
        for (size_t flips = 1 + below(4); flips > 0; --flips) {
          wire[below(wire.size())] ^= static_cast<char>(1 << below(8));
        }
        break;
      case 1:  // Truncation.
        wire.resize(below(wire.size()));
        break;
      default:  // Feed splits alone.
        break;
    }
    HttpResponseParser parser;
    HttpResponseParser::Response response;
    HttpParser::Outcome outcome = HttpParser::Outcome::kNeedMore;
    size_t offset = 0;
    while (offset < wire.size() && outcome != HttpParser::Outcome::kError) {
      const size_t piece = 1 + below(wire.size() - offset);
      parser.Feed(std::string_view(wire).substr(offset, piece));
      offset += piece;
      // Each kRequest consumes a head of at least four bytes, so a
      // well-behaved parser returns something else within this bound.
      for (size_t calls = 0;; ++calls) {
        ASSERT_LT(calls, wire.size()) << "round " << round;
        outcome = parser.Next(&response);
        if (outcome != HttpParser::Outcome::kRequest) break;
        ++parsed_responses;
        EXPECT_GE(response.status, 0);
        EXPECT_LE(response.status, 999);
      }
    }
    if (outcome != HttpParser::Outcome::kError) {
      outcome = parser.Finish(&response);
      if (outcome == HttpParser::Outcome::kRequest) ++parsed_responses;
    }
    if (outcome == HttpParser::Outcome::kError) {
      ++errors;
      EXPECT_FALSE(parser.error().message.empty()) << "round " << round;
    }
  }
  // The corpus exercises both sides of the contract.
  EXPECT_GT(parsed_responses, 1000u);
  EXPECT_GT(errors, 500u);
}

TEST(HttpUtilTest, PercentAndFormDecoding) {
  auto decoded = net::PercentDecode("a%20b%2Fc", false);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, "a b/c");
  // '+' is a space only in form-encoding mode.
  EXPECT_EQ(*net::PercentDecode("a+b", true), "a b");
  EXPECT_EQ(*net::PercentDecode("a+b", false), "a+b");
  EXPECT_FALSE(net::PercentDecode("bad%2", false).ok());
  EXPECT_FALSE(net::PercentDecode("bad%zz", false).ok());

  auto params = net::ParseFormEncoded("query=SELECT+%2A&limit=10");
  ASSERT_TRUE(params.ok());
  ASSERT_EQ(params->size(), 2u);
  EXPECT_EQ((*params)[0].first, "query");
  EXPECT_EQ((*params)[0].second, "SELECT *");
  EXPECT_EQ((*params)[1].first, "limit");

  // Encode → decode round trip over every byte value worth worrying about.
  const std::string nasty = "a b&c=d?e#f%g\th\nij+k";
  EXPECT_EQ(*net::PercentDecode(net::PercentEncode(nasty), false), nasty);
}

TEST(HttpUtilTest, StatusToHttpMapping) {
  const std::pair<Status, int> kCases[] = {
      {Status::InvalidArgument("x"), 400},
      {Status::ParseError("x"), 400},
      {Status::NotFound("x"), 404},
      {Status::DeadlineExceeded("x"), 408},
      {Status::ResourceExhausted("x"), 429},
      {Status::Unavailable("x"), 503},
      {Status::Internal("x"), 500},
      {Status::IOError("x"), 500},
      {Status::Corruption("x"), 500},
  };
  for (const auto& [status, http] : kCases) {
    EXPECT_EQ(net::HttpStatusForStatus(status), http) << status;
  }
}

TEST(ResultWriterTest, NegotiationPrefersFirstRecognizedMediaType) {
  EXPECT_EQ(SparqlResultWriter::Negotiate(""), ResultFormat::kJson);
  EXPECT_EQ(SparqlResultWriter::Negotiate("*/*"), ResultFormat::kJson);
  EXPECT_EQ(SparqlResultWriter::Negotiate("application/json"),
            ResultFormat::kJson);
  EXPECT_EQ(
      SparqlResultWriter::Negotiate("application/sparql-results+json"),
      ResultFormat::kJson);
  EXPECT_EQ(SparqlResultWriter::Negotiate("text/tab-separated-values"),
            ResultFormat::kTsv);
  EXPECT_EQ(SparqlResultWriter::Negotiate(
                "text/html, text/tab-separated-values;q=0.9"),
            ResultFormat::kTsv);
  // Unknown media types fall back to JSON, never an error.
  EXPECT_EQ(SparqlResultWriter::Negotiate("application/xml"),
            ResultFormat::kJson);
}

TEST(ResultWriterTest, ParseJsonRebuildsTypedTerms) {
  const std::string doc =
      "{\"head\":{\"vars\":[\"s\",\"o\"]},\"results\":{\"bindings\":["
      "{\"s\":{\"type\":\"uri\",\"value\":\"http://x/a\"},"
      "\"o\":{\"type\":\"literal\",\"value\":\"hi\\tthere\","
      "\"datatype\":\"http://www.w3.org/2001/XMLSchema#string\"}},"
      "{\"s\":{\"type\":\"bnode\",\"value\":\"b0\"},"
      "\"o\":{\"type\":\"literal\",\"value\":\"bonjour\","
      "\"xml:lang\":\"fr\"}}]}}";
  auto parsed = SparqlResultWriter::ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->vars, (std::vector<std::string>{"s", "o"}));
  ASSERT_EQ(parsed->rows.size(), 2u);
  EXPECT_EQ(parsed->rows[0][0], "<http://x/a>");
  EXPECT_EQ(parsed->rows[0][1],
            "\"hi\\tthere\"^^<http://www.w3.org/2001/XMLSchema#string>");
  EXPECT_EQ(parsed->rows[1][0], "_:b0");
  EXPECT_EQ(parsed->rows[1][1], "\"bonjour\"@fr");

  EXPECT_FALSE(SparqlResultWriter::ParseJson("{\"head\":{}}").ok());
  EXPECT_FALSE(SparqlResultWriter::ParseJson("not json").ok());
}

TEST(ResultWriterTest, ParseTsvRoundTrip) {
  const std::string doc =
      "?s\t?o\n"
      "<http://x/a>\t\"v\"\n"
      "_:b0\t\"2\"^^<http://www.w3.org/2001/XMLSchema#integer>\n";
  auto parsed = SparqlResultWriter::ParseTsv(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->vars, (std::vector<std::string>{"s", "o"}));
  ASSERT_EQ(parsed->rows.size(), 2u);
  EXPECT_EQ(parsed->rows[1][1],
            "\"2\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_FALSE(SparqlResultWriter::ParseTsv("").ok());
  EXPECT_FALSE(SparqlResultWriter::ParseTsv("?s\n<a>\t<b>\n").ok());
}

// ------------------------------------------------------------ writer tier

/// The serializer this layer used before it wrote cells straight from
/// dictionary bytes: decode every row to N-Triples strings, parse each
/// cell back into a Term, and format that. Kept as the oracle the direct
/// writer must match byte for byte.
std::string OracleBinding(const rdf::Term& term) {
  switch (term.kind) {
    case rdf::TermKind::kIri:
      return StrFormat("{\"type\":\"uri\",\"value\":\"%s\"}",
                       net::JsonEscape(term.value).c_str());
    case rdf::TermKind::kBlank:
      return StrFormat("{\"type\":\"bnode\",\"value\":\"%s\"}",
                       net::JsonEscape(term.value).c_str());
    case rdf::TermKind::kLiteral:
      if (!term.language.empty()) {
        return StrFormat(
            "{\"type\":\"literal\",\"value\":\"%s\",\"xml:lang\":\"%s\"}",
            net::JsonEscape(term.value).c_str(),
            net::JsonEscape(term.language).c_str());
      }
      if (!term.datatype.empty()) {
        return StrFormat(
            "{\"type\":\"literal\",\"value\":\"%s\",\"datatype\":\"%s\"}",
            net::JsonEscape(term.value).c_str(),
            net::JsonEscape(term.datatype).c_str());
      }
      return StrFormat("{\"type\":\"literal\",\"value\":\"%s\"}",
                       net::JsonEscape(term.value).c_str());
    case rdf::TermKind::kVariable:
      break;
  }
  return "{\"type\":\"literal\",\"value\":\"\"}";
}

Result<std::string> OracleSerialize(const core::ProstDb& db,
                                    const engine::Relation& relation,
                                    ResultFormat format) {
  PROST_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> rows,
                         db.DecodeRows(relation));
  const std::vector<std::string>& vars = relation.column_names();
  std::string out;
  if (format == ResultFormat::kTsv) {
    for (size_t c = 0; c < vars.size(); ++c) {
      out += (c == 0 ? "?" : "\t?") + vars[c];
    }
    out += "\n";
    for (const std::vector<std::string>& row : rows) {
      for (size_t c = 0; c < row.size(); ++c) {
        out += (c == 0 ? "" : "\t") + row[c];
      }
      out += "\n";
    }
    return out;
  }
  out = "{\"head\":{\"vars\":[";
  for (size_t c = 0; c < vars.size(); ++c) {
    out += (c == 0 ? "\"" : ",\"") + net::JsonEscape(vars[c]) + "\"";
  }
  out += "]},\"results\":{\"bindings\":[";
  for (size_t r = 0; r < rows.size(); ++r) {
    out += r == 0 ? "{" : ",{";
    for (size_t c = 0; c < vars.size(); ++c) {
      PROST_ASSIGN_OR_RETURN(rdf::Term term, rdf::ParseTerm(rows[r][c]));
      out += (c == 0 ? "\"" : ",\"") + net::JsonEscape(vars[c]) +
             "\":" + OracleBinding(term);
    }
    out += "}";
  }
  out += "]}}";
  return out;
}

/// Both formats of `relation` serialize byte-identically to the oracle.
void ExpectMatchesOracle(const core::ProstDb& db,
                         const engine::Relation& relation,
                         const std::string& label) {
  for (ResultFormat format : {ResultFormat::kJson, ResultFormat::kTsv}) {
    auto oracle = OracleSerialize(db, relation, format);
    ASSERT_TRUE(oracle.ok()) << label << ": " << oracle.status();
    auto direct = SparqlResultWriter::Serialize(db, relation, format);
    ASSERT_TRUE(direct.ok()) << label << ": " << direct.status();
    EXPECT_EQ(*direct, *oracle) << label;
  }
}

using SharedGraph = std::shared_ptr<const rdf::EncodedGraph>;

/// A db with one simulated worker, so every result is one chunk in
/// storage order.
std::unique_ptr<core::ProstDb> OneWorkerDb(rdf::EncodedGraph graph) {
  graph.SortAndDedupe();
  core::ProstDb::Options options;
  options.cluster.num_workers = 1;
  auto db = core::ProstDb::LoadFromSharedGraph(
      std::make_shared<const rdf::EncodedGraph>(std::move(graph)), options);
  EXPECT_TRUE(db.ok()) << db.status();
  return db.ok() ? std::move(db).value() : nullptr;
}

TEST(ResultWriterTest, MatchesOracleOnEscapesTagsDatatypesAndBlankNodes) {
  using rdf::Term;
  rdf::EncodedGraph graph;
  const Term p = Term::Iri("p");
  const Term objects[] = {
      Term::Literal("quote \" backslash \\ nl \n cr \r tab \t end"),
      Term::Literal("bell \b formfeed \f one \x01 unit \x1f end"),
      Term::Literal("\xC3\xBC" "nic\xC3\xB6" "de \xE2\x9C\x93 \xE6\x97\xA5"),
      Term::LangLiteral("bonjour", "fr-CA"),
      Term::TypedLiteral("7", "http://www.w3.org/2001/XMLSchema#integer"),
      Term::TypedLiteral("a\tb", "http://x/dt?q=\"1\""),
      Term::Iri("http://x/o?a=\"q\"&b=\\"),
      Term::Blank("b1"),
  };
  for (size_t i = 0; i < std::size(objects); ++i) {
    graph.Add({Term::Iri("s" + std::to_string(i)), p, objects[i]});
  }
  graph.Add({Term::Blank("b0"), p, Term::Literal("")});
  std::unique_ptr<core::ProstDb> db = OneWorkerDb(std::move(graph));
  ASSERT_NE(db, nullptr);

  for (const char* query :
       {"SELECT ?s ?o WHERE { ?s <p> ?o . }",
        "SELECT (COUNT(*) AS ?n) WHERE { ?s <p> ?o . }"}) {
    auto result = db->ExecuteSparql(query);
    ASSERT_TRUE(result.ok()) << query << ": " << result.status();
    ExpectMatchesOracle(*db, result->relation, query);
  }
  // Spot checks that pin the JSON itself, not just agreement.
  auto all = db->ExecuteSparql("SELECT ?s ?o WHERE { ?s <p> ?o . }");
  ASSERT_TRUE(all.ok()) << all.status();
  auto json =
      SparqlResultWriter::Serialize(*db, all->relation, ResultFormat::kJson);
  ASSERT_TRUE(json.ok()) << json.status();
  for (const char* fragment : {
           R"("value":"quote \" backslash \\ nl \n cr \r tab \t end")",
           R"("value":"bell \b formfeed \f one \u0001 unit \u001f end")",
           R"({"type":"literal","value":"bonjour","xml:lang":"fr-CA"})",
           R"("datatype":"http://x/dt?q=\"1\"")",
           R"({"type":"uri","value":"http://x/o?a=\"q\"&b=\\"})",
           R"({"type":"bnode","value":"b1"})",
       }) {
    EXPECT_NE(json->find(fragment), std::string::npos) << fragment;
  }
  auto count = db->ExecuteSparql(
      "SELECT (COUNT(*) AS ?n) WHERE { ?s <p> ?o . }");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*SparqlResultWriter::Serialize(*db, count->relation,
                                           ResultFormat::kJson),
            R"({"head":{"vars":["n"]},"results":{"bindings":[{"n":)"
            R"({"type":"literal","value":"9","datatype":)"
            R"("http://www.w3.org/2001/XMLSchema#integer"}}]}})");
}

TEST(ResultWriterTest, RejectsWhatTheTermParserRejects) {
  rdf::EncodedGraph graph;
  rdf::Dictionary& dictionary = graph.mutable_dictionary();
  graph.AddEncoded({dictionary.InternTerm(rdf::Term::Iri("s")),
                    dictionary.InternTerm(rdf::Term::Iri("p")),
                    dictionary.Intern("\"unknown \\q escape\"")});
  std::unique_ptr<core::ProstDb> db = OneWorkerDb(std::move(graph));
  ASSERT_NE(db, nullptr);
  auto result = db->ExecuteSparql("SELECT ?o WHERE { ?s <p> ?o . }");
  ASSERT_TRUE(result.ok()) << result.status();
  auto json =
      SparqlResultWriter::Serialize(*db, result->relation, ResultFormat::kJson);
  EXPECT_EQ(json.status().code(), StatusCode::kParseError) << json.status();
  // TSV cells are N-Triples already: the bytes go out as stored.
  auto tsv =
      SparqlResultWriter::Serialize(*db, result->relation, ResultFormat::kTsv);
  ASSERT_TRUE(tsv.ok()) << tsv.status();
  EXPECT_EQ(*tsv, "?o\n\"unknown \\q escape\"\n");

  const engine::Relation unknown =
      engine::Relation::FromRows({"x"}, {{rdf::TermId{12345}}}, 1);
  for (ResultFormat format : {ResultFormat::kJson, ResultFormat::kTsv}) {
    EXPECT_EQ(SparqlResultWriter::Serialize(*db, unknown, format)
                  .status()
                  .code(),
              StatusCode::kNotFound);
  }
}

/// `rows` subjects with ~100-byte literal objects under <big>, then one
/// subject <z> whose <big> and <small> objects carry an escape N-Triples
/// lacks: JSON output fails on that row, after several writer chunks for
/// <big> and before any for <small>.
std::unique_ptr<core::ProstDb> BadLastRowDb(int rows) {
  rdf::EncodedGraph graph;
  for (int i = 0; i < rows; ++i) {
    graph.Add({rdf::Term::Iri(StrFormat("s%05d", i)), rdf::Term::Iri("big"),
               rdf::Term::Literal(std::string(100, 'x') +
                                  std::to_string(i))});
  }
  rdf::Dictionary& dictionary = graph.mutable_dictionary();
  const rdf::TermId z = dictionary.InternTerm(rdf::Term::Iri("z"));
  const rdf::TermId bad = dictionary.Intern("\"bad \\q\"");
  graph.AddEncoded({z, dictionary.InternTerm(rdf::Term::Iri("big")), bad});
  graph.AddEncoded({z, dictionary.InternTerm(rdf::Term::Iri("small")), bad});
  return OneWorkerDb(std::move(graph));
}

TEST(ResultWriterTest, WriteEmitsWholeRowsInChunksOfAtLeastChunkBytes) {
  std::unique_ptr<core::ProstDb> db = BadLastRowDb(3000);
  ASSERT_NE(db, nullptr);
  auto result = db->ExecuteSparql(
      "SELECT ?s ?o WHERE { ?s <big> ?o . FILTER(?s != <z>) }");
  ASSERT_TRUE(result.ok()) << result.status();
  for (ResultFormat format : {ResultFormat::kJson, ResultFormat::kTsv}) {
    std::vector<std::string> pieces;
    Status written = SparqlResultWriter::Write(
        *db, result->relation, format, [&](std::string_view piece) {
          pieces.emplace_back(piece);
          return Status::OK();
        });
    ASSERT_TRUE(written.ok()) << written;
    ASSERT_GT(pieces.size(), 3u);
    std::string joined;
    for (size_t i = 0; i < pieces.size(); ++i) {
      if (i + 1 < pieces.size()) {
        // Whole rows: every piece but the last ends where a row ends.
        EXPECT_GE(pieces[i].size(), SparqlResultWriter::kChunkBytes);
        EXPECT_LT(pieces[i].size(), SparqlResultWriter::kChunkBytes + 512);
        EXPECT_EQ(pieces[i].back(), format == ResultFormat::kJson ? '}' : '\n');
      }
      joined += pieces[i];
    }
    EXPECT_EQ(joined, *SparqlResultWriter::Serialize(*db, result->relation,
                                                     format));
    ExpectMatchesOracle(*db, result->relation, "big");
  }

  // A failing row stops the write; what was emitted before it stays.
  auto with_bad = db->ExecuteSparql("SELECT ?s ?o WHERE { ?s <big> ?o . }");
  ASSERT_TRUE(with_bad.ok()) << with_bad.status();
  size_t emitted = 0;
  Status failed = SparqlResultWriter::Write(
      *db, with_bad->relation, ResultFormat::kJson,
      [&](std::string_view piece) {
        emitted += piece.size();
        return Status::OK();
      });
  EXPECT_EQ(failed.code(), StatusCode::kParseError) << failed;
  EXPECT_GE(emitted, 3 * SparqlResultWriter::kChunkBytes);
  // A failing sink stops it too, and its status comes back.
  int calls = 0;
  Status refused = SparqlResultWriter::Write(
      *db, with_bad->relation, ResultFormat::kTsv, [&](std::string_view) {
        ++calls;
        return Status::IOError("sink closed");
      });
  EXPECT_EQ(refused.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------- loopback tier

std::unique_ptr<core::ProstDb> MakeDb(const SharedGraph& graph,
                                      uint32_t num_threads) {
  core::ProstDb::Options options;
  options.exec.num_threads = num_threads;
  auto db = core::ProstDb::LoadFromSharedGraph(graph, options);
  EXPECT_TRUE(db.ok()) << db.status();
  return db.ok() ? std::move(db).value() : nullptr;
}

/// Bounded wait for an externally-driven condition. Generous deadline:
/// sanitizer builds are slow.
bool WaitUntil(const std::function<bool()>& pred) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

class NetEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    watdiv::WatDivConfig config;
    config.target_triples = 20000;
    config.seed = 11;
    watdiv::WatDivDataset dataset = watdiv::Generate(config);
    dataset.graph.SortAndDedupe();
    graph_ =
        std::make_shared<const rdf::EncodedGraph>(std::move(dataset.graph));
    watdiv::WatDivDataset sizing_only;  // Queries depend only on IRIs.
    raw_queries_ = watdiv::BasicQuerySet(sizing_only);
    // In-process ground truth: lexical rows straight from the engine,
    // which every network response must reproduce byte-for-byte.
    serial_ = MakeDb(graph_, 1);
    ASSERT_NE(serial_, nullptr);
    for (const watdiv::WatDivQuery& wq : raw_queries_) {
      auto result = serial_->ExecuteSparql(wq.sparql);
      ASSERT_TRUE(result.ok()) << wq.id << ": " << result.status();
      auto rows = serial_->DecodeRows(result->relation);
      ASSERT_TRUE(rows.ok()) << wq.id << ": " << rows.status();
      reference_vars_.push_back(result->relation.column_names());
      reference_rows_.push_back(std::move(rows).value());
    }
  }

  static void TearDownTestSuite() {
    serial_.reset();
    reference_rows_.clear();
    reference_vars_.clear();
    raw_queries_.clear();
    graph_.reset();
  }

  static SharedGraph graph_;
  static std::vector<watdiv::WatDivQuery> raw_queries_;
  static std::vector<std::vector<std::string>> reference_vars_;
  static std::vector<std::vector<std::vector<std::string>>> reference_rows_;
  static std::unique_ptr<core::ProstDb> serial_;
};

SharedGraph NetEndToEndTest::graph_;
std::vector<watdiv::WatDivQuery> NetEndToEndTest::raw_queries_;
std::vector<std::vector<std::string>> NetEndToEndTest::reference_vars_;
std::vector<std::vector<std::vector<std::string>>>
    NetEndToEndTest::reference_rows_;
std::unique_ptr<core::ProstDb> NetEndToEndTest::serial_;

/// One running endpoint over the fixture graph: db + session manager +
/// server on an ephemeral loopback port.
struct Endpoint {
  explicit Endpoint(const SharedGraph& graph,
                    serve::AdmissionOptions admission = {},
                    net::ServerOptions options = {})
      : Endpoint(MakeDb(graph, 2), admission, options) {}

  Endpoint(std::unique_ptr<core::ProstDb> served,
           serve::AdmissionOptions admission, net::ServerOptions options)
      : db(std::move(served)) {
    manager = std::make_unique<serve::SessionManager>(*db, admission);
    options.port = 0;
    server = std::make_unique<net::Server>(*manager, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started;
  }

  net::Client Dial() {
    net::Client client;
    Status connected = client.Connect("127.0.0.1", server->port());
    EXPECT_TRUE(connected.ok()) << connected;
    return client;
  }

  std::unique_ptr<core::ProstDb> db;
  std::unique_ptr<serve::SessionManager> manager;
  std::unique_ptr<net::Server> server;
};

TEST_F(NetEndToEndTest, AllWatDivQueriesRowIdenticalOverJson) {
  Endpoint endpoint(graph_);
  net::Client client = endpoint.Dial();
  for (size_t i = 0; i < raw_queries_.size(); ++i) {
    const std::string target =
        "/sparql?query=" + net::PercentEncode(raw_queries_[i].sparql);
    auto response = client.Get(target);
    ASSERT_TRUE(response.ok()) << raw_queries_[i].id << ": "
                               << response.status();
    ASSERT_EQ(response->status, 200)
        << raw_queries_[i].id << ": " << response->body;
    ASSERT_NE(response->FindHeader("content-type"), nullptr);
    EXPECT_EQ(*response->FindHeader("content-type"),
              "application/sparql-results+json");
    auto parsed = SparqlResultWriter::ParseJson(response->body);
    ASSERT_TRUE(parsed.ok()) << raw_queries_[i].id << ": "
                             << parsed.status();
    EXPECT_EQ(parsed->vars, reference_vars_[i]) << raw_queries_[i].id;
    EXPECT_EQ(parsed->rows, reference_rows_[i]) << raw_queries_[i].id;
  }
}

TEST_F(NetEndToEndTest, PostAndTsvMatchInProcessRows) {
  Endpoint endpoint(graph_);
  net::Client client = endpoint.Dial();
  for (size_t i = 0; i < raw_queries_.size(); ++i) {
    // POST application/sparql-query, TSV negotiated via Accept.
    auto tsv = client.Post("/sparql", "application/sparql-query",
                           raw_queries_[i].sparql,
                           "text/tab-separated-values");
    ASSERT_TRUE(tsv.ok()) << raw_queries_[i].id << ": " << tsv.status();
    ASSERT_EQ(tsv->status, 200) << raw_queries_[i].id << ": " << tsv->body;
    ASSERT_NE(tsv->FindHeader("content-type"), nullptr);
    EXPECT_EQ(*tsv->FindHeader("content-type"), "text/tab-separated-values");
    auto parsed = SparqlResultWriter::ParseTsv(tsv->body);
    ASSERT_TRUE(parsed.ok()) << raw_queries_[i].id << ": "
                             << parsed.status();
    EXPECT_EQ(parsed->vars, reference_vars_[i]) << raw_queries_[i].id;
    EXPECT_EQ(parsed->rows, reference_rows_[i]) << raw_queries_[i].id;
  }
  // POST form-encoded, default (JSON) Accept.
  const std::string form =
      "query=" + net::PercentEncode(raw_queries_[0].sparql);
  auto json = client.Post("/sparql", "application/x-www-form-urlencoded",
                          form);
  ASSERT_TRUE(json.ok()) << json.status();
  ASSERT_EQ(json->status, 200) << json->body;
  auto parsed = SparqlResultWriter::ParseJson(json->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->rows, reference_rows_[0]);
}

TEST_F(NetEndToEndTest, HealthMetricsAndErrorRoutes) {
  Endpoint endpoint(graph_);
  net::Client client = endpoint.Dial();

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  // Run one query so the metrics document has serving data in it.
  auto query = client.Get("/sparql?query=" +
                          net::PercentEncode(raw_queries_[0].sparql));
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_EQ(query->status, 200);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->status, 200);
  ASSERT_NE(metrics->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*metrics->FindHeader("content-type"), "application/json");
  // All three registries are present, and the net section has counted us.
  EXPECT_NE(metrics->body.find("\"db\""), std::string::npos);
  EXPECT_NE(metrics->body.find("\"serve\""), std::string::npos);
  EXPECT_NE(metrics->body.find("\"net\""), std::string::npos);
  EXPECT_NE(metrics->body.find("serve.completed"), std::string::npos);
  EXPECT_NE(metrics->body.find("net.requests"), std::string::npos);

  struct Case {
    const char* name;
    std::function<Result<HttpResponseParser::Response>()> send;
    int status;
    const char* code;
  };
  const std::vector<Case> cases = {
      {"UnknownPath", [&] { return client.Get("/nope"); }, 404,
       "not_found"},
      {"WrongMethod",
       [&] { return client.Post("/healthz", "text/plain", "x"); }, 405,
       "method_not_allowed"},
      {"MissingQueryParam", [&] { return client.Get("/sparql"); }, 400,
       "bad_request"},
      {"UnsupportedMediaType",
       [&] { return client.Post("/sparql", "application/xml", "<q/>"); },
       415, "unsupported_media_type"},
      // A syntactically-broken query: the translator's message must ride
      // back on the 400.
      {"UnparseableQuery",
       [&] {
         return client.Get("/sparql?query=" +
                           net::PercentEncode("SELECT WHERE {"));
       },
       400, nullptr},
  };
  for (const Case& c : cases) {
    auto response = c.send();
    ASSERT_TRUE(response.ok()) << c.name << ": " << response.status();
    EXPECT_EQ(response->status, c.status) << c.name << ": "
                                          << response->body;
    EXPECT_NE(response->body.find("\"error\""), std::string::npos) << c.name;
    if (c.code != nullptr) {
      EXPECT_NE(response->body.find(c.code), std::string::npos)
          << c.name << ": " << response->body;
    }
  }
}

TEST_F(NetEndToEndTest, FourConcurrentClientsStayRowIdentical) {
  serve::AdmissionOptions admission;
  admission.max_in_flight = 4;
  admission.max_queued = 16;
  net::ServerOptions options;
  options.handler_threads = 6;  // Handlers must outnumber the clients.
  Endpoint endpoint(graph_, admission, options);

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      net::Client client = endpoint.Dial();
      // Each client walks the full query set from a different offset, so
      // at any instant the in-flight mix is heterogeneous.
      for (size_t step = 0; step < raw_queries_.size(); ++step) {
        const size_t q =
            (static_cast<size_t>(t) * 7 + step) % raw_queries_.size();
        auto response = client.Get(
            "/sparql?query=" + net::PercentEncode(raw_queries_[q].sparql));
        ASSERT_TRUE(response.ok()) << "client " << t << " step " << step
                                   << ": " << response.status();
        ASSERT_EQ(response->status, 200)
            << "client " << t << " " << raw_queries_[q].id << ": "
            << response->body;
        auto parsed = SparqlResultWriter::ParseJson(response->body);
        ASSERT_TRUE(parsed.ok()) << parsed.status();
        EXPECT_EQ(parsed->rows, reference_rows_[q])
            << "client " << t << " " << raw_queries_[q].id;
      }
    });
  }
  for (std::thread& client : clients) client.join();

  obs::MetricsSnapshot serve_metrics = endpoint.manager->metrics().Snapshot();
  const uint64_t total =
      static_cast<uint64_t>(kClients) * raw_queries_.size();
  EXPECT_EQ(serve_metrics.counter("serve.completed"), total);
  EXPECT_EQ(serve_metrics.counter("serve.failed"), 0u);
  obs::MetricsSnapshot net_metrics = endpoint.server->metrics().Snapshot();
  EXPECT_EQ(net_metrics.counter("net.requests"), total);
  EXPECT_EQ(net_metrics.counter("net.responses.2xx"), total);
}

TEST_F(NetEndToEndTest, AdmissionOverflowSurfacesAs503WithRetryAfter) {
  serve::AdmissionOptions admission;
  admission.max_in_flight = 1;
  admission.queue_when_full = false;  // Load-shedding configuration.
  Endpoint endpoint(graph_, admission);
  net::Client client = endpoint.Dial();

  // Pin the only execution slot from in-process, then ask over the wire.
  auto held = endpoint.manager->Admit();
  ASSERT_TRUE(held.ok()) << held.status();
  auto response = client.Get("/sparql?query=" +
                             net::PercentEncode(raw_queries_[0].sparql));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 503) << response->body;
  ASSERT_NE(response->FindHeader("retry-after"), nullptr);
  EXPECT_NE(response->body.find("unavailable"), std::string::npos);
  held->Release();

  // Capacity free again: the same connection serves a real answer.
  auto ok_response = client.Get(
      "/sparql?query=" + net::PercentEncode(raw_queries_[0].sparql));
  ASSERT_TRUE(ok_response.ok()) << ok_response.status();
  EXPECT_EQ(ok_response->status, 200);
}

TEST_F(NetEndToEndTest, DrainFinishesInFlightAndRejectsLateRequests) {
  serve::AdmissionOptions admission;
  admission.max_in_flight = 1;
  admission.max_queued = 4;
  net::ServerOptions options;
  options.handler_threads = 4;
  // A wide grace window: the test drives the drain steps explicitly and
  // must never race the wall clock.
  options.drain_grace_seconds = 30;
  Endpoint endpoint(graph_, admission, options);

  // Occupy the only execution slot so the wire request below parks in
  // the admission FIFO — a genuinely in-flight request.
  auto held = endpoint.manager->Admit();
  ASSERT_TRUE(held.ok()) << held.status();

  // Both helper threads must be joined on every path, so until the joins
  // below nothing here may return early: the client thread records its
  // failure for the main thread, and the main thread uses EXPECT_*.
  const size_t q = 0;
  std::string in_flight_failure;
  std::thread in_flight_client([&] {
    net::Client client = endpoint.Dial();
    auto response = client.Post("/sparql", "application/sparql-query",
                                raw_queries_[q].sparql);
    // The response must be complete and correct even though the server
    // began draining while this request was queued: drain never
    // truncates in-flight work.
    if (!response.ok()) {
      in_flight_failure = response.status().ToString();
      return;
    }
    if (response->status != 200) {
      in_flight_failure = "HTTP " + std::to_string(response->status) +
                          ": " + response->body;
      return;
    }
    auto parsed = SparqlResultWriter::ParseJson(response->body);
    if (!parsed.ok()) {
      in_flight_failure = parsed.status().ToString();
    } else if (parsed->rows != reference_rows_[q]) {
      in_flight_failure = "rows differ from the in-process answer";
    }
  });
  EXPECT_TRUE(
      WaitUntil([&] { return endpoint.manager->queued() == 1; }));

  // A connection opened before the drain begins...
  net::Client late_client = endpoint.Dial();

  std::thread stopper([&] { endpoint.server->Shutdown(); });
  EXPECT_TRUE(WaitUntil([&] { return endpoint.server->draining(); }));

  // ...sends its request after: answered 503 + Retry-After, not slammed.
  auto late = late_client.Get("/healthz");
  EXPECT_TRUE(late.ok()) << late.status();
  if (late.ok()) {
    EXPECT_EQ(late->status, 503) << late->body;
    EXPECT_NE(late->FindHeader("retry-after"), nullptr);
  }
  late_client.Close();

  // Release the slot: the parked request executes and completes fully.
  held->Release();
  in_flight_client.join();
  stopper.join();
  EXPECT_EQ(in_flight_failure, "");

  obs::MetricsSnapshot net_metrics = endpoint.server->metrics().Snapshot();
  EXPECT_GE(net_metrics.counter("net.drain_rejected"), 1u);

  // The listener is gone: new connections fail outright.
  net::Client refused;
  Status connected =
      refused.Connect("127.0.0.1", endpoint.server->port(), 0.5);
  EXPECT_FALSE(connected.ok());
}

TEST_F(NetEndToEndTest, SerializeMatchesTheDecodeReparseOracle) {
  for (const watdiv::WatDivQuery& query : raw_queries_) {
    auto result = serial_->ExecuteSparql(query.sparql);
    ASSERT_TRUE(result.ok()) << query.id << ": " << result.status();
    ExpectMatchesOracle(*serial_, result->relation, query.id);
  }
}

/// Reads one response off `socket` until the peer closes.
Result<HttpResponseParser::Response> ReadUntilClose(net::Socket& socket) {
  HttpResponseParser parser;
  HttpResponseParser::Response response;
  char buffer[16384];
  while (true) {
    PROST_ASSIGN_OR_RETURN(size_t n, socket.Read(buffer, sizeof(buffer)));
    if (n == 0) break;
    parser.Feed(std::string_view(buffer, n));
  }
  if (parser.Finish(&response) != HttpParser::Outcome::kRequest) {
    return Status::ParseError("no complete response: " +
                              parser.error().message);
  }
  return response;
}

TEST_F(NetEndToEndTest, LargeResultStreamsAsChunksThatJoinToSerialize) {
  // The WatDiv query with the largest JSON result.
  size_t largest = 0;
  std::string expected;
  for (size_t i = 0; i < raw_queries_.size(); ++i) {
    auto result = serial_->ExecuteSparql(raw_queries_[i].sparql);
    ASSERT_TRUE(result.ok()) << result.status();
    auto json = SparqlResultWriter::Serialize(*serial_, result->relation,
                                              ResultFormat::kJson);
    ASSERT_TRUE(json.ok()) << json.status();
    if (json->size() > expected.size()) {
      largest = i;
      expected = std::move(*json);
    }
  }
  ASSERT_GT(expected.size(), 2 * SparqlResultWriter::kChunkBytes);
  const std::string target =
      "/sparql?query=" + net::PercentEncode(raw_queries_[largest].sparql);

  Endpoint endpoint(graph_);
  net::Client client = endpoint.Dial();
  auto response = client.Get(target);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status, 200);
  ASSERT_NE(response->FindHeader("transfer-encoding"), nullptr);
  EXPECT_EQ(*response->FindHeader("transfer-encoding"), "chunked");
  EXPECT_EQ(response->FindHeader("content-length"), nullptr);
  EXPECT_EQ(response->body, expected) << raw_queries_[largest].id;
  // Keep-alive survives a streamed response.
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->body, "ok\n");

  // HTTP/1.0 peers must not get chunked: the body ends at the close.
  auto socket = net::ConnectTcp("127.0.0.1", endpoint.server->port(), 60);
  ASSERT_TRUE(socket.ok()) << socket.status();
  ASSERT_TRUE(socket->WriteAll({"GET " + target +
                                " HTTP/1.0\r\n"
                                "Accept: text/tab-separated-values\r\n\r\n"})
                  .ok());
  auto close_delimited = ReadUntilClose(*socket);
  ASSERT_TRUE(close_delimited.ok()) << close_delimited.status();
  EXPECT_EQ(close_delimited->status, 200);
  EXPECT_EQ(close_delimited->FindHeader("transfer-encoding"), nullptr);
  EXPECT_EQ(close_delimited->FindHeader("content-length"), nullptr);
  ASSERT_NE(close_delimited->FindHeader("connection"), nullptr);
  EXPECT_EQ(*close_delimited->FindHeader("connection"), "close");
  auto result = serial_->ExecuteSparql(raw_queries_[largest].sparql);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(close_delimited->body,
            *SparqlResultWriter::Serialize(*serial_, result->relation,
                                           ResultFormat::kTsv));
}

TEST(NetStreamingTest, FailureAfterTheHeadCutsTheStreamBeforeItIsA500) {
  Endpoint endpoint(BadLastRowDb(3000), {}, {});
  net::Client client = endpoint.Dial();

  // <big> fails on its last row, chunks after the 200 head went out: the
  // stream is cut, and the client reports an error, not a short body.
  const std::string big = "/sparql?query=" +
                          net::PercentEncode("SELECT ?s ?o WHERE { ?s <big> ?o . }");
  auto cut = client.Get(big);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kIOError) << cut.status();
  EXPECT_EQ(
      endpoint.server->metrics().Snapshot().counter("net.responses.aborted"),
      1u);

  // <small> fails before any byte is written: an ordinary 500.
  auto small = client.Get("/sparql?query=" +
                          net::PercentEncode("SELECT ?o WHERE { <z> <small> ?o . }"));
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_EQ(small->status, 500);
  EXPECT_NE(small->body.find("\"error\""), std::string::npos) << small->body;

  // TSV copies the stored bytes, so the same rows stream in full.
  auto tsv = client.Get(big, "text/tab-separated-values");
  ASSERT_TRUE(tsv.ok()) << tsv.status();
  EXPECT_EQ(tsv->status, 200);
  EXPECT_TRUE(tsv->body.ends_with("\t\"bad \\q\"\n"));

  obs::MetricsSnapshot metrics = endpoint.server->metrics().Snapshot();
  EXPECT_EQ(metrics.counter("net.responses.aborted"), 1u);
  EXPECT_EQ(metrics.counter("net.responses.5xx"), 1u);
  EXPECT_EQ(metrics.counter("net.responses.2xx"), 2u);
}

TEST(NetClientTest, ChunkedStreamCutBeforeItsLastChunkIsAnError) {
  auto listener = net::ListenSocket::BindAndListen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  // A peer that answers with a chunked body and closes before "0\r\n\r\n".
  std::thread peer([&] {
    auto ready = listener->WaitPending(60000);
    if (!ready.ok() || !*ready) return;
    auto socket = listener->Accept();
    if (!socket.ok()) return;
    std::string request;
    char buffer[1024];
    while (request.find("\r\n\r\n") == std::string::npos) {
      auto n = socket->Read(buffer, sizeof(buffer));
      if (!n.ok() || *n == 0) return;
      request.append(buffer, *n);
    }
    PROST_IGNORE_ERROR(socket->WriteAll(
        {"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
         "5\r\nhello\r\n"}));
  });
  net::Client client;
  Status connected = client.Connect("127.0.0.1", listener->port());
  EXPECT_TRUE(connected.ok()) << connected;
  auto response = client.Get("/sparql?query=x");
  peer.join();
  ASSERT_FALSE(response.ok()) << "got a truncated body: " << response->body;
  EXPECT_EQ(response.status().code(), StatusCode::kIOError)
      << response.status();
}

}  // namespace
}  // namespace prost
