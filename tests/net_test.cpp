// Tests for the SPARQL protocol endpoint (src/net/), in two tiers:
//
//  1. Parser tier — the HTTP/1.1 request parser driven by an in-memory
//     byte stream (no sockets anywhere): table-driven malformed/over-
//     limit rejections, torn reads split at every byte boundary,
//     pipelined requests, keep-alive semantics, percent/form decoding,
//     the typed Status→HTTP map, and Accept-header negotiation.
//
//  2. Loopback tier — a real net::Server on an ephemeral port over a
//     WatDiv fixture, queried through net::Client: every WatDiv basic
//     query must come back row-identical (JSON and TSV) to in-process
//     ProstDb execution, four concurrent clients stay correct, admission
//     overflow surfaces as 503 + Retry-After, and a graceful drain
//     finishes in-flight responses while 503ing late requests.
//
// Runs under the TSan CI leg (label `net`): the acceptor + handler pool +
// concurrent clients double as a data-race probe on the net layer.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/prost_db.h"
#include "net/client.h"
#include "net/http.h"
#include "net/result_writer.h"
#include "net/server.h"
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
  parser.Feed(response.Serialize());
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

// ---------------------------------------------------------- loopback tier

using SharedGraph = std::shared_ptr<const rdf::EncodedGraph>;

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
                    net::ServerOptions options = {}) {
    db = MakeDb(graph, 2);
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

}  // namespace
}  // namespace prost
