#include "net/server.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "net/result_writer.h"

namespace prost::net {

namespace {

/// Monotonic wall time in seconds; only differences are meaningful.
double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stable machine-readable code names for parser-layer rejections (the
/// execution layer's codes come from StatusCodeToString instead).
const char* HttpErrorCodeName(int http_status) {
  switch (http_status) {
    case 400:
      return "bad_request";
    case 404:
      return "not_found";
    case 405:
      return "method_not_allowed";
    case 408:
      return "deadline_exceeded";
    case 411:
      return "length_required";
    case 413:
      return "payload_too_large";
    case 415:
      return "unsupported_media_type";
    case 431:
      return "header_too_large";
    case 501:
      return "not_implemented";
    case 503:
      return "unavailable";
    case 505:
      return "version_not_supported";
    default:
      return "error";
  }
}

std::string LowercaseMediaType(const std::string& content_type) {
  std::string_view media(content_type);
  size_t semicolon = media.find(';');
  if (semicolon != std::string_view::npos) media = media.substr(0, semicolon);
  media = StrTrim(media);
  std::string out(media);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

/// The `query` field of a form-encoded GET query string or POST body.
/// Fails with the form parser's message, or with `missing_message` when
/// the form has no `query` field.
Result<std::string> FormQueryField(std::string_view form,
                                   const char* missing_message) {
  PROST_ASSIGN_OR_RETURN(auto params, ParseFormEncoded(form));
  for (auto& [name, value] : params) {
    if (name == "query") return std::move(value);
  }
  return Status::InvalidArgument(missing_message);
}

}  // namespace

Server::Server(serve::SessionManager& sessions, ServerOptions options)
    : sessions_(sessions), options_(std::move(options)) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  {
    MutexLock lock(mu_);
    if (state_ != State::kIdle) {
      return Status::Internal("net::Server started twice");
    }
  }
  // The JSON binding table is built here, not by the first request.
  sessions_.db().json_bindings();
  PROST_ASSIGN_OR_RETURN(
      listener_, ListenSocket::BindAndListen(options_.host, options_.port));
  port_ = listener_.port();
  {
    MutexLock lock(mu_);
    state_ = State::kRunning;
    accepting_ = true;
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  const int handler_count = std::max(1, options_.handler_threads);
  handlers_.reserve(static_cast<size_t>(handler_count));
  for (int i = 0; i < handler_count; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  return Status::OK();
}

void Server::Shutdown() {
  {
    MutexLock lock(mu_);
    if (state_ == State::kIdle) {
      // Never started: nothing to drain or join.
      state_ = State::kStopped;
      shutdown_complete_ = true;
      return;
    }
    if (state_ != State::kRunning) {
      // Another caller is (or was) draining; block until it finishes so
      // every Shutdown return means "all threads joined".
      while (!shutdown_complete_) pending_cv_.Wait(mu_);
      return;
    }
    state_ = State::kDraining;
    drain_started_seconds_ = NowSeconds();
    pending_cv_.NotifyAll();
  }
  // Joining IS the drain: at its next poll tick the acceptor hands the
  // kernel backlog to the handlers and closes the listener; handlers
  // serve what is pending, then exit; busy handlers finish their
  // connection — answering late requests with 503 inside the grace
  // window, never truncating an in-flight response.
  acceptor_.join();
  for (std::thread& handler : handlers_) handler.join();
  handlers_.clear();
  MutexLock lock(mu_);
  state_ = State::kStopped;
  pending_.clear();
  metrics_.gauge("net.pending_connections").Set(0);
  shutdown_complete_ = true;
  pending_cv_.NotifyAll();
}

bool Server::draining() const {
  MutexLock lock(mu_);
  return state_ == State::kDraining || state_ == State::kStopped;
}

double Server::SecondsSinceDrainStarted() const {
  MutexLock lock(mu_);
  if (state_ != State::kDraining && state_ != State::kStopped) return 0;
  return NowSeconds() - drain_started_seconds_;
}

void Server::AcceptLoop() {
  // Every accepted socket reaches a handler, which answers 503 once the
  // drain began. On drain the loop first empties the kernel backlog —
  // connections that completed their handshake before the drain — and
  // then closes the listener, so a later connect is refused outright
  // instead of waiting unanswered in the backlog.
  while (true) {
    bool draining;
    {
      MutexLock lock(mu_);
      draining = state_ != State::kRunning;
    }
    // Short poll ticks so shutdown is noticed promptly without signals;
    // no wait at all once draining, so the loop ends when the backlog is
    // empty.
    Result<bool> ready = listener_.WaitPending(draining ? 0 : 200);
    if (!ready.ok()) break;  // Listener broken beyond repair.
    if (!*ready) {
      if (draining) break;
      continue;
    }
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (draining) break;
      continue;  // Peer vanished between poll and accept.
    }
    metrics_.counter("net.connections_accepted").Increment();
    bool enqueued = false;
    {
      MutexLock lock(mu_);
      if (pending_.size() < options_.max_pending_connections) {
        pending_.push_back(std::move(*accepted));
        metrics_.gauge("net.pending_connections")
            .Set(static_cast<double>(pending_.size()));
        pending_cv_.NotifyAll();
        enqueued = true;
      }
    }
    if (!enqueued) {
      // Bounded backlog: shed the connection with an immediate 503 (best
      // effort — the write happens outside mu_ and may itself fail).
      metrics_.counter("net.connections_rejected_pending_full").Increment();
      HttpResponse response =
          ErrorResponse(503, "unavailable", "connection backlog full");
      response.keep_alive = false;
      response.AddHeader("Retry-After", "1");
      PROST_IGNORE_ERROR(accepted->SetDeadline(1.0));
      PROST_IGNORE_ERROR(accepted->WriteAll(
          {response.Head(BodyFraming::kContentLength), response.body}));
    }
  }
  listener_.Close();
  MutexLock lock(mu_);
  accepting_ = false;
  pending_cv_.NotifyAll();
}

void Server::HandlerLoop() {
  while (true) {
    Socket socket;
    {
      MutexLock lock(mu_);
      while (pending_.empty() && (state_ == State::kRunning || accepting_)) {
        pending_cv_.Wait(mu_);
      }
      // Draining with connections still pending: serve them (they get
      // their 503s inside the grace window). Empty once the acceptor has
      // handed over its backlog: done.
      if (pending_.empty()) return;
      socket = std::move(pending_.front());
      pending_.pop_front();
      metrics_.gauge("net.pending_connections")
          .Set(static_cast<double>(pending_.size()));
      ++active_connections_;
      metrics_.gauge("net.active_connections").Set(active_connections_);
    }
    ServeConnection(std::move(socket));
    metrics_.counter("net.connections_handled").Increment();
    MutexLock lock(mu_);
    --active_connections_;
    metrics_.gauge("net.active_connections").Set(active_connections_);
  }
}

void Server::ServeConnection(Socket socket) {
  // SO_RCVTIMEO/SO_SNDTIMEO bound every blocking transfer; the read loop
  // below additionally enforces the deadline across torn reads.
  PROST_IGNORE_ERROR(socket.SetDeadline(options_.request_deadline_seconds));
  PROST_IGNORE_ERROR(socket.SetNoDelay());
  HttpParser parser(options_.http_limits);
  char buffer[8192];
  double request_started = NowSeconds();
  double idle_since = NowSeconds();

  while (true) {
    HttpRequest request;
    switch (parser.Next(&request)) {
      case HttpParser::Outcome::kError: {
        const HttpParseError& error = parser.error();
        HttpResponse response = ErrorResponse(
            error.http_status, HttpErrorCodeName(error.http_status),
            error.message);
        response.keep_alive = false;
        PROST_IGNORE_ERROR(Send(socket, /*http11=*/true, response));
        return;
      }
      case HttpParser::Outcome::kRequest: {
        metrics_.counter("net.requests").Increment();
        HttpResponse response;
        if (draining()) {
          // A request that completed after drain started: answered, not
          // slammed — but told to go elsewhere.
          metrics_.counter("net.drain_rejected").Increment();
          response = ErrorResponse(503, "unavailable",
                                   "server is draining; retry elsewhere");
          response.AddHeader("Retry-After", "1");
          response.keep_alive = false;
        } else {
          response = Route(request);
          response.keep_alive = response.keep_alive && request.keep_alive;
        }
        if (!Send(socket, request.version == "HTTP/1.1", response).ok()) {
          return;
        }
        if (!response.keep_alive) return;
        request_started = NowSeconds();
        idle_since = NowSeconds();
        continue;  // A pipelined follower may already be buffered.
      }
      case HttpParser::Outcome::kNeedMore:
        break;
    }

    const bool mid_request = parser.buffered_bytes() > 0;
    const double now = NowSeconds();
    if (mid_request &&
        now - request_started > options_.request_deadline_seconds) {
      const Status timeout =
          Status::DeadlineExceeded("request read deadline exceeded");
      HttpResponse response =
          ErrorResponse(HttpStatusForStatus(timeout),
                        StatusCodeToString(timeout.code()), timeout.message());
      response.keep_alive = false;
      PROST_IGNORE_ERROR(Send(socket, /*http11=*/true, response));
      return;
    }
    if (!mid_request && now - idle_since > options_.idle_timeout_seconds) {
      return;  // Idle keep-alive expiry: close quietly.
    }
    if (SecondsSinceDrainStarted() > options_.drain_grace_seconds) {
      return;  // Grace window over; stragglers get a closed connection.
    }
    Result<bool> readable = socket.WaitReadable(/*timeout_millis=*/100);
    if (!readable.ok()) return;
    if (!*readable) continue;
    if (parser.buffered_bytes() == 0) request_started = NowSeconds();
    Result<size_t> n = socket.Read(buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) return;  // Error, timeout, or EOF.
    parser.Feed(std::string_view(buffer, *n));
  }
}

Status Server::Send(Socket& socket, bool http11, HttpResponse& response) {
  auto count = [this](int status) {
    metrics_.counter(StrFormat("net.responses.%dxx", status / 100))
        .Increment();
  };
  if (!response.stream) {
    count(response.status);
    return socket.WriteAll(
        {response.Head(BodyFraming::kContentLength), response.body});
  }
  const BodyFraming framing =
      http11 ? BodyFraming::kChunked : BodyFraming::kClose;
  const bool chunked = framing == BodyFraming::kChunked;
  if (!chunked) response.keep_alive = false;
  // The head goes out with the first piece, so the status stays open
  // until the producer has something to send. Each piece is written as
  // it comes: the server holds one piece, never the body.
  bool started = false;
  auto head_once = [&]() -> std::string {
    if (started) return "";
    started = true;
    count(response.status);
    return response.Head(framing);
  };
  Status produced = response.stream([&](std::string_view piece) -> Status {
    if (piece.empty()) return Status::OK();
    return socket.WriteAll({head_once(),
                            chunked ? ChunkSizeLine(piece.size()) : "", piece,
                            chunked ? kCrlf : ""},
                           /*more=*/true);
  });
  if (!produced.ok()) {
    if (started) {
      // The status is on the wire and can no longer change. Closing
      // without the last chunk (or, close-delimited, mid-body) is how
      // the client learns the body is incomplete.
      metrics_.counter("net.responses.aborted").Increment();
      response.keep_alive = false;
      return produced;
    }
    HttpResponse error = ErrorResponse(500, "internal", produced.message());
    error.keep_alive = response.keep_alive;
    return Send(socket, http11, error);
  }
  return socket.WriteAll({head_once(), chunked ? kLastChunk : ""});
}

HttpResponse Server::Route(const HttpRequest& request) {
  if (request.path == "/healthz") {
    if (request.method != "GET") {
      HttpResponse response =
          ErrorResponse(405, HttpErrorCodeName(405), "use GET");
      response.AddHeader("Allow", "GET");
      return response;
    }
    HttpResponse response;
    response.AddHeader("Content-Type", "text/plain; charset=utf-8");
    response.body = "ok\n";
    return response;
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") {
      HttpResponse response =
          ErrorResponse(405, HttpErrorCodeName(405), "use GET");
      response.AddHeader("Allow", "GET");
      return response;
    }
    return HandleMetrics();
  }
  if (request.path == "/sparql") {
    if (request.method != "GET" && request.method != "POST") {
      HttpResponse response =
          ErrorResponse(405, HttpErrorCodeName(405), "use GET or POST");
      response.AddHeader("Allow", "GET, POST");
      return response;
    }
    return HandleSparql(request);
  }
  return ErrorResponse(404, HttpErrorCodeName(404),
                       "no route for " + request.path);
}

HttpResponse Server::HandleSparql(const HttpRequest& request) {
  Result<std::string> query_text = std::string();
  if (request.method == "GET") {
    query_text =
        FormQueryField(request.query_string, "missing query parameter");
  } else {
    const std::string* content_type = request.FindHeader("content-type");
    const std::string media =
        content_type == nullptr ? "" : LowercaseMediaType(*content_type);
    if (media == "application/sparql-query") {
      query_text = request.body;
    } else if (media == "application/x-www-form-urlencoded") {
      query_text =
          FormQueryField(request.body, "missing query form parameter");
    } else {
      return ErrorResponse(
          415, HttpErrorCodeName(415),
          "POST /sparql accepts application/sparql-query or "
          "application/x-www-form-urlencoded, got \"" +
              media + "\"");
    }
  }
  if (!query_text.ok()) {
    return ErrorResponse(400, HttpErrorCodeName(400),
                         query_text.status().message());
  }

  // Admission, budget, and execution all live in the serve layer; the
  // translator's message (e.g. an unparseable query) rides back on 400s.
  Result<core::QueryResult> result = sessions_.ExecuteSparql(*query_text);
  if (!result.ok()) {
    const Status& status = result.status();
    HttpResponse response =
        ErrorResponse(HttpStatusForStatus(status),
                      StatusCodeToString(status.code()), status.message());
    if (status.code() == StatusCode::kUnavailable) {
      response.AddHeader("Retry-After", "1");
    }
    return response;
  }

  const std::string* accept = request.FindHeader("accept");
  const ResultFormat format =
      SparqlResultWriter::Negotiate(accept == nullptr ? "" : *accept);
  HttpResponse response;
  response.AddHeader("Content-Type", SparqlResultWriter::ContentType(format));
  // Serialization streams: the body is written while it is sent.
  auto relation =
      std::make_shared<const engine::Relation>(std::move(result->relation));
  response.stream = [this, relation, format](const BodySink& emit) {
    return SparqlResultWriter::Write(sessions_.db(), *relation, format, emit);
  };
  return response;
}

HttpResponse Server::HandleMetrics() {
  std::string body = "{\"db\":" + sessions_.db().metrics().Snapshot().ToJson() +
                     ",\"serve\":" + sessions_.metrics().Snapshot().ToJson() +
                     ",\"net\":" + metrics_.Snapshot().ToJson() + "}";
  HttpResponse response;
  response.AddHeader("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

HttpResponse Server::ErrorResponse(int http_status, std::string_view code,
                                   std::string_view message) {
  HttpResponse response;
  response.status = http_status;
  response.AddHeader("Content-Type", "application/json");
  response.body = StrFormat("{\"error\":{\"code\":\"%s\",\"message\":\"%s\"}}",
                            JsonEscape(code).c_str(),
                            JsonEscape(message).c_str());
  return response;
}

}  // namespace prost::net
