#include "net/client.h"

#include <string_view>
#include <utility>

#include "common/str_util.h"

namespace prost::net {

Status Client::Connect(const std::string& host, uint16_t port,
                       double deadline_seconds) {
  host_ = host;
  port_ = port;
  deadline_seconds_ = deadline_seconds;
  PROST_ASSIGN_OR_RETURN(socket_, ConnectTcp(host, port, deadline_seconds));
  return Status::OK();
}

Result<HttpResponseParser::Response> Client::Roundtrip(
    const ClientRequest& request) {
  if (!connected()) {
    PROST_RETURN_IF_ERROR(Connect(host_, port_, deadline_seconds_));
  }
  bool stale = false;
  Result<HttpResponseParser::Response> response =
      RoundtripOnce(request, &stale);
  if (response.ok() || !stale) return response;
  // The server closed the keep-alive connection between our requests (its
  // right under HTTP/1.1). One reconnect-and-retry is safe here because
  // no response bytes arrived, so the request was never processed... for
  // GET it is safe regardless; our POSTs are queries, which are
  // idempotent reads in SPARQL terms.
  Close();
  PROST_RETURN_IF_ERROR(Connect(host_, port_, deadline_seconds_));
  return RoundtripOnce(request, &stale);
}

Result<HttpResponseParser::Response> Client::RoundtripOnce(
    const ClientRequest& request, bool* stale_connection) {
  *stale_connection = false;
  std::string wire =
      StrFormat("%s %s HTTP/1.1\r\n", request.method.c_str(),
                request.target.c_str()) +
      StrFormat("Host: %s:%u\r\n", host_.c_str(), port_);
  for (const auto& [name, value] : request.headers) {
    wire += name + ": " + value + "\r\n";
  }
  if (!request.body.empty() || request.method == "POST") {
    wire += StrFormat("Content-Length: %zu\r\n", request.body.size());
  }
  wire += "\r\n";
  wire += request.body;

  Status written = socket_.WriteAll({wire});
  if (!written.ok()) {
    // EPIPE/RST on a previously idle connection: the server closed it
    // before this request; eligible for one reconnect.
    *stale_connection = true;
    Close();
    return written;
  }

  HttpResponseParser parser;
  HttpResponseParser::Response response;
  read_buffer_.resize(kReadBytes);
  bool received_any = false;
  while (true) {
    switch (parser.Next(&response)) {
      case HttpParser::Outcome::kRequest: {
        const std::string* connection = response.FindHeader("connection");
        if (connection != nullptr && *connection == "close") Close();
        return response;
      }
      case HttpParser::Outcome::kError:
        Close();
        return Status::ParseError("malformed HTTP response: " +
                                  parser.error().message);
      case HttpParser::Outcome::kNeedMore:
        break;
    }
    Result<size_t> n = socket_.Read(read_buffer_.data(), read_buffer_.size());
    if (!n.ok()) {
      Close();
      return n.status();
    }
    if (*n == 0) {
      Close();
      // EOF ends a close-delimited body. Anywhere else it cuts the
      // response short — a truncated body is an error, never a result.
      if (parser.Finish(&response) == HttpParser::Outcome::kRequest) {
        return response;
      }
      // EOF before any response bytes means the keep-alive socket was
      // already dead when we wrote; mid-response EOF is a real error.
      *stale_connection = !received_any;
      return Status::IOError("connection closed before full response");
    }
    received_any = true;
    parser.Feed(std::string_view(read_buffer_.data(), *n));
  }
}

Result<HttpResponseParser::Response> Client::Get(const std::string& target,
                                                 const std::string& accept) {
  ClientRequest request;
  request.method = "GET";
  request.target = target;
  if (!accept.empty()) request.headers.emplace_back("Accept", accept);
  return Roundtrip(request);
}

Result<HttpResponseParser::Response> Client::Post(
    const std::string& target, const std::string& content_type,
    std::string body, const std::string& accept) {
  ClientRequest request;
  request.method = "POST";
  request.target = target;
  request.headers.emplace_back("Content-Type", content_type);
  if (!accept.empty()) request.headers.emplace_back("Accept", accept);
  request.body = std::move(body);
  return Roundtrip(request);
}

}  // namespace prost::net
