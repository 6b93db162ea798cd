#ifndef PROST_NET_CLIENT_H_
#define PROST_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/http.h"
#include "net/socket.h"

/// A minimal blocking HTTP/1.1 client for exercising the SPARQL endpoint
/// from tests and the network benchmark: one keep-alive connection per
/// Client, synchronous request/response round trips (Content-Length,
/// chunked and close-delimited bodies), transparent reconnect when the
/// server (legitimately) closed the previous exchange. A response cut
/// short by the connection closing is an error, never a truncated body.
///
/// NOT thread-safe: one Client per thread, which is exactly the shape a
/// closed-loop load generator wants.

namespace prost::net {

/// One request to send. Host and Content-Length headers are added by the
/// client; everything else is caller-provided.
struct ClientRequest {
  std::string method = "GET";
  std::string target = "/";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
};

class Client {
 public:
  Client() = default;

  /// Dials `host:port`; `deadline_seconds` bounds the connect and every
  /// subsequent socket transfer on this connection.
  Status Connect(const std::string& host, uint16_t port,
                 double deadline_seconds = 10.0);

  bool connected() const { return socket_.valid(); }
  void Close() { socket_.Close(); }

  /// One synchronous round trip. If the previous response closed the
  /// connection (or a stale keep-alive socket yields EOF before any
  /// response bytes), reconnects once and retries; a server that is no
  /// longer accepting surfaces the connect error instead.
  Result<HttpResponseParser::Response> Roundtrip(const ClientRequest& request);

  /// GET `target`, optionally with an Accept header.
  Result<HttpResponseParser::Response> Get(const std::string& target,
                                           const std::string& accept = "");

  /// POST `body` to `target` with the given Content-Type.
  Result<HttpResponseParser::Response> Post(const std::string& target,
                                            const std::string& content_type,
                                            std::string body,
                                            const std::string& accept = "");

 private:
  Result<HttpResponseParser::Response> RoundtripOnce(
      const ClientRequest& request, bool* stale_connection);

  /// Socket reads go through one reused buffer of this size.
  static constexpr size_t kReadBytes = 64 * 1024;

  std::string host_;
  uint16_t port_ = 0;
  double deadline_seconds_ = 10.0;
  Socket socket_;
  std::vector<char> read_buffer_;
};

}  // namespace prost::net

#endif  // PROST_NET_CLIENT_H_
