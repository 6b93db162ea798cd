#ifndef PROST_NET_SOCKET_H_
#define PROST_NET_SOCKET_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/status.h"

/// Thin RAII layer over POSIX TCP sockets — the only files in the tree
/// allowed to touch the socket(2) API (tools/lint.py `raw-socket`
/// forbids the headers elsewhere), so every fd is owned, every error
/// becomes a Status, and every timeout becomes kDeadlineExceeded instead
/// of an errno the caller has to interpret.
///
/// Deadlines ride on SO_RCVTIMEO / SO_SNDTIMEO: a Read or WriteAll that
/// exceeds the configured per-operation deadline fails with
/// kDeadlineExceeded, distinguishing "peer is slow" from "peer is gone"
/// (kIOError) and "peer closed" (Read returning 0).

namespace prost::net {

/// One connected TCP socket, closed on destruction. Move-only.
///
/// NOT thread-safe: a socket belongs to one handler thread at a time
/// (the server's per-connection sessions and the client both guarantee
/// single-threaded use).
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` (-1 means empty).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Sets the per-operation read/write deadline (SO_RCVTIMEO and
  /// SO_SNDTIMEO). Zero or negative disables the deadline.
  Status SetDeadline(double seconds);

  /// Disables Nagle batching (TCP_NODELAY) — request/response protocols
  /// want the final segment flushed immediately.
  Status SetNoDelay();

  /// Reads up to `capacity` bytes; returns the count read, 0 on orderly
  /// peer close, kDeadlineExceeded when the read deadline expires, or
  /// kIOError on a transport error.
  Result<size_t> Read(char* buffer, size_t capacity);

  /// Writes all of `parts`, back to back, gathered into as few send calls
  /// as the kernel allows (no concatenation copy), looping over partial
  /// writes. kDeadlineExceeded when the write deadline expires
  /// mid-stream. `more` says more bytes follow soon (MSG_MORE): a short
  /// tail then waits for them instead of leaving as its own segment; the
  /// next write without `more` flushes it.
  Status WriteAll(std::initializer_list<std::string_view> parts,
                  bool more = false);

  /// Waits until the socket is readable: true when readable (or the peer
  /// hung up — the next Read reports it), false when `timeout_millis`
  /// elapsed first. Used by the server's keep-alive idle loop so a
  /// draining server never blocks a full read deadline on an idle
  /// connection.
  Result<bool> WaitReadable(int timeout_millis);

 private:
  int fd_ = -1;
};

/// A bound, listening TCP socket. Move-only; closed on destruction.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { Close(); }
  ListenSocket(ListenSocket&& other) noexcept : fd_(other.fd_),
                                                port_(other.port_) {
    other.fd_ = -1;
  }
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Binds `host:port` (IPv4 dotted quad; port 0 picks an ephemeral
  /// port, readable from port() afterwards) and starts listening.
  static Result<ListenSocket> BindAndListen(const std::string& host,
                                            uint16_t port, int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  /// The resolved local port (meaningful after BindAndListen).
  uint16_t port() const { return port_; }
  void Close();

  /// Waits for a pending connection: true when Accept will not block,
  /// false on timeout. The accept loop polls this so shutdown is seen
  /// within one poll interval instead of blocking in accept(2) forever.
  Result<bool> WaitPending(int timeout_millis);

  /// Accepts one pending connection (blocking).
  Result<Socket> Accept();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Connects to `host:port` (IPv4 dotted quad) with a connect deadline;
/// the returned socket has `deadline_seconds` set as its per-operation
/// read/write deadline too.
Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                          double deadline_seconds);

}  // namespace prost::net

#endif  // PROST_NET_SOCKET_H_
