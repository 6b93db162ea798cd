#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>
#include <vector>

#include "common/str_util.h"

namespace prost::net {

namespace {

Status ErrnoStatus(const char* op, int err) {
  return Status::IOError(StrFormat("%s: %s", op, std::strerror(err)));
}

bool IsTimeoutErrno(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ETIMEDOUT;
}

Result<sockaddr_in> MakeAddress(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return addr;
}

/// poll(2) on one fd; true when `events` fired, false on timeout.
Result<bool> PollOne(int fd, short events, int timeout_millis) {
  pollfd entry{};
  entry.fd = fd;
  entry.events = events;
  while (true) {
    int ready = ::poll(&entry, 1, timeout_millis);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll", errno);
    }
    // POLLHUP/POLLERR also count as "ready": the next read/accept/write
    // surfaces the actual condition.
    return ready > 0;
  }
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Socket::SetDeadline(double seconds) {
  timeval tv{};
  if (seconds > 0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    // setsockopt treats {0,0} as "no timeout"; a sub-microsecond request
    // still means "some deadline", so round up to one microsecond.
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return ErrnoStatus("setsockopt(SO_RCVTIMEO/SO_SNDTIMEO)", errno);
  }
  return Status::OK();
}

Status Socket::SetNoDelay() {
  int one = 1;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return ErrnoStatus("setsockopt(TCP_NODELAY)", errno);
  }
  return Status::OK();
}

Result<size_t> Socket::Read(char* buffer, size_t capacity) {
  while (true) {
    ssize_t n = ::recv(fd_, buffer, capacity, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (IsTimeoutErrno(errno)) {
      return Status::DeadlineExceeded("socket read deadline exceeded");
    }
    return ErrnoStatus("recv", errno);
  }
}

Status Socket::WriteAll(std::initializer_list<std::string_view> parts,
                        bool more) {
  std::vector<iovec> vectors;
  vectors.reserve(parts.size());
  for (std::string_view part : parts) {
    if (!part.empty()) {
      vectors.push_back({const_cast<char*>(part.data()), part.size()});
    }
  }
  // MSG_NOSIGNAL: a peer that closed mid-response yields EPIPE instead of
  // killing the process with SIGPIPE.
  const int flags = MSG_NOSIGNAL | (more ? MSG_MORE : 0);
  size_t next = 0;  // First vector not yet fully written.
  while (next < vectors.size()) {
    msghdr message{};
    message.msg_iov = vectors.data() + next;
    message.msg_iovlen = vectors.size() - next;
    ssize_t n = ::sendmsg(fd_, &message, flags);
    if (n > 0) {
      size_t written = static_cast<size_t>(n);
      while (next < vectors.size() && written >= vectors[next].iov_len) {
        written -= vectors[next].iov_len;
        ++next;
      }
      if (next < vectors.size()) {
        vectors[next].iov_base =
            static_cast<char*>(vectors[next].iov_base) + written;
        vectors[next].iov_len -= written;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && IsTimeoutErrno(errno)) {
      return Status::DeadlineExceeded("socket write deadline exceeded");
    }
    return ErrnoStatus("sendmsg", errno);
  }
  return Status::OK();
}

Result<bool> Socket::WaitReadable(int timeout_millis) {
  return PollOne(fd_, POLLIN, timeout_millis);
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

void ListenSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<ListenSocket> ListenSocket::BindAndListen(const std::string& host,
                                                 uint16_t port, int backlog) {
  PROST_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddress(host, port));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  ListenSocket listener;
  listener.fd_ = fd;
  // Restart-friendly: skip the TIME_WAIT rebind window.
  int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    return ErrnoStatus("setsockopt(SO_REUSEADDR)", errno);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return ErrnoStatus("bind", errno);
  }
  if (::listen(fd, backlog) != 0) return ErrnoStatus("listen", errno);
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    return ErrnoStatus("getsockname", errno);
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<bool> ListenSocket::WaitPending(int timeout_millis) {
  return PollOne(fd_, POLLIN, timeout_millis);
}

Result<Socket> ListenSocket::Accept() {
  while (true) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    return ErrnoStatus("accept", errno);
  }
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                          double deadline_seconds) {
  PROST_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddress(host, port));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  Socket socket(fd);
  // SO_SNDTIMEO bounds a blocking connect(2) on Linux, so one deadline
  // covers connect and the subsequent request/response operations.
  PROST_RETURN_IF_ERROR(socket.SetDeadline(deadline_seconds));
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    // A connect interrupted by EINTR completes in the background; the
    // retry then reports EISCONN, which is success.
    if (errno == EISCONN) break;
    if (IsTimeoutErrno(errno) || errno == EINPROGRESS) {
      return Status::DeadlineExceeded(
          StrFormat("connect %s:%u deadline exceeded", host.c_str(), port));
    }
    return ErrnoStatus("connect", errno);
  }
  PROST_RETURN_IF_ERROR(socket.SetNoDelay());
  return socket;
}

}  // namespace prost::net
