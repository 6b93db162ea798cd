#ifndef PROST_NET_SERVER_H_
#define PROST_NET_SERVER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/http.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/session_manager.h"

/// The SPARQL protocol endpoint (DESIGN.md §13): a blocking-accept TCP
/// listener feeding a bounded pool of connection handlers, each of which
/// speaks HTTP/1.1 and funnels every query through the SessionManager's
/// admission control. The server owns sockets and threads; all query
/// semantics (admission, budgets, execution) stay in the serve layer.
///
/// Routes:
///   GET  /sparql?query=…   — SPARQL protocol query (URL-encoded)
///   POST /sparql           — body is the query (application/sparql-query)
///                            or query=… (x-www-form-urlencoded)
///   GET  /healthz          — liveness: "ok\n"
///   GET  /metrics          — JSON: {"db":…, "serve":…, "net":…}
///
/// Results are SPARQL 1.1 JSON or TSV by Accept header; execution errors
/// map through HttpStatusForStatus (503s carry Retry-After).

namespace prost::net {

struct ServerOptions {
  /// IPv4 listen address. Loopback by default: this is a cluster-internal
  /// endpoint, exposing it wider is an explicit operator decision.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the outcome from port().
  uint16_t port = 0;
  /// Connection-handler pool size: connections served concurrently.
  /// (Query concurrency is the SessionManager's max_in_flight; handlers
  /// beyond it just park in admission like any other caller.)
  int handler_threads = 4;
  /// Accepted connections waiting for a free handler. Overflow gets an
  /// immediate 503 + close — never an unbounded backlog.
  size_t max_pending_connections = 64;
  /// HTTP parser limits (request line 431 / headers 431 / body 413).
  HttpLimits http_limits;
  /// Per-request deadline, enforced two ways: SO_RCVTIMEO/SO_SNDTIMEO on
  /// the connection socket bound every blocking read/write, and the
  /// handler's read loop 408s a request whose bytes have been trickling
  /// in for longer than this.
  double request_deadline_seconds = 30.0;
  /// Keep-alive connections idle longer than this are closed.
  double idle_timeout_seconds = 30.0;
  /// Graceful-drain window: after Shutdown, requests that complete on
  /// already-open connections within this window are answered with
  /// 503 + Retry-After instead of a slammed door.
  double drain_grace_seconds = 0.5;
};

/// Lifecycle: construct → Start() → (serve) → Shutdown().
///
/// Contracts:
///  * Start binds and begins accepting; port() is then the bound port
///    (resolving an ephemeral request).
///  * Shutdown is graceful and idempotent: stop accepting, answer late
///    requests on open connections with 503 + Retry-After for the drain
///    grace window, finish every in-flight response (never truncate),
///    then close connections and join all threads. The SessionManager is
///    NOT shut down — it belongs to the caller.
///  * Locking — mu_ (rank kNetServer, outermost) guards lifecycle state
///    and the pending-connection queue only; it is never held across a
///    request execution or a socket transfer.
class Server {
 public:
  /// `sessions` must outlive the server and remain running until after
  /// Shutdown() returns.
  Server(serve::SessionManager& sessions, ServerOptions options);
  /// Runs Shutdown().
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the acceptor + handler threads. Fails
  /// (kIOError / kInvalidArgument) without leaking threads.
  Status Start();

  /// Graceful drain; see class contract. Blocks until all threads join.
  void Shutdown();

  /// The bound port; valid after Start() succeeded.
  uint16_t port() const { return port_; }

  bool draining() const;

  /// Transport metrics: net.connections_accepted / handled /
  /// rejected_pending_full counters, net.requests / net.responses.<1xx..5xx
  /// class counters, net.responses.aborted (streamed bodies cut after the
  /// head was sent), net.drain_rejected, and the net.pending_connections /
  /// net.active_connections gauges. Thread-safe.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  enum class State { kIdle, kRunning, kDraining, kStopped };

  void AcceptLoop();
  void HandlerLoop();
  /// Serves one connection to completion (keep-alive loop included).
  void ServeConnection(Socket socket);

  /// Writes `response` and counts its status class. A streamed body goes
  /// out as HTTP/1.1 chunks, or close-delimited to an HTTP/1.0 peer
  /// (which clears keep_alive). A producer failure before the first piece
  /// becomes a 500; after it, the stream is cut, net.responses.aborted
  /// counts it, keep_alive is cleared and the error returned. Non-OK
  /// means the connection must close.
  Status Send(Socket& socket, bool http11, HttpResponse& response);

  /// Routing + execution for one parsed request. Never touches mu_.
  HttpResponse Route(const HttpRequest& request);
  HttpResponse HandleSparql(const HttpRequest& request);
  HttpResponse HandleMetrics();
  HttpResponse ErrorResponse(int http_status, std::string_view code,
                             std::string_view message);

  /// Seconds since Shutdown flipped the state to kDraining; +inf-like
  /// large value when not draining.
  double SecondsSinceDrainStarted() const;

  serve::SessionManager& sessions_;
  const ServerOptions options_;
  uint16_t port_ = 0;

  mutable Mutex<LockRank::kNetServer> mu_;
  /// Handlers wait here for pending connections; Shutdown broadcasts.
  CondVar pending_cv_;
  State state_ PROST_GUARDED_BY(mu_) = State::kIdle;
  std::deque<Socket> pending_ PROST_GUARDED_BY(mu_);
  /// True until the acceptor has handed its last connection to pending_
  /// and closed the listener; handlers stay up while it is set.
  bool accepting_ PROST_GUARDED_BY(mu_) = false;
  /// Connections currently owned by a handler (drives the gauge).
  int active_connections_ PROST_GUARDED_BY(mu_) = 0;
  /// Set once the winning Shutdown caller has joined everything, so
  /// concurrent Shutdown callers can block until the drain truly ended.
  bool shutdown_complete_ PROST_GUARDED_BY(mu_) = false;
  /// steady_clock::now() at drain start, as a duration count in seconds
  /// (stored flat so the header stays <chrono>-free).
  double drain_started_seconds_ PROST_GUARDED_BY(mu_) = 0;

  ListenSocket listener_;
  std::thread acceptor_;
  std::vector<std::thread> handlers_;

  /// Internally synchronized (own leaf mutex + atomic handles).
  mutable obs::MetricsRegistry metrics_;
};

}  // namespace prost::net

#endif  // PROST_NET_SERVER_H_
