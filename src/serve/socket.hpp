#pragma once

/// \file socket.hpp
/// Loopback TCP transport for sscl-serve (docs/SERVE.md). One thread
/// per connection; each connection processes commands sequentially, so
/// a connection has at most one job in flight and its response lines
/// never interleave (CANCEL a running job from a second connection).
/// A connection's socket is closed when its client leaves, and the
/// accept loop joins the handlers that have finished. The daemon binds
/// 127.0.0.1 only — this is a local tool-server protocol, not an
/// internet-facing service.

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace sscl::serve {

/// Longest protocol line the daemon reads (the longest legitimate one is
/// a SUBMIT header naming every node of its deck). A longer line gets
/// `ERROR` and `END error`, and the connection is closed.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

class SocketServer {
 public:
  /// Bind 127.0.0.1:\p port (0 = ephemeral) and listen. Throws
  /// std::runtime_error on failure.
  SocketServer(Server& core, int port);
  ~SocketServer();

  /// The bound port (useful with port 0).
  int port() const { return port_; }

  /// Accept loop; returns after stop() or a SHUTDOWN command, once
  /// every connection thread has been joined. A failed accept() (say,
  /// out of descriptors) is retried after a short pause; a streak of
  /// failures logs its first one and, when accept() recovers, its count.
  void run();

  /// run() on a background thread (tests).
  void start();

  /// Unblock run() and close the listener. Idempotent, thread-safe.
  void stop();

 private:
  void handle_connection(int fd);
  /// Join the handlers whose clients have left.
  void join_finished();

  Server& core_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  // One accepted client. Its handler closes the socket and sets fd to -1
  // under connections_mu_, so the shutdown kick, which walks the list
  // under that lock, never shuts down a reused descriptor number.
  struct Connection {
    int fd = -1;
    bool done = false;
    std::thread thread;
  };
  std::mutex connections_mu_;
  std::list<Connection> connections_;
  std::thread accept_thread_;  ///< set by start()
};

/// Blocking line-protocol client used by the sscl-serve CLI's
/// --connect mode and the end-to-end tests.
class Client {
 public:
  /// Connect to 127.0.0.1:\p port. Throws std::runtime_error.
  explicit Client(int port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Everything the server streamed for one command, in order. status
  /// is the END line's argument ("ok", "busy", ...); lines includes the
  /// END line itself.
  struct Reply {
    std::vector<std::string> lines;
    std::string status;
  };

  /// SUBMIT the request and block until its END line.
  Reply submit(const JobRequest& request);

  /// Send a bare command line (METRICS, STATS, PING, CANCEL <id>,
  /// SHUTDOWN) and collect its reply.
  Reply command(const std::string& line);

 private:
  void send_all(const std::string& bytes);
  Reply read_reply();

  int fd_ = -1;
  std::string rx_buffer_;
};

}  // namespace sscl::serve
