#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <stdexcept>

#include "util/log.hpp"

namespace sscl::serve {

namespace {

/// Wait before retrying a failed accept(): no spinning while the process
/// is out of descriptors, and a delay a client barely notices.
constexpr std::chrono::milliseconds kAcceptRetryPause{100};

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

/// Buffered reader over a blocking socket: newline-delimited lines plus
/// exact-length payload reads (the SUBMIT deck body) sharing one
/// buffer, so payload bytes that arrived with the header are not lost.
class LineReader {
 public:
  enum class Status { kLine, kClosed, kTooLong };

  explicit LineReader(int fd) : fd_(fd) {}

  /// Next line without its '\n'. kClosed on EOF/error; kTooLong once
  /// more than kMaxLineBytes have arrived without a '\n'.
  Status line(std::string& out) {
    std::size_t scanned = 0;
    for (;;) {
      const auto nl = buffer_.find('\n', scanned);
      if (nl != std::string::npos) {
        out = buffer_.substr(0, nl);
        if (!out.empty() && out.back() == '\r') out.pop_back();
        buffer_.erase(0, nl + 1);
        return Status::kLine;
      }
      if (buffer_.size() > kMaxLineBytes) return Status::kTooLong;
      scanned = buffer_.size();
      if (!fill()) return Status::kClosed;
    }
  }

  /// Exactly \p n bytes; false on EOF/error.
  bool exact(std::size_t n, std::string& out) {
    while (buffer_.size() < n) {
      if (!fill()) return false;
    }
    out = buffer_.substr(0, n);
    buffer_.erase(0, n);
    return true;
  }

 private:
  bool fill() {
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
    return true;
  }

  int fd_;
  std::string buffer_;
};

/// True for a line the client may act on before its reply ends (QUEUED
/// carries the id CANCEL needs, BEGIN and streamed WAVE points report
/// progress) and for the END line that ends every reply.
bool pushes(const std::string& line) {
  for (const char* tag : {"END ", "QUEUED ", "BEGIN ", "WAVE "}) {
    if (line.rfind(tag, 0) == 0) return true;
  }
  return false;
}

/// Write everything; best-effort (a vanished client is not an error the
/// server can act on). Accepted sockets run with TCP_NODELAY, so a line
/// that pushes leaves at once, together with the lines corked before it
/// under MSG_MORE: a reply goes out in a few segments, and none waits
/// for the client's delayed ACK.
void send_line(int fd, std::mutex& write_mu, const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mu);
  std::string framed = line;
  framed.push_back('\n');
  const int flags = MSG_NOSIGNAL | (pushes(line) ? 0 : MSG_MORE);
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::send(fd, framed.data() + sent, framed.size() - sent, flags);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

SocketServer::SocketServer(Server& core, int port) : core_(core) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    close_quietly(listen_fd_);
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    close_quietly(listen_fd_);
    throw std::runtime_error("serve: listen() failed");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

SocketServer::~SocketServer() {
  stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  close_quietly(listen_fd_);
}

void SocketServer::start() {
  accept_thread_ = std::thread([this] { run(); });
}

void SocketServer::run() {
  // A streak of failed accept() calls (say, out of descriptors) logs
  // its first failure and, once accept() succeeds again, its length.
  long long failures = 0;
  while (!stopping_.load()) {
    join_finished();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      if (failures++ == 0) {
        util::log_error("sscl-serve: accept() failed: ", std::strerror(errno),
                        "; retrying every ", kAcceptRetryPause.count(), " ms");
      }
      std::this_thread::sleep_for(kAcceptRetryPause);
      continue;
    }
    if (failures > 0) {
      util::log_error("sscl-serve: accept() succeeded again after ", failures,
                      " failed attempts");
      failures = 0;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::lock_guard<std::mutex> lock(connections_mu_);
    Connection& c = connections_.emplace_back();
    c.fd = fd;
    c.thread = std::thread([this, &c] {
      handle_connection(c.fd);
      std::lock_guard<std::mutex> done(connections_mu_);
      ::close(c.fd);
      c.fd = -1;
      c.done = true;
    });
  }
  // Kick still-connected clients loose, then wait for their handlers.
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (const Connection& c : connections_) {
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
    }
  }
  for (Connection& c : connections_) c.thread.join();
  connections_.clear();
}

void SocketServer::join_finished() {
  // A handler sets done as the last thing it does under the lock, so
  // joining it here cannot wait on the lock this holds.
  std::lock_guard<std::mutex> lock(connections_mu_);
  connections_.remove_if([](Connection& c) {
    if (c.done) c.thread.join();
    return c.done;
  });
}

void SocketServer::stop() {
  if (stopping_.exchange(true)) return;
  // Unblock accept(); the listener fd itself is closed in the dtor.
  ::shutdown(listen_fd_, SHUT_RDWR);
}

void SocketServer::handle_connection(int fd) {
  LineReader reader(fd);
  std::mutex write_mu;
  std::string line;
  while (!stopping_.load()) {
    const LineReader::Status status = reader.line(line);
    if (status == LineReader::Status::kClosed) return;
    if (status == LineReader::Status::kTooLong) {
      send_line(fd, write_mu,
                "ERROR protocol line longer than " +
                    std::to_string(kMaxLineBytes) + " bytes");
      send_line(fd, write_mu, "END error");
      return;
    }
    const Command cmd = parse_command(line);
    switch (cmd.kind) {
      case Command::Kind::kSubmit: {
        JobRequest request = cmd.request;
        if (!reader.exact(cmd.nbytes, request.deck_text)) {
          return;  // client vanished mid-payload
        }
        // One job in flight per connection: wait for the END line
        // before reading the next command, so replies never interleave.
        std::mutex done_mu;
        std::condition_variable done_cv;
        bool done = false;
        core_.submit(std::move(request), [&](const std::string& out) {
          send_line(fd, write_mu, out);
          if (out.rfind("END ", 0) == 0) {
            std::lock_guard<std::mutex> lock(done_mu);
            done = true;
            done_cv.notify_one();
          }
        });
        std::unique_lock<std::mutex> lock(done_mu);
        done_cv.wait(lock, [&] { return done; });
        break;
      }
      case Command::Kind::kCancel:
        send_line(fd, write_mu,
                  core_.cancel(cmd.job_id) ? "END ok" : "END error");
        break;
      case Command::Kind::kMetrics:
        send_line(fd, write_mu, "METRICS " + core_.metrics_json());
        send_line(fd, write_mu, "END ok");
        break;
      case Command::Kind::kStats: {
        const ServeStats s = core_.stats();
        send_line(fd, write_mu,
                  "STAT requests " + std::to_string(s.requests));
        send_line(fd, write_mu, "STAT cache.hit.elab " +
                                    std::to_string(s.cache.hits_elab));
        send_line(fd, write_mu, "STAT cache.hit.pattern " +
                                    std::to_string(s.cache.hits_pattern));
        send_line(fd, write_mu,
                  "STAT cache.miss " + std::to_string(s.cache.misses));
        send_line(fd, write_mu, "STAT cache.evictions " +
                                    std::to_string(s.cache.evictions));
        send_line(fd, write_mu,
                  "STAT cache.entries " + std::to_string(s.cache.entries));
        send_line(fd, write_mu,
                  "STAT queue.depth " + std::to_string(s.queue_depth));
        send_line(fd, write_mu, "STAT rejects " +
                                    std::to_string(s.admission_rejects));
        send_line(fd, write_mu, "STAT jobs.ok " + std::to_string(s.jobs_ok));
        send_line(fd, write_mu, "END ok");
        break;
      }
      case Command::Kind::kPing:
        send_line(fd, write_mu, "PONG");
        send_line(fd, write_mu, "END ok");
        break;
      case Command::Kind::kShutdown:
        send_line(fd, write_mu, "END ok");
        stop();
        return;
      case Command::Kind::kBad:
        send_line(fd, write_mu, "ERROR " + cmd.error);
        send_line(fd, write_mu, "END error");
        break;
    }
  }
}

Client::Client(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("serve client: socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    close_quietly(fd_);
    fd_ = -1;
    throw std::runtime_error("serve client: cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
}

Client::~Client() { close_quietly(fd_); }

void Client::send_all(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("serve client: connection lost");
    sent += static_cast<std::size_t>(n);
  }
}

Client::Reply Client::read_reply() {
  Reply reply;
  std::string line;
  for (;;) {
    const auto nl = rx_buffer_.find('\n');
    if (nl == std::string::npos) {
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got <= 0) {
        throw std::runtime_error("serve client: connection closed mid-reply");
      }
      rx_buffer_.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    line = rx_buffer_.substr(0, nl);
    rx_buffer_.erase(0, nl + 1);
    reply.lines.push_back(line);
    if (line.rfind("END ", 0) == 0) {
      reply.status = line.substr(4);
      return reply;
    }
  }
}

Client::Reply Client::submit(const JobRequest& request) {
  send_all(format_submit(request) + "\n" + request.deck_text);
  return read_reply();
}

Client::Reply Client::command(const std::string& line) {
  send_all(line + "\n");
  return read_reply();
}

}  // namespace sscl::serve
