#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve_test_decks.hpp"

namespace {

using namespace sscl;
using namespace sscl::serve_test;

/// Daemon-on-an-ephemeral-port fixture: real TCP loopback, real wire
/// protocol, torn down per test.
class SocketServe : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::ServerOptions options;
    options.jobs = 2;
    core_ = std::make_unique<serve::Server>(options);
    transport_ = std::make_unique<serve::SocketServer>(*core_, 0);
    ASSERT_GT(transport_->port(), 0);
    transport_->start();
  }

  void TearDown() override {
    transport_->stop();
    transport_.reset();
    core_.reset();
  }

  std::unique_ptr<serve::Server> core_;
  std::unique_ptr<serve::SocketServer> transport_;
};

std::vector<std::string> payload(const serve::Client::Reply& reply) {
  std::vector<std::string> out;
  for (const std::string& line : reply.lines) {
    if (line.rfind("QUEUED", 0) == 0 || line.rfind("BEGIN", 0) == 0 ||
        line.rfind("CACHE", 0) == 0 || line.rfind("BUSY", 0) == 0 ||
        line.rfind("END", 0) == 0) {
      continue;
    }
    out.push_back(line);
  }
  return out;
}

std::string envelope_of(const serve::Client::Reply& reply, const char* tag) {
  for (const std::string& line : reply.lines) {
    if (line.rfind(tag, 0) == 0) return line;
  }
  return {};
}

TEST_F(SocketServe, PingPongs) {
  serve::Client client(transport_->port());
  const auto reply = client.command("PING");
  ASSERT_EQ(reply.lines.size(), 2u);
  EXPECT_EQ(reply.lines[0], "PONG");
  EXPECT_EQ(reply.status, "ok");
}

TEST_F(SocketServe, SubmitTwiceHitsTheCacheOverTheWire) {
  serve::Client client(transport_->port());
  serve::JobRequest request;
  request.deck_text = kRcFull;
  const auto cold = client.submit(request);
  const auto warm = client.submit(request);
  ASSERT_EQ(cold.status, "ok");
  ASSERT_EQ(warm.status, "ok");
  EXPECT_EQ(envelope_of(cold, "CACHE"), "CACHE cold");
  EXPECT_EQ(envelope_of(warm, "CACHE"), "CACHE elab");
  EXPECT_EQ(payload(cold), payload(warm));

  const auto metrics = client.command("METRICS");
  ASSERT_EQ(metrics.status, "ok");
  const std::string& json = metrics.lines[0];
  EXPECT_NE(json.find("\"serve.cache.hit.elab\":1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.cache.miss\":1"), std::string::npos);
}

TEST_F(SocketServe, RoundTripIsNotHeldByDelayedAck) {
  // A reply written as several small segments waits one delayed-ACK
  // timeout (40 ms or more on Linux) for a client that delays its ACKs,
  // as serve::Client does. Load can only slow a round trip, so the
  // fastest of ten keeps the verdict independent of load.
  serve::Client client(transport_->port());
  for (int i = 0; i < 3; ++i) ASSERT_EQ(client.command("PING").status, "ok");
  double fastest_ms = 1e9;
  for (int i = 0; i < 10; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(client.command("PING").status, "ok");
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - start;
    fastest_ms = std::min(fastest_ms, took.count());
  }
  EXPECT_LT(fastest_ms, 20.0);
}

TEST_F(SocketServe, StatsLinesAreTagged) {
  serve::Client client(transport_->port());
  serve::JobRequest request;
  request.deck_text = kDivider;
  client.submit(request);
  const auto stats = client.command("STATS");
  ASSERT_EQ(stats.status, "ok");
  bool saw_requests = false;
  for (const auto& line : stats.lines) {
    if (line == "STAT requests 1") saw_requests = true;
  }
  EXPECT_TRUE(saw_requests);
}

TEST_F(SocketServe, DeepExpressionEndsInErrorAndTheDaemonServesOn) {
  // 30,000 nested parentheses (60 KB) used to overflow the expression
  // parser's stack and take the daemon down with the job.
  serve::Client client(transport_->port());
  serve::JobRequest request;
  request.deck_text = "deep\nR1 a 0 {" + std::string(30000, '(') + "1" +
                      std::string(30000, ')') + "}\nV1 a 0 1\n.op\n.end\n";
  const auto reply = client.submit(request);
  EXPECT_EQ(reply.status, "error");
  EXPECT_NE(envelope_of(reply, "ERROR")
                .find("expression nested deeper than 1000 levels"),
            std::string::npos);
  EXPECT_EQ(client.command("PING").status, "ok");
  serve::Client next(transport_->port());
  EXPECT_EQ(next.command("PING").status, "ok");
}

TEST_F(SocketServe, TwoConnectionsShareTheCache) {
  serve::Client first(transport_->port());
  serve::JobRequest request;
  request.deck_text = kDivider;
  ASSERT_EQ(first.submit(request).status, "ok");

  serve::Client second(transport_->port());
  const auto warm = second.submit(request);
  EXPECT_EQ(envelope_of(warm, "CACHE"), "CACHE elab");
}

TEST_F(SocketServe, ConcurrentConnectionsAllComplete) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> statuses(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &statuses] {
      serve::Client client(transport_->port());
      serve::JobRequest request;
      request.deck_text = kRcFull;
      request.client = "c" + std::to_string(i);
      statuses[static_cast<std::size_t>(i)] = client.submit(request).status;
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& status : statuses) EXPECT_EQ(status, "ok");
  EXPECT_EQ(core_->stats().jobs_ok, kClients);
}

TEST_F(SocketServe, CancelFromASecondConnection) {
  serve::Client submitter(transport_->port());
  serve::JobRequest request;
  request.deck_text = kSlowTran;

  std::thread canceller([this] {
    // The submitter's QUEUED line carries id 1 (first job).
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    serve::Client side(transport_->port());
    const auto reply = side.command("CANCEL 1");
    EXPECT_EQ(reply.status, "ok");
  });
  const auto reply = submitter.submit(request);
  canceller.join();
  EXPECT_EQ(reply.status, "cancelled");
}

TEST_F(SocketServe, CancelUnknownIdIsAnError) {
  serve::Client client(transport_->port());
  EXPECT_EQ(client.command("CANCEL 999").status, "error");
}

TEST_F(SocketServe, MalformedCommandGetsErrorLine) {
  serve::Client client(transport_->port());
  const auto reply = client.command("FROBNICATE");
  EXPECT_EQ(reply.status, "error");
  EXPECT_NE(envelope_of(reply, "ERROR"), "");
}

int open_descriptors() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST_F(SocketServe, ClosedConnectionsReleaseTheirDescriptors) {
  // Each connection's socket used to stay open until shutdown, so 200
  // clients left 200 descriptors behind.
  const int baseline = open_descriptors();
  for (int i = 0; i < 200; ++i) {
    serve::Client client(transport_->port());
    ASSERT_EQ(client.command("PING").status, "ok");
  }
  // The last handlers close their sockets once they see their clients
  // leave; poll for that instead of sleeping a fixed time.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int open = open_descriptors();
  while (open > baseline + 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    open = open_descriptors();
  }
  EXPECT_LE(open, baseline + 2);
}

TEST_F(SocketServe, OverlongLineEndsInErrorAndTheDaemonServesOn) {
  // A client that never sends '\n' used to grow the daemon's line buffer
  // without limit. A raw socket sends one byte past the bound; the
  // receive timeout turns a daemon that keeps waiting into a failure.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(transport_->port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::string line(serve::kMaxLineBytes + 1, 'x');
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char chunk[256];
  while (reply.find("END ") == std::string::npos) {
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
    if (got <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_EQ(reply.rfind("ERROR protocol line longer than", 0), 0u) << reply;
  EXPECT_NE(reply.find("END error\n"), std::string::npos) << reply;

  serve::Client next(transport_->port());
  EXPECT_EQ(next.command("PING").status, "ok");
}

TEST_F(SocketServe, ShutdownStopsTheAcceptLoop) {
  {
    serve::Client client(transport_->port());
    EXPECT_EQ(client.command("SHUTDOWN").status, "ok");
  }
  // After SHUTDOWN the listener is gone: a fresh connection must fail.
  // (Give the accept loop a moment to unwind.)
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_THROW(serve::Client reconnect(transport_->port()),
               std::runtime_error);
}

}  // namespace
