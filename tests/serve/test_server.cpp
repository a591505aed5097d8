#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve_test_decks.hpp"

namespace {

using namespace sscl;
using namespace sscl::serve_test;
using serve::Server;
using serve::ServerOptions;

struct Reply {
  std::vector<std::string> lines;
  std::string status;
  serve::Scheduler::Admit admit;
};

/// Submit and block until the END line; safe to call from any thread.
Reply submit_sync(Server& server, serve::JobRequest request) {
  auto state = std::make_shared<Reply>();
  auto mu = std::make_shared<std::mutex>();
  auto cv = std::make_shared<std::condition_variable>();
  auto done = std::make_shared<bool>(false);
  state->admit = server.submit(
      std::move(request), [state, mu, cv, done](const std::string& line) {
        std::lock_guard<std::mutex> lock(*mu);
        state->lines.push_back(line);
        if (line.rfind("END ", 0) == 0) {
          *done = true;
          cv->notify_all();
        }
      });
  std::unique_lock<std::mutex> lock(*mu);
  cv->wait(lock, [&] { return *done; });
  state->status = state->lines.back().substr(4);
  return *state;
}

/// The byte-comparable result rows: envelope lines (QUEUED/BEGIN/CACHE/
/// BUSY/END) carry ids and tier labels and are stripped.
std::vector<std::string> payload(const Reply& reply) {
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

std::string envelope_of(const Reply& reply, const char* tag) {
  for (const std::string& line : reply.lines) {
    if (line.rfind(tag, 0) == 0) return line;
  }
  return {};
}

ServerOptions quick_options(int jobs) {
  ServerOptions options;
  options.jobs = jobs;
  return options;
}

serve::JobRequest deck_request(const char* deck) {
  serve::JobRequest request;
  request.deck_text = deck;
  return request;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::istringstream in(read_file(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(Server, QueuedLineAlwaysPrecedesBegin) {
  Server server(quick_options(2));
  for (int i = 0; i < 8; ++i) {
    const Reply reply = submit_sync(server, deck_request(kDivider));
    ASSERT_GE(reply.lines.size(), 2u);
    EXPECT_EQ(reply.lines[0].rfind("QUEUED", 0), 0u) << reply.lines[0];
    EXPECT_EQ(reply.lines[1].rfind("BEGIN", 0), 0u) << reply.lines[1];
  }
}

TEST(Server, WarmResubmissionHitsTheCacheWithIdenticalPayload) {
  Server server(quick_options(2));
  const Reply cold = submit_sync(server, deck_request(kRcFull));
  const Reply warm = submit_sync(server, deck_request(kRcFull));
  ASSERT_EQ(cold.status, "ok");
  ASSERT_EQ(warm.status, "ok");
  EXPECT_EQ(envelope_of(cold, "CACHE"), "CACHE cold");
  EXPECT_EQ(envelope_of(warm, "CACHE"), "CACHE elab");
  EXPECT_EQ(payload(cold), payload(warm));

  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.cache.hits_elab, 1);
  EXPECT_EQ(stats.cache.misses, 1);
  EXPECT_EQ(stats.jobs_ok, 2);
}

TEST(Server, WhitespaceEditHitsTopologyEditMisses) {
  Server server(quick_options(2));
  submit_sync(server, deck_request(kDivider));
  const Reply ws = submit_sync(server, deck_request(kDividerWhitespace));
  EXPECT_EQ(envelope_of(ws, "CACHE"), "CACHE elab");
  const Reply topo = submit_sync(server, deck_request(kDividerTopologyEdit));
  EXPECT_EQ(envelope_of(topo, "CACHE"), "CACHE cold");
}

TEST(Server, ConcurrentClientsMatchSerialByteForByte) {
  // Pattern-tier pivot adoption is Newton-tolerance reproducible, not
  // bit-identical (cache.hpp), and whether a sibling adopts depends on
  // submission timing — so the byte-identity contract is stated and
  // tested with adoption off. docs/SERVE.md spells this out.
  ServerOptions serial_options = quick_options(1);
  serial_options.adopt_pattern = false;

  // Serial reference: every deck through a fresh single-worker server.
  const std::vector<std::string> decks = {kDivider, kDividerParamEdit,
                                          kRcFull, kDividerTopologyEdit};
  std::vector<std::vector<std::string>> reference;
  {
    Server serial(serial_options);
    for (const auto& deck : decks) {
      reference.push_back(payload(submit_sync(serial, deck_request(deck.c_str()))));
    }
  }

  // Concurrent run: 4 clients x 3 repeats of their deck, 4 workers.
  ServerOptions concurrent_options = quick_options(4);
  concurrent_options.adopt_pattern = false;
  Server server(concurrent_options);
  constexpr int kRepeats = 3;
  std::vector<std::vector<std::string>> got(decks.size() * kRepeats);
  std::vector<std::thread> clients;
  for (std::size_t d = 0; d < decks.size(); ++d) {
    clients.emplace_back([&, d] {
      for (int r = 0; r < kRepeats; ++r) {
        serve::JobRequest request;
        request.deck_text = decks[d];
        request.client = "client-" + std::to_string(d);
        got[d * kRepeats + r] = payload(submit_sync(server, request));
      }
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t d = 0; d < decks.size(); ++d) {
    for (int r = 0; r < kRepeats; ++r) {
      EXPECT_EQ(got[d * kRepeats + r], reference[d])
          << "deck " << d << " repeat " << r;
    }
  }
  // Repeats of the 4 distinct decks must have been served by the cache.
  EXPECT_GE(server.stats().cache.hits_elab,
            static_cast<long long>(decks.size() * (kRepeats - 1)));
}

TEST(Server, BackpressureRejectsWithBusyAndRetryHint) {
  ServerOptions options = quick_options(1);
  options.queue_depth = 1;
  Server server(options);

  // Saturate: one slow job running, one queued; further submissions
  // must bounce with BUSY. Submit asynchronously (no waiting).
  std::mutex mu;
  std::vector<std::string> ends;
  std::condition_variable cv;
  auto async_sink = [&](const std::string& line) {
    if (line.rfind("END ", 0) == 0) {
      std::lock_guard<std::mutex> lock(mu);
      ends.push_back(line);
      cv.notify_all();
    }
  };
  int rejected = 0;
  serve::Scheduler::Admit last_reject;
  for (int i = 0; i < 4; ++i) {
    const auto admit = server.submit(deck_request(kSlowTran), async_sink);
    if (!admit.accepted) {
      ++rejected;
      last_reject = admit;
    }
  }
  ASSERT_GE(rejected, 2);  // 4 submitted, at most 1 running + 1 queued
  EXPECT_GT(last_reject.retry_after_ms, 0);
  EXPECT_GE(server.stats().admission_rejects, 2);

  // Rejected submissions already got END busy synchronously.
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(static_cast<int>(ends.size()), rejected);
    for (const auto& line : ends) EXPECT_EQ(line, "END busy");
  }
  // stop() fires the tokens: the accepted slow jobs drain as cancelled.
  server.stop();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return static_cast<int>(ends.size()) == 4; });
}

TEST(Server, TimeoutProducesEndTimeout) {
  Server server(quick_options(1));
  serve::JobRequest request;
  request.deck_text = kSlowTran;
  request.timeout_ms = 100;
  const Reply reply = submit_sync(server, request);
  EXPECT_EQ(reply.status, "timeout");
  EXPECT_EQ(server.stats().jobs_timeout, 1);
}

TEST(Server, ServerDefaultTimeoutApplies) {
  ServerOptions options = quick_options(1);
  options.default_timeout_ms = 100;
  Server server(options);
  const Reply reply = submit_sync(server, deck_request(kSlowTran));
  EXPECT_EQ(reply.status, "timeout");
}

TEST(Server, CancelRunningJobProducesEndCancelled) {
  Server server(quick_options(1));
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> lines;
  bool done = false;
  const auto admit =
      server.submit(deck_request(kSlowTran), [&](const std::string& line) {
        std::lock_guard<std::mutex> lock(mu);
        lines.push_back(line);
        if (line.rfind("END ", 0) == 0) {
          done = true;
          cv.notify_all();
        }
      });
  ASSERT_TRUE(admit.accepted);
  // Give the transient a moment to actually start before cancelling.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(server.cancel(admit.id));
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_EQ(lines.back(), "END cancelled");
  // Admission runs this sink under the scheduler lock, which stats()
  // takes too: release mu first so both paths lock in the same order.
  lock.unlock();
  EXPECT_EQ(server.stats().jobs_cancelled, 1);
}

TEST(Server, CancelledDeckStaysCachedAndRunsCleanAfterwards) {
  // A cancelled run must not poison the cached engine: the next job on
  // the same entry resets the runtime state and completes normally.
  Server server(quick_options(1));
  serve::JobRequest request;
  request.deck_text = kRcFull;
  request.timeout_ms = 1;  // expires almost immediately
  const Reply aborted = submit_sync(server, request);
  EXPECT_TRUE(aborted.status == "timeout" || aborted.status == "ok");

  const Reply clean = submit_sync(server, deck_request(kRcFull));
  ASSERT_EQ(clean.status, "ok");
  // And the payload matches a cold reference run bit for bit.
  Server reference(quick_options(1));
  EXPECT_EQ(payload(clean), payload(submit_sync(reference, deck_request(kRcFull))));
}

TEST(Server, MalformedDeckReportsErrorWithoutCaching) {
  Server server(quick_options(1));
  const Reply reply = submit_sync(server, deck_request(kBadModel));
  EXPECT_EQ(reply.status, "error");
  EXPECT_NE(envelope_of(reply, "ERROR"), "");
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.jobs_error, 1);
  EXPECT_EQ(stats.cache.entries, 0);
}

TEST(Server, MetricsJsonCarriesTheServeCounters) {
  Server server(quick_options(1));
  submit_sync(server, deck_request(kDivider));
  submit_sync(server, deck_request(kDivider));
  const std::string json = server.metrics_json();
  EXPECT_NE(json.find("\"serve.requests\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"serve.cache.hit.elab\":1"), std::string::npos);
  EXPECT_NE(json.find("\"serve.cache.miss\":1"), std::string::npos);
  EXPECT_NE(json.find("\"serve.jobs.ok\":2"), std::string::npos);
  EXPECT_NE(json.find("\"serve.latency.p50_ms\":"), std::string::npos);
}

TEST(Server, NodeSelectionLimitsTheReportedColumns) {
  Server server(quick_options(1));
  serve::JobRequest request;
  request.deck_text = kDivider;
  request.nodes = {"out", "nosuchnode"};
  const Reply reply = submit_sync(server, request);
  ASSERT_EQ(reply.status, "ok");
  int op_lines = 0;
  bool warned = false;
  for (const auto& line : reply.lines) {
    if (line.rfind("OP ", 0) == 0) ++op_lines;
    if (line.rfind("WARN", 0) == 0 &&
        line.find("nosuchnode") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_EQ(op_lines, 1);  // only v(out)
  EXPECT_TRUE(warned);
}

TEST(Server, StreamEveryEmitsWaveLines) {
  Server server(quick_options(1));
  serve::JobRequest request;
  request.deck_text = kRcFull;
  request.nodes = {"out"};
  request.stream_every = 10;
  const Reply reply = submit_sync(server, request);
  ASSERT_EQ(reply.status, "ok");
  int waves = 0;
  for (const auto& line : reply.lines) {
    if (line.rfind("WAVE ", 0) == 0) ++waves;
  }
  EXPECT_GT(waves, 1);
}

TEST(Server, DcSourceNameIsCaseInsensitive) {
  // The deck spells the source v1 and the .dc card V1: the sweep runs,
  // with no unknown-source warning, and the dc measure sees it.
  Server server(quick_options(1));
  const Reply reply = submit_sync(server, deck_request("* mixed case\n"
                                                       "v1 in 0 1\n"
                                                       "r1 in out 1k\n"
                                                       "r2 out 0 1k\n"
                                                       ".dc V1 0 1 0.5\n"
                                                       ".measure dc vo find "
                                                       "v(out) at=1\n"
                                                       ".end\n"));
  ASSERT_EQ(reply.status, "ok");
  int dc_lines = 0;
  for (const std::string& line : payload(reply)) {
    EXPECT_NE(line.rfind("WARN", 0), 0u) << line;
    if (line.rfind("DC ", 0) == 0) ++dc_lines;
  }
  EXPECT_EQ(dc_lines, 3);
  const std::string measure = envelope_of(reply, "MEASURE");
  EXPECT_EQ(measure.rfind("MEASURE vo,", 0), 0u) << measure;
  EXPECT_EQ(measure.find("failed"), std::string::npos) << measure;
}

TEST(Server, EveryCardPayloadMatchesGoldenColdAndWarm) {
  // Every analysis card the runner executes, in deck order, with one
  // unknown report node and WAVE streaming: the cold reply and the warm
  // elab-tier reply both match the committed payload byte for byte.
  const std::vector<std::string> golden =
      read_lines(SSCL_SERVE_GOLDEN_DIR "/every_card.payload");
  ASSERT_FALSE(golden.empty());
  serve::JobRequest request;
  request.deck_text = read_file(SSCL_EXAMPLE_DECK_DIR "/every_card.sp");
  request.nodes = {"out", "nosuch", "in"};
  request.stream_every = 7;
  Server server(quick_options(1));
  const Reply cold = submit_sync(server, request);
  const Reply warm = submit_sync(server, request);
  ASSERT_EQ(cold.status, "ok");
  ASSERT_EQ(warm.status, "ok");
  EXPECT_EQ(envelope_of(cold, "CACHE"), "CACHE cold");
  EXPECT_EQ(envelope_of(warm, "CACHE"), "CACHE elab");
  EXPECT_EQ(payload(cold), golden);
  EXPECT_EQ(payload(warm), golden);
}

}  // namespace
