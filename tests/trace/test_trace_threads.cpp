#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <string>
#include <vector>

#include "run/parallel_for.hpp"
#include "run/sweep.hpp"
#include "run/thread_pool.hpp"
#include "trace/trace.hpp"

// Concurrency behaviour of the trace layer, driven through the real
// sscl::run primitives. This suite is part of the ThreadSanitizer CI
// target: spans, counters and snapshots from many threads must be
// data-race free.

namespace sscl::trace {
namespace {

class TraceThreadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disable();
    reset();
  }
  void TearDown() override {
    disable();
    set_ring_capacity(32768);
    reset();
  }
};

TEST_F(TraceThreadsTest, ThreadPoolTasksRecordOnNamedWorkerLanes) {
  enable();
  {
    run::ThreadPool pool(3);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 24; ++i) {
      futures.push_back(pool.submit([] {
        Span span("unit-task", "test");
      }));
    }
    for (auto& f : futures) f.get();
  }
  // The pool is destroyed: worker lanes must survive in the snapshot.
  const Snapshot snap = snapshot();
  std::set<std::string> lanes;
  std::size_t task_spans = 0;
  for (const ThreadSnapshot& t : snap.threads) {
    for (const Event& e : t.events) {
      if (std::string(e.name) == "unit-task") {
        ++task_spans;
        lanes.insert(t.name);
      }
    }
  }
  EXPECT_EQ(task_spans, 24u);
  for (const std::string& lane : lanes) {
    EXPECT_EQ(lane.rfind("worker-", 0), 0u) << "unexpected lane " << lane;
  }
  // ThreadPool::worker_loop also wraps every task in a "task" span.
  std::size_t pool_spans = 0;
  for (const ThreadSnapshot& t : snap.threads) {
    for (const Event& e : t.events) {
      if (std::string(e.category) == "task") ++pool_spans;
    }
  }
  EXPECT_GE(pool_spans, 24u);
}

TEST_F(TraceThreadsTest, SpanNestingStaysPerThread) {
  enable();
  // Each worker nests inner inside outer; lanes must never interleave
  // events across threads (inner recorded on the same lane as its outer).
  run::parallel_for(16, 4, [](std::size_t i) {
    Span outer("outer", "test", "i", static_cast<long long>(i));
    Span inner("inner", "test", "i", static_cast<long long>(i));
  });
  const Snapshot snap = snapshot();
  std::size_t pairs = 0;
  for (const ThreadSnapshot& t : snap.threads) {
    std::size_t outers = 0, inners = 0;
    for (const Event& e : t.events) {
      if (std::string(e.name) == "outer") ++outers;
      if (std::string(e.name) == "inner") ++inners;
    }
    EXPECT_EQ(outers, inners) << "lane " << t.tid;
    pairs += outers;
  }
  EXPECT_EQ(pairs, 16u);
}

TEST_F(TraceThreadsTest, CountersAreRaceFreeAcrossWorkers) {
  enable();
  static Counter hits("test.concurrent_hits");
  run::parallel_for(64, 4, [](std::size_t) {
    for (int k = 0; k < 100; ++k) hits.add();
  });
  const Snapshot snap = snapshot();
  long long total = -1;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.concurrent_hits") total = value;
  }
  EXPECT_EQ(total, 6400);
}

TEST_F(TraceThreadsTest, SnapshotWhileRecordingIsConsistent) {
  enable();
  std::atomic<bool> stop{false};
  run::ThreadPool pool(2);
  auto writer = pool.submit([&stop] {
    while (!stop.load()) {
      Span span("background", "test");
    }
  });
  // Concurrent snapshots must observe only fully written events.
  for (int i = 0; i < 50; ++i) {
    const Snapshot snap = snapshot();
    for (const ThreadSnapshot& t : snap.threads) {
      for (const Event& e : t.events) {
        ASSERT_NE(e.name, nullptr);
        ASSERT_NE(e.category, nullptr);
      }
    }
  }
  stop = true;
  writer.get();
}

TEST_F(TraceThreadsTest, SweepPointsTraceTheirIndex) {
  enable();
  std::vector<int> points{10, 11, 12, 13, 14, 15};
  auto result = run::sweep(
      points, [](const int& p, std::size_t) { return p * 2; }, 3);
  ASSERT_EQ(result.results.size(), 6u);

  const Snapshot snap = snapshot();
  std::set<long long> indices;
  for (const ThreadSnapshot& t : snap.threads) {
    for (const Event& e : t.events) {
      if (std::string(e.name) == "sweep_point") indices.insert(e.arg);
    }
  }
  EXPECT_EQ(indices, (std::set<long long>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace sscl::trace
