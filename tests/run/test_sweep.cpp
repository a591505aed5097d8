#include "run/sweep.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace sscl::run {
namespace {

TEST(Sweep, CollectsResultsInPointOrder) {
  std::vector<int> points;
  for (int i = 0; i < 50; ++i) points.push_back(i);
  for (int jobs : {1, 4}) {
    const auto res = sweep(
        points, [](const int& p, std::size_t) { return p * 2 + 1; }, jobs);
    ASSERT_EQ(res.results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(res.results[i], points[static_cast<int>(i)] * 2 + 1);
    }
    EXPECT_GE(res.wall_seconds, 0.0);
  }
}

TEST(Sweep, ForkedRngTasksAreBitIdenticalAcrossJobCounts) {
  // The determinism contract: randomness forked from a root seed by
  // index gives the same results at every jobs value.
  std::vector<int> points(64, 0);
  auto task = [](const int&, std::size_t i) {
    util::Rng stream = util::Rng(97).fork(i);
    double acc = 0;
    for (int k = 0; k < 16; ++k) acc += stream.gaussian();
    return acc;
  };
  const auto a = sweep(points, task, 1);
  const auto b = sweep(points, task, 8);
  EXPECT_EQ(a.results, b.results);  // bit-identical doubles
}

}  // namespace
}  // namespace sscl::run
