#include "spice/waveform.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace sscl::spice {
namespace {

Waveform make_ramp() {
  // One node ramping 0 -> 1 over 1 s sampled at 11 points.
  Waveform w(1);
  for (int i = 0; i <= 10; ++i) {
    w.append(i * 0.1, {i * 0.1});
  }
  return w;
}

TEST(Waveform, InterpolatesBetweenSamples) {
  const Waveform w = make_ramp();
  EXPECT_NEAR(w.at(0, 0.55), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(w.at(0, -1.0), 0.0);  // clamp below
  EXPECT_DOUBLE_EQ(w.at(0, 2.0), 1.0);   // clamp above
}

TEST(Waveform, CrossDetectsRise) {
  const Waveform w = make_ramp();
  const auto t = w.cross(0, 0.5, Edge::kRise);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 0.5, 1e-12);
  EXPECT_FALSE(w.cross(0, 0.5, Edge::kFall).has_value());
}

TEST(Waveform, CrossRespectsStartTime) {
  Waveform w(1);
  // Triangle: up, down, up.
  const double ts[] = {0, 1, 2, 3};
  const double vs[] = {0, 1, 0, 1};
  for (int i = 0; i < 4; ++i) w.append(ts[i], {vs[i]});
  const auto t1 = w.cross(0, 0.5, Edge::kRise);
  ASSERT_TRUE(t1.has_value());
  EXPECT_NEAR(*t1, 0.5, 1e-12);
  const auto t2 = w.cross(0, 0.5, Edge::kRise, 1.0);
  ASSERT_TRUE(t2.has_value());
  EXPECT_NEAR(*t2, 2.5, 1e-12);
  const auto tf = w.cross(0, 0.5, Edge::kFall);
  ASSERT_TRUE(tf.has_value());
  EXPECT_NEAR(*tf, 1.5, 1e-12);
}

TEST(Waveform, CrossingsEnumeratesAll) {
  Waveform w(1);
  for (int i = 0; i <= 100; ++i) {
    const double t = i * 0.01;
    w.append(t, {std::sin(2 * M_PI * 2.0 * t)});  // 2 Hz over 1 s
  }
  const auto rises = w.crossings(0, 0.25, Edge::kRise);
  EXPECT_EQ(rises.size(), 2u);
  const auto falls = w.crossings(0, 0.25, Edge::kFall);
  EXPECT_EQ(falls.size(), 2u);
}

TEST(Waveform, DelayBetweenSignals) {
  Waveform w(2);
  // Signal 0 rises at t=1; signal 1 rises at t=1.4.
  w.append(0.0, {0.0, 0.0});
  w.append(1.0, {0.0, 0.0});
  w.append(1.2, {1.0, 0.0});
  w.append(1.4, {1.0, 0.0});
  w.append(1.6, {1.0, 1.0});
  const auto d = w.delay(0, 0.5, Edge::kRise, 1, 0.5, Edge::kRise);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(*d, 0.4, 1e-9);
}

TEST(Waveform, MinMaxWindows) {
  const Waveform w = make_ramp();
  EXPECT_DOUBLE_EQ(w.minimum(0), 0.0);
  EXPECT_DOUBLE_EQ(w.maximum(0), 1.0);
  EXPECT_DOUBLE_EQ(w.minimum(0, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(w.peak_to_peak(0), 1.0);
}

TEST(Waveform, PeriodOfSine) {
  Waveform w(1);
  for (int i = 0; i <= 1000; ++i) {
    const double t = i * 1e-3;
    w.append(t, {std::sin(2 * M_PI * 10.0 * t)});
  }
  const auto p = w.period(0, 0.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, 0.1, 1e-3);
}

TEST(Waveform, GroundNodeReadsZero) {
  const Waveform w = make_ramp();
  EXPECT_DOUBLE_EQ(w.at(kGround, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(w.value(kGround, 3), 0.0);
}

TEST(Waveform, RejectsASampleOfAnotherLength) {
  Waveform w(2);
  w.append(0.0, {0.0, 1.0});
  EXPECT_THROW(w.append(1.0, {0.0}), std::invalid_argument);
  EXPECT_THROW(w.append(1.0, {0.0, 1.0, 2.0}), std::invalid_argument);
  w.append(1.0, {2.0, 3.0});
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.value(1, 1), 3.0);
}

TEST(Waveform, ReadsSamplesAcrossStorageBlocks) {
  // 300 rows a sample (299 nodes and one branch current), so a few
  // samples fill a block, and enough samples for three and a bit blocks.
  const int rows = 300;
  Waveform w(rows - 1);
  const std::size_t per_block =
      Waveform::kBlockBytes / (sizeof(double) * rows);
  ASSERT_GT(per_block, 1u);
  const std::size_t n = 3 * per_block + 2;
  std::vector<double> x(rows);
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < rows; ++k) x[k] = 1000.0 * i + k;
    w.append(static_cast<double>(i), x);
  }
  ASSERT_EQ(w.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(w.value(0, i), 1000.0 * i);
    EXPECT_EQ(w.value(rows - 2, i), 1000.0 * i + rows - 2);
    EXPECT_EQ(w.branch(0, i), 1000.0 * i + rows - 1);
  }
  // Interpolation between the last sample of a block and the first of
  // the next.
  const double t = static_cast<double>(per_block) - 0.5;
  EXPECT_EQ(w.at(7, t), 1000.0 * t + 7);
  EXPECT_EQ(w.signal(3).back(), 1000.0 * (n - 1) + 3);
}

TEST(Waveform, RejectsBackwardsTime) {
  Waveform w(1);
  w.append(1.0, {0.0});
  EXPECT_THROW(w.append(0.5, {0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace sscl::spice
