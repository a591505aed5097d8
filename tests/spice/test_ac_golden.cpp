// AC and noise against tests/spice/golden/ac_dense.csv, the results of
// the dense complex LU they used to solve on (ac_golden_cases.hpp).
// Each frequency point is compared normwise, max |dx| / max |x|.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ac_golden_cases.hpp"

namespace sscl::spice {
namespace {

// The sparse LU factors in another order than the dense one did, so
// results agree to roundoff, not bit for bit.
constexpr double kAcGoldenTol = 1e-12;

std::map<std::string, std::vector<AcGoldenRow>> read_ac_golden() {
  std::map<std::string, std::vector<AcGoldenRow>> golden;
  std::ifstream in(std::string(SSCL_SPICE_GOLDEN_DIR) + "/ac_dense.csv");
  EXPECT_TRUE(in.good()) << "missing golden ac_dense.csv";
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::stringstream ss(line);
    std::string name, quantity, f, index, re, im;
    std::getline(ss, name, ',');
    std::getline(ss, quantity, ',');
    std::getline(ss, f, ',');
    std::getline(ss, index, ',');
    std::getline(ss, re, ',');
    std::getline(ss, im, ',');
    golden[name].push_back({quantity, std::stod(f), std::stoi(index),
                            {std::stod(re), std::stod(im)}});
  }
  return golden;
}

/// Normwise distance of one group of rows (one frequency point, or the
/// source contributions) from its golden.
double normwise(const std::vector<AcGoldenRow>& got,
                const std::vector<AcGoldenRow>& want, std::size_t begin,
                std::size_t end) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t k = begin; k < end; ++k) {
    diff = std::max(diff, std::abs(got[k].value - want[k].value));
    scale = std::max(scale, std::abs(want[k].value));
  }
  return scale > 0.0 ? diff / scale : diff;
}

void expect_matches_golden(const std::string& name) {
  static const auto golden = read_ac_golden();
  const auto cases = ac_golden_cases();
  const auto gc = std::find_if(cases.begin(), cases.end(),
                               [&](const AcGoldenCase& c) {
                                 return c.name == name;
                               });
  ASSERT_NE(gc, cases.end()) << name;
  const auto want = golden.find(name);
  ASSERT_NE(want, golden.end()) << "no golden rows for " << name;
  const std::vector<AcGoldenRow> got = run_ac_golden_case(*gc);
  const std::vector<AcGoldenRow>& rows = want->second;
  ASSERT_EQ(got.size(), rows.size()) << name;

  // Groups are runs of rows with one quantity and frequency; an s_out
  // group is a single point.
  std::size_t begin = 0;
  while (begin < rows.size()) {
    std::size_t end = begin + 1;
    while (end < rows.size() && rows[end].quantity == rows[begin].quantity &&
           rows[end].frequency == rows[begin].frequency &&
           rows[begin].quantity != "s_out") {
      ++end;
    }
    for (std::size_t k = begin; k < end; ++k) {
      ASSERT_EQ(got[k].quantity, rows[k].quantity);
      ASSERT_EQ(got[k].frequency, rows[k].frequency);
      ASSERT_EQ(got[k].index, rows[k].index);
    }
    EXPECT_LE(normwise(got, rows, begin, end), kAcGoldenTol)
        << name << " " << rows[begin].quantity << " at f = "
        << rows[begin].frequency;
    begin = end;
  }
}

TEST(AcGolden, RcLowPass) { expect_matches_golden("rc_low_pass"); }
TEST(AcGolden, RcPhaseAtPole) { expect_matches_golden("rc_phase_at_pole"); }
TEST(AcGolden, RlcResonance) { expect_matches_golden("rlc_resonance"); }
TEST(AcGolden, VcvsAmplifier) { expect_matches_golden("vcvs_amplifier"); }
TEST(AcGolden, MagnitudeDb) { expect_matches_golden("magnitude_db"); }
TEST(AcGolden, PreampAc) { expect_matches_golden("preamp_ac"); }
TEST(AcGolden, EveryLoadAcOverride) { expect_matches_golden("every_load_ac"); }

TEST(AcGolden, NoiseKtOverC) {
  expect_matches_golden("kt_over_c_r3");
  expect_matches_golden("kt_over_c_r5");
  expect_matches_golden("kt_over_c_r7");
}
TEST(AcGolden, NoiseWhiteBelowPole) {
  expect_matches_golden("white_below_pole");
}
TEST(AcGolden, NoiseTwoResistors) { expect_matches_golden("two_resistors"); }
TEST(AcGolden, NoiseMosChannelShot) {
  expect_matches_golden("mos_channel_shot");
}
TEST(AcGolden, NoisePreamp) {
  expect_matches_golden("preamp_floor");
  expect_matches_golden("preamp_wide");
}
TEST(AcGolden, NoiseEveryLoadAcOverride) {
  expect_matches_golden("every_load_ac_noise");
}

}  // namespace
}  // namespace sscl::spice
