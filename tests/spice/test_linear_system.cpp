#include "spice/linear_system.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace sscl::spice {
namespace {

struct Entry {
  int r, c;
  double v;
};

/// Reserve every entry, freeze the pattern and stamp the values in
/// order (a repeated entry shares one slot, so its stamps accumulate).
/// Returns the slot of each entry.
std::vector<MatrixSlot> stamp(LinearSystem& sys,
                              const std::vector<Entry>& entries) {
  std::vector<MatrixSlot> slots;
  for (const Entry& e : entries) slots.push_back(sys.reserve(e.r, e.c));
  sys.finalize_pattern();
  for (std::size_t k = 0; k < entries.size(); ++k) {
    sys.add_at(slots[k], entries[k].v);
  }
  return slots;
}

void stamp_rhs(LinearSystem& sys, const std::vector<double>& b) {
  for (int r = 0; r < static_cast<int>(b.size()); ++r) {
    sys.add_rhs_at(sys.reserve_rhs(r), b[r]);
  }
}

TEST(LinearSystem, SolvesSmallSystem) {
  LinearSystem sys(3);
  // [4 1 0; 1 3 1; 0 1 2] x = b with x = (1, 2, 3)
  stamp(sys, {{0, 0, 4},
              {0, 1, 1},
              {1, 0, 1},
              {1, 1, 3},
              {1, 2, 1},
              {2, 1, 1},
              {2, 2, 2}});
  stamp_rhs(sys, {4 + 2, 1 + 6 + 3, 2 + 6});
  std::vector<double> x;
  ASSERT_TRUE(sys.solve(x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(LinearSystem, AccumulatesDuplicateStamps) {
  LinearSystem sys(1);
  const std::vector<MatrixSlot> slots = stamp(sys, {{0, 0, 1.0}, {0, 0, 2.0}});
  EXPECT_EQ(slots[0], slots[1]);
  stamp_rhs(sys, {6.0});
  std::vector<double> x;
  ASSERT_TRUE(sys.solve(x));
  EXPECT_NEAR(x[0], 2.0, 1e-12);
}

TEST(LinearSystem, PivotsZeroDiagonal) {
  LinearSystem sys(2);
  stamp(sys, {{0, 1, 1.0}, {1, 0, 2.0}});
  stamp_rhs(sys, {3.0, 8.0});
  std::vector<double> x;
  ASSERT_TRUE(sys.solve(x));
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinearSystem, DetectsSingular) {
  LinearSystem sys(2);
  stamp(sys, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 4.0}});
  std::vector<double> x;
  EXPECT_FALSE(sys.solve(x));
}

TEST(LinearSystem, StructurallySingularFails) {
  LinearSystem sys(3);
  // Row/column 2 left empty.
  stamp(sys, {{0, 0, 1.0}, {1, 1, 1.0}});
  std::vector<double> x;
  EXPECT_FALSE(sys.solve(x));
}

TEST(LinearSystem, ClearKeepsPatternAndRefactors) {
  LinearSystem sys(2);
  const std::vector<MatrixSlot> s = stamp(sys, {{0, 0, 1.0}, {1, 1, 1.0}});
  std::vector<double> x;
  ASSERT_TRUE(sys.solve(x));
  sys.clear();
  sys.add_at(s[0], 2.0);
  sys.add_at(s[1], 4.0);
  stamp_rhs(sys, {2.0, 8.0});
  ASSERT_TRUE(sys.solve(x));
  EXPECT_TRUE(sys.last_factor_was_numeric());
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

// Property-style check: random sparse diagonally dominant systems agree
// with a brute-force dense solve across a size sweep.
class SparseRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseRandomTest, MatchesDenseReference) {
  const int n = GetParam();
  util::Rng rng(1000 + n);
  std::vector<Entry> entries;
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));

  // Tridiagonal-ish plus random fill: resembles an MNA pattern.
  for (int i = 0; i < n; ++i) {
    auto put = [&](int r, int c, double v) {
      entries.push_back({r, c, v});
      dense[r][c] += v;
    };
    put(i, i, 4.0 + rng.uniform());
    if (i > 0) put(i, i - 1, -rng.uniform());
    if (i + 1 < n) put(i, i + 1, -rng.uniform());
    const int j = static_cast<int>(rng.bounded(n));
    put(i, j, 0.5 * rng.uniform(-1, 1));
  }

  std::vector<double> x_true(n);
  for (int i = 0; i < n; ++i) x_true[i] = rng.uniform(-1, 1);
  std::vector<double> b(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b[i] += dense[i][j] * x_true[j];
  }

  LinearSystem sys(n);
  stamp(sys, entries);
  stamp_rhs(sys, b);
  std::vector<double> x;
  ASSERT_TRUE(sys.solve(x));
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseRandomTest,
                         ::testing::Values(1, 2, 5, 17, 64, 200, 500));

TEST(LinearSystem, FactorNonzerosReported) {
  LinearSystem sys(3);
  stamp(sys, {{0, 0, 1}, {1, 1, 1}, {2, 2, 1}});
  std::vector<double> x;
  ASSERT_TRUE(sys.solve(x));
  EXPECT_GE(sys.factor_nonzeros(), 6u);  // 3 L diag + 3 U diag
  EXPECT_EQ(sys.pattern_entries(), 3u);
}

TEST(LinearSystem, AdoptionNeedsTheSamePattern) {
  // Donor [[2,1],[0,4]] and receiver [[2,0],[3,4]]: same dimension and
  // entry count, but the donor's fill pattern has no cell for the
  // receiver's (1, 0), so replaying it would drop that value.
  LinearSystem donor(2);
  stamp(donor, {{0, 0, 2.0}, {1, 1, 4.0}, {0, 1, 1.0}});
  std::vector<double> x;
  ASSERT_TRUE(donor.solve(x));

  LinearSystem receiver(2);
  stamp(receiver, {{0, 0, 2.0}, {1, 1, 4.0}, {1, 0, 3.0}});
  stamp_rhs(receiver, {2.0, 11.0});
  receiver.adopt_factorization(donor);
  EXPECT_FALSE(receiver.has_symbolic_factorization());
  ASSERT_TRUE(receiver.solve(x));
  EXPECT_FALSE(receiver.last_factor_was_numeric());
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);

  // A system with the donor's pattern adopts and replays its pivots.
  LinearSystem twin(2);
  stamp(twin, {{0, 0, 2.0}, {1, 1, 4.0}, {0, 1, 1.0}});
  stamp_rhs(twin, {4.0, 8.0});
  twin.adopt_factorization(donor);
  EXPECT_TRUE(twin.has_symbolic_factorization());
  ASSERT_TRUE(twin.solve(x));
  EXPECT_TRUE(twin.last_factor_was_numeric());
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LinearSystem, MovedSystemKeepsItsSlots) {
  LinearSystem first(2);
  const MatrixSlot s00 = first.reserve(0, 0);
  const MatrixSlot s11 = first.reserve(1, 1);
  const MatrixSlot s01 = first.reserve(0, 1);
  first.finalize_pattern();

  LinearSystem second(std::move(first));
  LinearSystem sys(1);
  sys = std::move(second);

  // The slots the first system handed out address the moved-to cells,
  // and slot 0 of the matrix and of the rhs still swallows writes that
  // the scan, the residual and the LU never read.
  const double inf = std::numeric_limits<double>::infinity();
  sys.add_at(s00, 2.0);
  sys.add_at(s11, 4.0);
  sys.add_at(s01, 1.0);
  sys.add_at(0, inf);
  sys.add_rhs_at(0, inf);
  stamp_rhs(sys, {4.0, 8.0});
  EXPECT_TRUE(sys.values_finite());

  std::vector<double> x;
  ASSERT_TRUE(sys.solve(x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_EQ(sys.residual_norm({1.0, 2.0}), 0.0);
}

}  // namespace
}  // namespace sscl::spice
