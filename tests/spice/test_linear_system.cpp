#include "spice/linear_system.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <limits>
#include <ostream>
#include <type_traits>
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
// with a brute-force dense solve across a size sweep, for the real
// values of a LinearSystem and the complex values of a ComplexSystem on
// the same frozen pattern.
struct RandomCase {
  bool complex;
  int n;
};

// ctest names each case by this text: the size for real values, as
// before complex values were added, and complex_<size> for complex ones.
void PrintTo(const RandomCase& c, std::ostream* os) {
  *os << (c.complex ? "complex_" : "") << c.n;
}

/// One rng.uniform(lo, hi) per real component.
template <typename T>
T draw(util::Rng& rng, double lo, double hi) {
  if constexpr (std::is_same_v<T, double>) {
    return rng.uniform(lo, hi);
  } else {
    const double re = rng.uniform(lo, hi);
    return {re, rng.uniform(lo, hi)};
  }
}

template <typename T>
void expect_matches_dense_reference(int n) {
  util::Rng rng(1000 + n);
  std::vector<MatrixSlot> slots;
  std::vector<T> values;
  std::vector<std::vector<T>> dense(n, std::vector<T>(n, T{}));
  LinearSystem sys(n);

  // Tridiagonal-ish plus random fill: resembles an MNA pattern.
  for (int i = 0; i < n; ++i) {
    auto put = [&](int r, int c, T v) {
      slots.push_back(sys.reserve(r, c));
      values.push_back(v);
      dense[r][c] += v;
    };
    put(i, i, 4.0 + draw<T>(rng, 0, 1));
    if (i > 0) put(i, i - 1, -draw<T>(rng, 0, 1));
    if (i + 1 < n) put(i, i + 1, -draw<T>(rng, 0, 1));
    const int j = static_cast<int>(rng.bounded(n));
    put(i, j, 0.5 * draw<T>(rng, -1, 1));
  }
  sys.finalize_pattern();

  std::vector<T> x_true(n);
  for (int i = 0; i < n; ++i) x_true[i] = draw<T>(rng, -1, 1);
  std::vector<T> b(n, T{});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b[i] += dense[i][j] * x_true[j];
  }

  std::vector<T> x;
  if constexpr (std::is_same_v<T, double>) {
    for (std::size_t k = 0; k < slots.size(); ++k) {
      sys.add_at(slots[k], values[k]);
    }
    stamp_rhs(sys, b);
    ASSERT_TRUE(sys.solve(x));
  } else {
    ComplexSystem cs(sys);
    for (std::size_t k = 0; k < slots.size(); ++k) {
      cs.add_at(slots[k], values[k]);
    }
    for (int r = 0; r < n; ++r) cs.add_rhs_at(sys.reserve_rhs(r), b[r]);
    ASSERT_TRUE(cs.factor());
    cs.solve(x);
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-8) << "i=" << i;
  }
}

class SparseRandomTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(SparseRandomTest, MatchesDenseReference) {
  const RandomCase c = GetParam();
  if (c.complex) {
    expect_matches_dense_reference<std::complex<double>>(c.n);
  } else {
    expect_matches_dense_reference<double>(c.n);
  }
}

std::vector<RandomCase> random_cases() {
  std::vector<RandomCase> cases;
  for (const bool complex : {false, true}) {
    for (const int n : {1, 2, 5, 17, 64, 200, 500}) {
      cases.push_back({complex, n});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseRandomTest,
                         ::testing::ValuesIn(random_cases()));

TEST(ComplexSystem, ReplaysItsPivotSequenceOnNewValues) {
  // [[0, 1], [2, 1]] pivots on row 1 first; scaling the values keeps
  // that pivot dominant, so the second factor() replays the sequence.
  using C = std::complex<double>;
  LinearSystem sys(2);
  const MatrixSlot s01 = sys.reserve(0, 1);
  const MatrixSlot s10 = sys.reserve(1, 0);
  const MatrixSlot s11 = sys.reserve(1, 1);
  sys.finalize_pattern();
  ComplexSystem cs(sys);
  std::vector<C> x;
  for (const C scale : {C(1, 0), C(0, 2)}) {
    cs.clear();
    cs.add_at(s01, scale);
    cs.add_at(s10, 2.0 * scale);
    cs.add_at(s11, scale);
    // x = (1 + i, 2): rows 2 and 2(1 + i) + 2, times the scale.
    cs.add_rhs_at(sys.reserve_rhs(0), 2.0 * scale);
    cs.add_rhs_at(sys.reserve_rhs(1), C(4, 2) * scale);
    ASSERT_TRUE(cs.factor());
    EXPECT_EQ(cs.last_factor_was_numeric(), scale != C(1, 0));
    cs.solve(x);
    EXPECT_NEAR(std::abs(x[0] - C(1, 1)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x[1] - C(2, 0)), 0.0, 1e-12);
  }
  // A singular set of values fails the factorisation.
  cs.clear();
  cs.add_at(s10, 1.0);
  EXPECT_FALSE(cs.factor());
}

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

/// Arrowhead with the hub reserved first: unknown 0 is coupled to every
/// other unknown, and every unknown has a dominant diagonal. Eliminated
/// in assembly order the hub fills L and U completely.
std::vector<Entry> hub_first_arrowhead(int n, util::Rng& rng) {
  std::vector<Entry> entries;
  entries.push_back({0, 0, n + rng.uniform()});
  for (int i = 1; i < n; ++i) {
    entries.push_back({0, i, -rng.uniform()});
    entries.push_back({i, 0, -rng.uniform()});
    entries.push_back({i, i, 2.0 + rng.uniform()});
  }
  return entries;
}

void expect_arrowhead_stays_sparse(int n) {
  util::Rng rng(7 + n);
  const std::vector<Entry> entries = hub_first_arrowhead(n, rng);
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
  for (const Entry& e : entries) dense[e.r][e.c] += e.v;
  std::vector<double> x_true(n);
  for (double& v : x_true) v = rng.uniform(-1, 1);
  std::vector<double> b(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b[i] += dense[i][j] * x_true[j];
  }

  LinearSystem sys(n);
  stamp(sys, entries);
  stamp_rhs(sys, b);
  std::vector<double> x;
  ASSERT_TRUE(sys.solve(x));
  // The hub is eliminated last: each spoke keeps its diagonal and one
  // hub entry, and only the hub's own row and column fill.
  EXPECT_LE(sys.factor_nonzeros(), 4u * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12) << "i=" << i;
}

TEST(LinearSystem, HubFirstArrowheadStaysSparse) {
  expect_arrowhead_stays_sparse(64);
}

// At n = 400 the hub's 399 neighbours exceed the dense-node threshold
// (10 sqrt(n) = 200), so it leaves the minimum-degree graph and is
// ordered last by that rule instead.
TEST(LinearSystem, DenseHubArrowheadStaysSparse) {
  expect_arrowhead_stays_sparse(400);
}

TEST(LinearSystem, AdoptionSharesTheColumnOrder) {
  // A hub-first arrowhead is eliminated in a non-identity order. The
  // twin adopts the donor's factorisation, replays it numerically and
  // returns the donor's x bit for bit.
  constexpr int n = 16;
  util::Rng rng(3);
  const std::vector<Entry> entries = hub_first_arrowhead(n, rng);
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-1, 1);

  LinearSystem donor(n);
  stamp(donor, entries);
  stamp_rhs(donor, b);
  std::vector<double> x_donor;
  ASSERT_TRUE(donor.solve(x_donor));
  ASSERT_LE(donor.factor_nonzeros(), 4u * n);

  LinearSystem twin(n);
  stamp(twin, entries);
  stamp_rhs(twin, b);
  twin.adopt_factorization(donor);
  EXPECT_TRUE(twin.has_symbolic_factorization());
  std::vector<double> x_twin;
  ASSERT_TRUE(twin.solve(x_twin));
  EXPECT_TRUE(twin.last_factor_was_numeric());
  EXPECT_EQ(x_twin, x_donor);
}

TEST(LinearSystem, AdoptionNeedsTheSameColumnOrder) {
  // Two patterns that differ by swapping columns 0 and 1:
  //   first  [x x .; x x .; . x x]  order (0, 1, 2)
  //   second [x x .; x x .; x . x]  order (1, 0, 2)
  // Each lays out the column it eliminates at step 0 with rows (0, 1),
  // at step 1 with rows (1, 0, 2) and at step 2 with row 2, so the CSC
  // layouts are equal and only the orders differ.
  LinearSystem donor(3);
  stamp(donor, {{0, 0, 4.0},
                {1, 1, 5.0},
                {2, 2, 6.0},
                {0, 1, 1.0},
                {1, 0, 1.0},
                {2, 1, 1.0}});
  std::vector<double> x;
  ASSERT_TRUE(donor.solve(x));

  // x = (1, 2, 3): rows 4 + 4, 1 + 10, 1 + 18.
  LinearSystem receiver(3);
  stamp(receiver, {{0, 1, 2.0},
                   {1, 1, 5.0},
                   {1, 0, 1.0},
                   {0, 0, 4.0},
                   {2, 0, 1.0},
                   {2, 2, 6.0}});
  stamp_rhs(receiver, {8.0, 11.0, 19.0});
  receiver.adopt_factorization(donor);
  EXPECT_FALSE(receiver.has_symbolic_factorization());
  ASSERT_TRUE(receiver.solve(x));
  EXPECT_FALSE(receiver.last_factor_was_numeric());
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
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
