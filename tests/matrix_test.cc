#include "gf/matrix.h"

#include <gtest/gtest.h>

#include <numeric>
#include <random>

namespace gf {
namespace {

Matrix RandomMatrix(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      m.at(r, c) = static_cast<u8>(rng() & 0xff);
  return m;
}

TEST(Matrix, IdentityMultiplication) {
  const Matrix a = RandomMatrix(8, 42);
  const Matrix i = Matrix::identity(8);
  EXPECT_EQ(a * i, a);
  EXPECT_EQ(i * a, a);
}

TEST(Matrix, MultiplicationAssociative) {
  const Matrix a = RandomMatrix(6, 1);
  const Matrix b = RandomMatrix(6, 2);
  const Matrix c = RandomMatrix(6, 3);
  EXPECT_EQ((a * b) * c, a * (b * c));
}

TEST(Matrix, SliceRows) {
  const Matrix g = cauchy_generator(4, 2);
  const Matrix parity = g.slice_rows(4, 2);
  ASSERT_EQ(parity.rows(), 2u);
  ASSERT_EQ(parity.cols(), 4u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_EQ(parity.at(i, j), g.at(4 + i, j));
}

TEST(Matrix, InvertIdentity) {
  const auto inv_i = invert(Matrix::identity(10));
  ASSERT_TRUE(inv_i.has_value());
  EXPECT_EQ(*inv_i, Matrix::identity(10));
}

TEST(Matrix, InvertRoundTrips) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Matrix a = RandomMatrix(12, seed);
    const auto ai = invert(a);
    if (!ai) continue;  // singular random matrix, rare but possible
    EXPECT_EQ(a * *ai, Matrix::identity(12)) << "seed=" << seed;
    EXPECT_EQ(*ai * a, Matrix::identity(12)) << "seed=" << seed;
  }
}

TEST(Matrix, SingularDetected) {
  Matrix a(3, 3);  // all zeros
  EXPECT_FALSE(invert(a).has_value());

  // Duplicate rows.
  Matrix b(2, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 7;
  b.at(1, 0) = 5;
  b.at(1, 1) = 7;
  EXPECT_FALSE(invert(b).has_value());
}

TEST(Matrix, RankMatchesInvertibilityAndCountsDependentRows) {
  EXPECT_EQ(rank(Matrix(3, 3)), 0u);
  EXPECT_EQ(rank(Matrix::identity(5)), 5u);
  // Every square Cauchy survivor set is invertible, so full rank.
  const Matrix gen = cauchy_generator(4, 3);
  EXPECT_EQ(rank(gen), 4u);  // 7 x 4: rank is capped by the columns
  EXPECT_EQ(rank(gen.slice_rows(3, 4)), 4u);
  // A row that is the XOR of two others adds nothing.
  Matrix a(3, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    a.at(0, c) = gen.at(4, c);
    a.at(1, c) = gen.at(5, c);
    a.at(2, c) = gen.at(4, c) ^ gen.at(5, c);
  }
  EXPECT_EQ(rank(a), 2u);
  // A zero leading column forces a pivot search past the first row.
  Matrix b(2, 2);
  b.at(1, 0) = 3;
  b.at(0, 1) = 9;
  EXPECT_EQ(rank(b), 2u);
}

TEST(Matrix, InvertNeedsRowSwap) {
  // Zero pivot in the top-left forces the row-swap path.
  Matrix a(2, 2);
  a.at(0, 0) = 0;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 0;
  const auto ai = invert(a);
  ASSERT_TRUE(ai.has_value());
  EXPECT_EQ(a * *ai, Matrix::identity(2));
}

TEST(Generators, SystematicPrefix) {
  for (const auto gen :
       {cauchy_generator(10, 4), vandermonde_generator(10, 4)}) {
    for (std::size_t i = 0; i < 10; ++i)
      for (std::size_t j = 0; j < 10; ++j)
        EXPECT_EQ(gen.at(i, j), i == j ? 1 : 0);
  }
}

TEST(Generators, CauchyParityEntriesNonzero) {
  const Matrix g = cauchy_generator(16, 8);
  for (std::size_t i = 16; i < 24; ++i)
    for (std::size_t j = 0; j < 16; ++j) EXPECT_NE(g.at(i, j), 0);
}

TEST(Generators, VandermondeRowsArePowers) {
  const Matrix g = vandermonde_generator(5, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    const u8 base = pow(kGenerator, static_cast<unsigned>(i));
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(g.at(5 + i, j), pow(base, static_cast<unsigned>(j)));
    }
  }
}

/// MDS property of the Cauchy construction: every k-subset of rows is
/// invertible. Exhaustive over all survivor subsets for small codes.
class CauchyMdsTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(CauchyMdsTest, AllSurvivorSubsetsInvertible) {
  const auto [k, m] = GetParam();
  const Matrix g = cauchy_generator(k, m);
  const std::size_t n = k + m;
  // Enumerate all C(n, k) row subsets via bitmask (n <= 12 here).
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<std::size_t>(__builtin_popcount(mask)) != k) continue;
    Matrix sub(k, k);
    std::size_t r = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask >> i & 1)) continue;
      for (std::size_t c = 0; c < k; ++c) sub.at(r, c) = g.at(i, c);
      ++r;
    }
    EXPECT_TRUE(invert(sub).has_value()) << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallCodes, CauchyMdsTest,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{4, 2},
                                           std::pair<std::size_t, std::size_t>{5, 3},
                                           std::pair<std::size_t, std::size_t>{8, 4},
                                           std::pair<std::size_t, std::size_t>{6, 6}));

TEST(DecodeMatrix, AllDataPresentIsIdentityRows) {
  const Matrix g = cauchy_generator(6, 3);
  std::vector<std::size_t> present(6);
  std::iota(present.begin(), present.end(), 0);
  const std::vector<std::size_t> erased{};  // nothing to recover
  const auto dm = decode_matrix(g, present, erased);
  ASSERT_TRUE(dm.has_value());
  EXPECT_EQ(dm->rows(), 0u);
}

TEST(DecodeMatrix, RecoversSymbolicData) {
  // Verify algebraically: decode_rows * survivor_rows == unit rows of
  // the erased data indices.
  const std::size_t k = 6, m = 3;
  const Matrix g = cauchy_generator(k, m);
  const std::vector<std::size_t> present{0, 2, 3, 5, 6, 8};  // 1,4 erased
  const std::vector<std::size_t> erased{1, 4};
  const auto dm = decode_matrix(g, present, erased);
  ASSERT_TRUE(dm.has_value());

  Matrix survivors(k, k);
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < k; ++c)
      survivors.at(r, c) = g.at(present[r], c);
  const Matrix recon = *dm * survivors;
  for (std::size_t r = 0; r < erased.size(); ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      EXPECT_EQ(recon.at(r, c), c == erased[r] ? 1 : 0);
    }
  }
}

}  // namespace
}  // namespace gf
