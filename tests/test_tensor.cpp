// Unit tests for tensor/: dense ops and top-k selection — the real kernels
// behind the threaded runtime and the distributed pruning path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "core/rng.hpp"
#include "tensor/tensor.hpp"

namespace dynmo::tensor {
namespace {

/// Writable element (r, c) of a row-major tensor.
float& at(Tensor& t, std::size_t r, std::size_t c) {
  return t.data()[r * t.cols() + c];
}

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a.at(i, k) * b.at(k, j);
      }
      at(c, i, j) = acc;
    }
  }
  return c;
}

/// The i-k-j loop matmul ran before it was tiled: every C element adds its
/// a_ik * b_kj terms in k order, skipping a_ik == 0.  The tiled kernel
/// must match it bit for bit.
Tensor ikj_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  Tensor c(a.rows(), n);
  const auto ad = a.data();
  const auto bd = b.data();
  const auto cd = c.data();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = ad[i * k + kk];
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) {
        cd[i * n + j] += aik * bd[kk * n + j];
      }
    }
  }
  return c;
}

std::uint32_t bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(Tensor, ShapeAndFill) {
  Tensor t(3, 4, 2.5f);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.size(), 12u);
  EXPECT_EQ(t.bytes(), 12 * sizeof(float));
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, RandomIsDeterministicPerSeed) {
  Rng a(5), b(5);
  const Tensor x = Tensor::random(4, 4, a);
  const Tensor y = Tensor::random(4, 4, b);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x.data()[i], y.data()[i]);
  }
}

class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(42);
  const Tensor a = Tensor::random(static_cast<std::size_t>(m),
                                  static_cast<std::size_t>(k), rng);
  const Tensor b = Tensor::random(static_cast<std::size_t>(k),
                                  static_cast<std::size_t>(n), rng);
  const Tensor c = matmul(a, b);
  const Tensor ref = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{8, 8, 8}, std::tuple{17, 5, 9},
                      std::tuple{64, 32, 16}, std::tuple{1, 64, 1}));

/// The NaN this machine's arithmetic produces (inf - inf).  Which of two
/// different NaN operands an add returns is unspecified (it depends on
/// the compiler's operand order), so B's NaNs use this one pattern: then
/// every NaN in the product has the same bits and C compares exactly.
float default_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

/// A (rows x k) with about a third of its entries +0 or -0.  With
/// `specials`, B (k x n) also has a few +inf, -inf and NaN entries: a zero
/// a_ik that multiplied them would turn its C element to NaN, so the
/// outputs pin the zero-skip.  Without, every C element is finite.
void expect_matches_ikj(std::size_t rows, std::size_t k, std::size_t n,
                        std::uint64_t seed, bool specials) {
  SCOPED_TRACE(::testing::Message() << rows << "x" << k << " * " << k << "x"
                                    << n << ", seed " << seed
                                    << (specials ? ", inf/NaN in B" : ""));
  Rng rng(seed);
  Tensor a = Tensor::random(rows, k, rng);
  Tensor b = Tensor::random(k, n, rng);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = default_nan();
  for (float& v : a.data()) {
    const double u = rng.uniform();
    if (u < 0.15) v = 0.0f;
    else if (u < 0.3) v = -0.0f;
  }
  for (float& v : b.data()) {
    const double u = specials ? rng.uniform() : 1.0;
    if (u < 0.01) v = kInf;
    else if (u < 0.02) v = -kInf;
    else if (u < 0.03) v = nan;
  }
  const Tensor got = matmul(a, b);
  const Tensor want = ikj_matmul(a, b);
  ASSERT_TRUE(got.same_shape(want));
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got.data()[i]), bits(want.data()[i]))
        << "C[" << i / n << "][" << i % n << "]";
  }
}

TEST(Tensor, MatmulIsBitIdenticalToTheIkjLoop) {
  // The threaded runtime's layer shape, strips narrower than, equal to,
  // and not a multiple of 64 columns, and every empty dimension.
  const std::size_t shapes[][3] = {
      {16, 128, 128}, {3, 7, 5},  {2, 9, 63}, {2, 9, 64}, {2, 9, 65},
      {4, 33, 130},   {1, 1, 1},  {0, 4, 4},  {4, 0, 4},  {4, 4, 0},
      {0, 0, 0}};
  std::uint64_t seed = 1;
  for (const bool specials : {false, true}) {
    for (const auto& s : shapes) {
      expect_matches_ikj(s[0], s[1], s[2], seed++, specials);
    }
  }
  // Seeded shapes.
  Rng shape_rng(2024);
  for (int t = 0; t < 200; ++t) {
    expect_matches_ikj(shape_rng.uniform_int(7), shape_rng.uniform_int(81),
                       shape_rng.uniform_int(201), seed++, t % 2 == 1);
  }
}

TEST(Tensor, MatmulShapeMismatchThrows) {
  Tensor a(2, 3), b(4, 2);
  EXPECT_THROW((void)matmul(a, b), Error);
}

TEST(Tensor, ReluClampsNegatives) {
  Tensor t(1, 3);
  at(t, 0, 0) = -1.0f;
  at(t, 0, 1) = 0.0f;
  at(t, 0, 2) = 2.0f;
  relu_inplace(t);
  EXPECT_EQ(t.at(0, 0), 0.0f);
  EXPECT_EQ(t.at(0, 1), 0.0f);
  EXPECT_EQ(t.at(0, 2), 2.0f);
}

TEST(TopK, SelectsLargestMagnitudes) {
  const std::vector<float> xs = {0.1f, -5.0f, 2.0f, -0.5f, 3.0f};
  auto idx = topk_abs_indices(xs, 2);
  std::sort(idx.begin(), idx.end());
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 4}));
}

TEST(TopK, ClampsToSize) {
  const std::vector<float> xs = {1.0f, 2.0f};
  EXPECT_EQ(topk_abs_indices(xs, 10).size(), 2u);
  EXPECT_TRUE(topk_abs_indices(xs, 0).empty());
}

}  // namespace
}  // namespace dynmo::tensor
