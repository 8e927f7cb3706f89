// Unit tests for tensor/: dense ops, top-k selection, CSR compression and
// SpMM — the real kernels behind the threaded runtime and the distributed
// pruning path.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "tensor/csr.hpp"
#include "tensor/tensor.hpp"

namespace dynmo::tensor {
namespace {

/// Writable element (r, c) of a row-major tensor.
float& at(Tensor& t, std::size_t r, std::size_t c) {
  return t.data()[r * t.cols() + c];
}

/// The dense matrix a CSR matrix compresses: the oracle for its kernels.
Tensor to_dense(const CsrMatrix& m) {
  Tensor t(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::uint32_t i = m.row_offsets()[r]; i < m.row_offsets()[r + 1];
         ++i) {
      at(t, r, m.col_indices()[i]) = m.values()[i];
    }
  }
  return t;
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

TEST(Csr, RoundTripThreshold) {
  Rng rng(1);
  const Tensor dense = Tensor::random(10, 14, rng);
  const CsrMatrix csr = CsrMatrix::from_dense(dense, 0.5f);
  const Tensor back = to_dense(csr);
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      const float expect =
          std::abs(dense.at(r, c)) >= 0.5f ? dense.at(r, c) : 0.0f;
      EXPECT_EQ(back.at(r, c), expect);
    }
  }
}

TEST(Csr, DensityAndBytes) {
  Tensor dense(4, 4);
  at(dense, 0, 0) = 1.0f;
  at(dense, 3, 3) = -2.0f;
  const CsrMatrix csr = CsrMatrix::from_dense(dense, 0.1f);
  EXPECT_EQ(csr.nnz(), 2u);
  EXPECT_DOUBLE_EQ(csr.density(), 2.0 / 16.0);
  EXPECT_EQ(csr.bytes(),
            2 * sizeof(float) + 2 * sizeof(std::uint32_t) +
                5 * sizeof(std::uint32_t));
}

class CsrSpmm : public ::testing::TestWithParam<float> {};

TEST_P(CsrSpmm, MatchesDenseMatmul) {
  Rng rng(3);
  const Tensor x = Tensor::random(7, 12, rng);
  const Tensor w = Tensor::random(12, 9, rng);
  const CsrMatrix sw = CsrMatrix::from_dense(w, GetParam());
  const Tensor ref = matmul(x, to_dense(sw));
  const Tensor y = sw.spmm_left(x);
  ASSERT_EQ(y.rows(), ref.rows());
  ASSERT_EQ(y.cols(), ref.cols());
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y.data()[i], ref.data()[i], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CsrSpmm,
                         ::testing::Values(0.0f, 0.3f, 1.0f, 5.0f));

TEST(Csr, EmptyMatrix) {
  Tensor dense(3, 3);
  const CsrMatrix csr = CsrMatrix::from_dense(dense, 0.1f);
  EXPECT_EQ(csr.nnz(), 0u);
  const Tensor x(2, 3, 1.0f);
  const Tensor y = csr.spmm_left(x);
  for (float v : y.data()) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace dynmo::tensor
