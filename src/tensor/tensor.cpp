#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dynmo::tensor {

Tensor Tensor::random(std::size_t rows, std::size_t cols, Rng& rng,
                      float scale) {
  Tensor t(rows, cols);
  for (float& v : t.data_) {
    v = static_cast<float>(rng.normal(0.0, 1.0)) * scale;
  }
  return t;
}

namespace {

/// Columns of C one accumulator strip covers: 64 floats, 8 AVX2 vectors,
/// held in L1 across the whole k loop instead of re-read from C.
constexpr std::size_t kStrip = 64;

// The AVX2 clone vectorizes the strip 8 wide.  Never add "fma" here: with
// FMA enabled, Clang (and GCC outside strict ISO mode) fuses
// `acc += a * b` into one multiply-add, which rounds once instead of
// twice and changes the result bits.
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__)
#define DYNMO_GEMM_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define DYNMO_GEMM_CLONES
#endif

/// c (rows x n) = a (rows x k) * b (k x n), all row-major.  Each
/// row of C is computed one strip at a time; a strip's accumulators start
/// at +0 and add their a_ik * b_kj terms in k order, skipping a_ik == 0
/// (either sign), exactly as the i-k-j loop does element by element.
DYNMO_GEMM_CLONES
void gemm(const float* a, const float* b, float* c, std::size_t rows,
          std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < rows; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j0 = 0; j0 < n; j0 += kStrip) {
      const std::size_t w = std::min(kStrip, n - j0);
      float acc[kStrip] = {};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f) continue;  // free win once pruning kicks in
        const float* brow = b + kk * n + j0;
        for (std::size_t j = 0; j < w; ++j) acc[j] += aik * brow[j];
      }
      std::copy_n(acc, w, c + i * n + j0);
    }
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  DYNMO_CHECK(a.cols() == b.rows(),
              "matmul shape mismatch: " << a.rows() << 'x' << a.cols()
                                        << " * " << b.rows() << 'x'
                                        << b.cols());
  Tensor c(a.rows(), b.cols());
  gemm(a.data().data(), b.data().data(), c.data().data(), a.rows(), a.cols(),
       b.cols());
  return c;
}

void relu_inplace(Tensor& t) {
  for (float& v : t.data()) v = std::max(v, 0.0f);
}

std::vector<std::uint32_t> topk_abs_indices(std::span<const float> xs,
                                            std::size_t k) {
  k = std::min(k, xs.size());
  std::vector<std::uint32_t> idx(xs.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                   idx.end(), [&](std::uint32_t a, std::uint32_t b) {
                     return std::abs(xs[a]) > std::abs(xs[b]);
                   });
  idx.resize(k);
  return idx;
}

}  // namespace dynmo::tensor
