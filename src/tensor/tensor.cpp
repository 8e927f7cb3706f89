#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/thread_pool.hpp"

namespace dynmo::tensor {

Tensor Tensor::random(std::size_t rows, std::size_t cols, Rng& rng,
                      float scale) {
  Tensor t(rows, cols);
  for (float& v : t.data_) {
    v = static_cast<float>(rng.normal(0.0, 1.0)) * scale;
  }
  return t;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  DYNMO_CHECK(a.cols() == b.rows(),
              "matmul shape mismatch: " << a.rows() << 'x' << a.cols()
                                        << " * " << b.rows() << 'x'
                                        << b.cols());
  Tensor c(a.rows(), b.cols());
  const std::size_t n = b.cols();
  const std::size_t k = a.cols();
  ThreadPool::global().parallel_for(0, a.rows(), [&](std::size_t r0,
                                                     std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const auto arow = a.row(i);
      auto crow = c.row(i);
      // i-k-j loop order: unit-stride inner loop over both B and C.
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f) continue;  // free win once pruning kicks in
        const auto brow = b.row(kk);
        for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  });
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
