// Minimal owning dense matrix/vector types.
//
// These are *real* tensors (not cost-model stand-ins): the threaded runtime
// executes small GEMMs through them and layer migration moves their buffers
// between workers.
// Row-major float32 throughout; RAII ownership (no raw new/delete).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dynmo::tensor {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Tensor random(std::size_t rows, std::size_t cols, Rng& rng,
                       float scale = 1.0f);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float at(std::size_t r, std::size_t c) const {
    DYNMO_ASSERT(r < rows_ && c < cols_, "tensor index out of range");
    return data_[r * cols_ + c];
  }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  /// Bytes of the underlying buffer (what migration actually copies).
  std::size_t bytes() const { return data_.size() * sizeof(float); }

  bool same_shape(const Tensor& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B (row-major), serial in the calling thread: the threaded
/// runtime calls it from its pipeline workers, which already use the cores.
Tensor matmul(const Tensor& a, const Tensor& b);

/// In-place ReLU.
void relu_inplace(Tensor& t);

/// Indices of the k largest |values| within xs (unordered).  k is clamped
/// to xs.size().
std::vector<std::uint32_t> topk_abs_indices(std::span<const float> xs,
                                            std::size_t k);

}  // namespace dynmo::tensor
