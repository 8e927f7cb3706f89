// Compressed Sparse Row matrix, the storage format DynMo's gradual-pruning
// integration uses after unstructured magnitude pruning (paper §4.2.2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace dynmo::tensor {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Compress `dense`, keeping entries with |value| >= threshold.  Entries
  /// exactly at the threshold are kept, matching "indices_to_keep" semantics
  /// of Algorithm 1.
  static CsrMatrix from_dense(const Tensor& dense, float abs_threshold);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }
  double density() const {
    const double total = static_cast<double>(rows_) * static_cast<double>(cols_);
    return total > 0.0 ? static_cast<double>(nnz()) / total : 0.0;
  }

  std::span<const float> values() const { return values_; }
  std::span<const std::uint32_t> col_indices() const { return col_indices_; }
  std::span<const std::uint32_t> row_offsets() const { return row_offsets_; }

  /// Storage footprint in bytes (values + column indices + row offsets) —
  /// what actually moves on a layer migration.
  std::size_t bytes() const {
    return values_.size() * sizeof(float) +
           col_indices_.size() * sizeof(std::uint32_t) +
           row_offsets_.size() * sizeof(std::uint32_t);
  }

  /// y = x * A where A is this (k x n) CSR matrix and x is (m x k) dense
  /// (the Sputnik SpMM shape), serial in the calling thread.
  Tensor spmm_left(const Tensor& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> values_;
  std::vector<std::uint32_t> col_indices_;
  std::vector<std::uint32_t> row_offsets_;  // rows_ + 1 entries
};

}  // namespace dynmo::tensor
