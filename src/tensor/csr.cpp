#include "tensor/csr.hpp"

#include <algorithm>
#include <cmath>

namespace dynmo::tensor {

CsrMatrix CsrMatrix::from_dense(const Tensor& dense, float abs_threshold) {
  CsrMatrix m;
  m.rows_ = dense.rows();
  m.cols_ = dense.cols();
  m.row_offsets_.reserve(m.rows_ + 1);
  m.row_offsets_.push_back(0);
  for (std::size_t r = 0; r < m.rows_; ++r) {
    const auto row = dense.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (std::abs(row[c]) >= abs_threshold && row[c] != 0.0f) {
        m.values_.push_back(row[c]);
        m.col_indices_.push_back(static_cast<std::uint32_t>(c));
      }
    }
    m.row_offsets_.push_back(static_cast<std::uint32_t>(m.values_.size()));
  }
  return m;
}

Tensor CsrMatrix::spmm_left(const Tensor& x) const {
  DYNMO_CHECK(x.cols() == rows_, "spmm shape mismatch: x is "
                                     << x.rows() << 'x' << x.cols()
                                     << ", A is " << rows_ << 'x' << cols_);
  Tensor y(x.rows(), cols_);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto xrow = x.row(i);
    auto yrow = y.row(i);
    for (std::size_t kk = 0; kk < rows_; ++kk) {
      const float xik = xrow[kk];
      if (xik == 0.0f) continue;
      for (std::uint32_t p = row_offsets_[kk]; p < row_offsets_[kk + 1];
           ++p) {
        yrow[col_indices_[p]] += xik * values_[p];
      }
    }
  }
  return y;
}

}  // namespace dynmo::tensor
