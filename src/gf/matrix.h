// Dense matrices over GF(2^8): generator-matrix construction
// (Cauchy / Vandermonde-RS, as in ISA-L's gf_gen_cauchy1_matrix and
// gf_gen_rs_matrix), Gauss-Jordan inversion, and decode-matrix
// derivation for erasure recovery.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "gf/gf256.h"

namespace gf {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  u8& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  u8 at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::span<const u8> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<u8> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }

  bool operator==(const Matrix&) const = default;

  static Matrix identity(std::size_t n);

  Matrix operator*(const Matrix& rhs) const;

  /// Rows `first..first+count` as a new matrix.
  Matrix slice_rows(std::size_t first, std::size_t count) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<u8> data_;
};

/// Systematic (k+m) x k generator matrix with Cauchy parity rows:
/// parity row i, column j = inv((k + i) ^ j). Guaranteed MDS for
/// k + m <= 256. This mirrors ISA-L's gf_gen_cauchy1_matrix.
Matrix cauchy_generator(std::size_t k, std::size_t m);

/// Systematic (k+m) x k generator with Vandermonde parity rows:
/// parity row i, column j = (2^i)^j, mirroring ISA-L's
/// gf_gen_rs_matrix. NOT MDS for every (k, m) — kept for fidelity;
/// prefer cauchy_generator for production use.
Matrix vandermonde_generator(std::size_t k, std::size_t m);

/// Gauss-Jordan inversion; nullopt when singular.
std::optional<Matrix> invert(const Matrix& a);

/// Rank over GF(2^8) (Gaussian elimination on a copy).
std::size_t rank(const Matrix& a);

/// Decode matrix for recovering erased blocks of a systematic code.
///
/// `gen` is the (k+m) x k generator; `present` lists k distinct
/// surviving block indices (0..k-1 data, k..k+m-1 parity) whose rows are
/// invertible; `erased_data` lists the erased data-block indices to
/// recover. The result has one row per erased data block: multiplying it
/// by the k surviving blocks (in `present` order) reconstructs them.
/// Returns nullopt when the survivor rows are singular.
std::optional<Matrix> decode_matrix(const Matrix& gen,
                                    std::span<const std::size_t> present,
                                    std::span<const std::size_t> erased_data);

}  // namespace gf
