#include "gf/matrix.h"

#include <cassert>

namespace gf {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t i = 0; i < cols_; ++i) {
      const u8 a = at(r, i);
      if (a == 0) continue;
      const auto& row_tab = mul_row(a);
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out.at(r, c) ^= row_tab[rhs.at(i, c)];
      }
    }
  }
  return out;
}

Matrix Matrix::slice_rows(std::size_t first, std::size_t count) const {
  assert(first + count <= rows_);
  Matrix out(count, cols_);
  for (std::size_t r = 0; r < count; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out.at(r, c) = at(first + r, c);
  return out;
}

Matrix cauchy_generator(std::size_t k, std::size_t m) {
  assert(k + m <= kFieldSize);
  Matrix g(k + m, k);
  for (std::size_t i = 0; i < k; ++i) g.at(i, i) = 1;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      g.at(k + i, j) = inv(static_cast<u8>((k + i) ^ j));
    }
  }
  return g;
}

Matrix vandermonde_generator(std::size_t k, std::size_t m) {
  assert(k + m <= kFieldSize);
  Matrix g(k + m, k);
  for (std::size_t i = 0; i < k; ++i) g.at(i, i) = 1;
  u8 gen = 1;
  for (std::size_t i = 0; i < m; ++i) {
    u8 p = 1;
    for (std::size_t j = 0; j < k; ++j) {
      g.at(k + i, j) = p;
      p = mul(p, gen);
    }
    gen = mul(gen, kGenerator);
  }
  return g;
}

std::optional<Matrix> invert(const Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix work = a;
  Matrix inv_m = Matrix::identity(n);

  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot at or below the diagonal.
    std::size_t pivot = col;
    while (pivot < n && work.at(pivot, col) == 0) ++pivot;
    if (pivot == n) return std::nullopt;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(work.at(pivot, c), work.at(col, c));
        std::swap(inv_m.at(pivot, c), inv_m.at(col, c));
      }
    }
    // Normalize the pivot row.
    const u8 scale = inv(work.at(col, col));
    if (scale != 1) {
      const auto& tab = mul_row(scale);
      for (std::size_t c = 0; c < n; ++c) {
        work.at(col, c) = tab[work.at(col, c)];
        inv_m.at(col, c) = tab[inv_m.at(col, c)];
      }
    }
    // Eliminate the column everywhere else.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const u8 f = work.at(r, col);
      if (f == 0) continue;
      const auto& tab = mul_row(f);
      for (std::size_t c = 0; c < n; ++c) {
        work.at(r, c) ^= tab[work.at(col, c)];
        inv_m.at(r, c) ^= tab[inv_m.at(col, c)];
      }
    }
  }
  return inv_m;
}

std::size_t rank(const Matrix& a) {
  Matrix work = a;
  std::size_t r = 0;
  for (std::size_t col = 0; col < work.cols() && r < work.rows(); ++col) {
    std::size_t pivot = r;
    while (pivot < work.rows() && work.at(pivot, col) == 0) ++pivot;
    if (pivot == work.rows()) continue;
    if (pivot != r) {
      for (std::size_t c = 0; c < work.cols(); ++c) {
        std::swap(work.at(pivot, c), work.at(r, c));
      }
    }
    // Clear the column below the pivot.
    const u8 pinv = inv(work.at(r, col));
    for (std::size_t below = r + 1; below < work.rows(); ++below) {
      const u8 f = mul(work.at(below, col), pinv);
      if (f == 0) continue;
      const auto& tab = mul_row(f);
      for (std::size_t c = col; c < work.cols(); ++c) {
        work.at(below, c) ^= tab[work.at(r, c)];
      }
    }
    ++r;
  }
  return r;
}

std::optional<Matrix> decode_matrix(const Matrix& gen,
                                    std::span<const std::size_t> present,
                                    std::span<const std::size_t> erased_data) {
  const std::size_t k = gen.cols();
  assert(present.size() == k);

  // Square matrix mapping original data -> surviving blocks.
  Matrix survivors(k, k);
  for (std::size_t r = 0; r < k; ++r) {
    assert(present[r] < gen.rows());
    for (std::size_t c = 0; c < k; ++c)
      survivors.at(r, c) = gen.at(present[r], c);
  }
  auto inv_m = invert(survivors);
  if (!inv_m) return std::nullopt;

  // Rows of inv(survivors) give original data blocks from survivors;
  // select the erased ones.
  Matrix out(erased_data.size(), k);
  for (std::size_t r = 0; r < erased_data.size(); ++r) {
    assert(erased_data[r] < k);
    for (std::size_t c = 0; c < k; ++c)
      out.at(r, c) = inv_m->at(erased_data[r], c);
  }
  return out;
}

}  // namespace gf
