#include "util/matrix.h"

#include <cmath>

#include "util/check.h"

namespace ps360::util {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    PS360_CHECK_MSG(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  PS360_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  PS360_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

Matrix cholesky(const Matrix& a) {
  PS360_CHECK_MSG(a.rows() == a.cols(), "cholesky requires a square matrix");
  Matrix l(a.rows(), a.rows());
  cholesky_factor(a.values(), l.values(), a.rows());
  return l;
}

std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b) {
  PS360_CHECK(a.rows() == b.size());
  const Matrix l = cholesky(a);
  std::vector<double> x = b;
  cholesky_substitute(l.values(), a.rows(), x);
  return x;
}

void cholesky_factor(std::span<const double> a, std::span<double> l, std::size_t n) {
  PS360_CHECK(a.size() == n * n && l.size() == n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * n + k] * l[j * n + k];
      if (i == j) {
        PS360_CHECK_MSG(sum > 0.0, "matrix is not positive definite");
        l[i * n + j] = std::sqrt(sum);
      } else {
        l[i * n + j] = sum / l[j * n + j];
      }
    }
  }
}

void cholesky_substitute(std::span<const double> l, std::size_t n, std::span<double> b) {
  PS360_CHECK(l.size() == n * n && b.size() == n);
  // Forward substitution: L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l[i * n + k] * b[k];
    b[i] = sum / l[i * n + i];
  }
  // Back substitution: L^T x = y.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = b[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l[k * n + i] * b[k];
    b[i] = sum / l[i * n + i];
  }
}

}  // namespace ps360::util
