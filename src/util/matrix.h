// Small dense linear algebra used by the ridge-regression viewport predictor
// (predict::ViewportPredictor) and the Gauss-Newton QoE fitter (qoe::QoFitter).
//
// These problems are tiny (at most a few dozen unknowns), so the goal is a
// clear, well-tested implementation, not BLAS performance. Storage is
// row-major. All operations validate dimensions with PS360_CHECK.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace ps360::util {

class Matrix {
 public:
  Matrix() = default;

  // rows x cols matrix of zeros.
  Matrix(std::size_t rows, std::size_t cols);

  // Construct from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  // The row-major storage, rows() * cols() values.
  std::span<double> values() { return data_; }
  std::span<const double> values() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Cholesky factorisation of a symmetric positive-definite matrix:
// returns lower-triangular L with A = L * L^T. Throws std::invalid_argument
// if A is not square or not (numerically) positive definite.
Matrix cholesky(const Matrix& a);

// Solve A x = b for symmetric positive-definite A via Cholesky.
std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b);

// The loops behind cholesky and cholesky_solve, on caller-owned n x n
// row-major storage, for callers that must not allocate. cholesky_factor
// reads only a's lower triangle and writes only l's, so l's strict upper
// triangle keeps whatever it held. cholesky_substitute solves
// L L^T x = b in place (b becomes x) for that L.
void cholesky_factor(std::span<const double> a, std::span<double> l, std::size_t n);
void cholesky_substitute(std::span<const double> l, std::size_t n, std::span<double> b);

}  // namespace ps360::util
