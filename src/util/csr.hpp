// Compressed-sparse-row matrices and residual-certified linear solves --
// the sparse back end of the lumped Markov analysis
// (verify/lumped_markov.hpp), replacing the O(m^3) dense elimination that
// capped exact analysis at a few thousand configurations.
//
// The systems solved here are (I - Q) x = b with Q a sub-stochastic
// jump-chain matrix (non-negative rows summing to < 1 somewhere along
// every path to absorption), i.e. weakly diagonally dominant M-matrices.
// Two solvers share one certificate:
//
//  * solve_block_triangular() is the production path.  With the unknowns
//    ordered so that A is block lower triangular (for a Markov chain:
//    grouped by strongly connected component in reverse topological
//    order), every off-block entry points into a block already solved, so
//    one forward substitution solves each block exactly once -- a
//    singleton by one division, a block of up to kDirectBlockCap unknowns
//    by dense LU with partial pivoting, a larger one by plain Gauss-Seidel
//    on that block alone -- for any number of right-hand sides at once.
//  * solve_sparse() sweeps the whole system by Gauss-Seidel or Jacobi.  It
//    is the fallback when a block solve fails its certificate, and the
//    order-independent reference in the tests.
//
// Convergence is never assumed: both solvers certify their answer with an
// explicitly recomputed residual over the whole system (compensated
// summation, so the certificate itself is trustworthy) and report failure
// honestly instead of returning a half-converged vector.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace ppk::util {

/// Neumaier-compensated accumulator: exact enough that a residual computed
/// with it is a certificate, not an estimate.
struct CompensatedSum {
  /// Running sum.
  double sum = 0.0;
  /// Running compensation (lost low-order bits).
  double compensation = 0.0;

  /// Adds one term.
  void add(double value) noexcept {
    const double t = sum + value;
    if (std::abs(sum) >= std::abs(value)) {
      compensation += (sum - t) + value;
    } else {
      compensation += (value - t) + sum;
    }
    sum = t;
  }

  /// The compensated total.
  [[nodiscard]] double value() const noexcept { return sum + compensation; }
};

/// A sparse matrix in compressed-sparse-row form.
struct CsrMatrix {
  /// Number of rows.
  std::uint32_t rows = 0;
  /// Number of columns.
  std::uint32_t cols = 0;
  /// row_ptr[r] .. row_ptr[r+1] index the entries of row r (size rows+1).
  std::vector<std::size_t> row_ptr;
  /// Column index of each stored entry, ascending within a row.
  std::vector<std::uint32_t> col;
  /// Value of each stored entry.
  std::vector<double> value;

  /// Number of stored entries.
  [[nodiscard]] std::size_t nnz() const noexcept { return value.size(); }
};

/// Incremental CsrMatrix builder: add entries in any order, duplicates
/// accumulate.  O(nnz log nnz) build.
class CsrBuilder {
 public:
  /// Builder for a rows x cols matrix.
  CsrBuilder(std::uint32_t rows, std::uint32_t cols)
      : rows_(rows), cols_(cols) {}

  /// Schedules entry (row, col) += value.
  void add(std::uint32_t row, std::uint32_t col, double value) {
    PPK_EXPECTS(row < rows_ && col < cols_);
    entries_.push_back({row, col, value});
  }

  /// Assembles the matrix (sorts, merges duplicates).  The builder is
  /// consumed.
  [[nodiscard]] CsrMatrix build() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                return a.row != b.row ? a.row < b.row : a.col < b.col;
              });
    CsrMatrix m;
    m.rows = rows_;
    m.cols = cols_;
    m.row_ptr.assign(rows_ + 1, 0);
    for (std::size_t i = 0; i < entries_.size();) {
      std::size_t j = i + 1;
      double sum = entries_[i].value;
      while (j < entries_.size() && entries_[j].row == entries_[i].row &&
             entries_[j].col == entries_[i].col) {
        sum += entries_[j].value;
        ++j;
      }
      m.col.push_back(entries_[i].col);
      m.value.push_back(sum);
      ++m.row_ptr[entries_[i].row + 1];
      i = j;
    }
    for (std::uint32_t r = 0; r < rows_; ++r) m.row_ptr[r + 1] += m.row_ptr[r];
    entries_.clear();
    return m;
  }

 private:
  struct Entry {
    std::uint32_t row, col;
    double value;
  };
  std::uint32_t rows_, cols_;
  std::vector<Entry> entries_;
};

/// Iterative-solver configuration.
struct SolveOptions {
  /// Sweep kind.
  enum class Method : std::uint8_t {
    kGaussSeidel,  // in-place sweeps; fast in a topology-aware row order
    kJacobi,       // two-vector sweeps; order-independent reference
  };
  /// Sweep kind (default Gauss-Seidel).
  Method method = Method::kGaussSeidel;
  /// Hard sweep cap; failure to certify within it is reported, not hidden.
  std::uint32_t max_sweeps = 100'000;
  /// Relative residual target: certify when
  /// ||b - A x||_inf <= tolerance * (||A||_inf * ||x||_inf + ||b||_inf).
  double tolerance = 1e-13;
  /// Residual is recomputed (compensated) every this many sweeps.
  std::uint32_t check_every = 8;
};

/// Outcome of a solve: the certificate the caller must inspect.
struct SolveCertificate {
  /// True iff the residual bound below was met.
  bool converged = false;
  /// Gauss-Seidel or Jacobi sweeps performed.  For solve_block_triangular
  /// only blocks too large for LU are swept, so this counts their sweeps.
  std::uint32_t sweeps = 0;
  /// Final ||b - A x||_inf, recomputed with compensated summation (with
  /// several right-hand sides: that of the column furthest past its bound).
  double residual = 0.0;
  /// The bound `residual` was required to meet.
  double residual_bound = 0.0;
  /// Diagonal blocks of a block solve (0 for a whole-system sweep).
  std::uint32_t blocks = 0;
  /// Unknowns in the largest diagonal block.
  std::uint32_t largest_block = 0;
  /// Blocks solved directly (one division or dense LU) rather than swept.
  std::uint32_t direct_blocks = 0;
};

/// Solves A x = b iteratively, overwriting `x` (whose incoming contents
/// seed the iteration; zeros are a fine start).  Every row of A must carry
/// a nonzero diagonal entry.  Returns the convergence certificate --
/// callers must check `converged` and treat failure as an error, never as
/// an approximate answer.
[[nodiscard]] inline SolveCertificate solve_sparse(
    const CsrMatrix& a, const std::vector<double>& b, std::vector<double>& x,
    const SolveOptions& options = {}) {
  PPK_EXPECTS(a.rows == a.cols);
  PPK_EXPECTS(b.size() == a.rows);
  x.resize(a.rows, 0.0);

  // Locate diagonals and the matrix / rhs norms for the residual bound.
  std::vector<std::size_t> diag(a.rows);
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (std::uint32_t r = 0; r < a.rows; ++r) {
    std::size_t d = SIZE_MAX;
    double row_sum = 0.0;
    for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      row_sum += std::abs(a.value[i]);
      if (a.col[i] == r) d = i;
    }
    if (d == SIZE_MAX || a.value[d] == 0.0) {
      SolveCertificate refused;
      refused.residual = std::numeric_limits<double>::infinity();
      return refused;
    }
    diag[r] = d;
    norm_a = std::max(norm_a, row_sum);
    norm_b = std::max(norm_b, std::abs(b[r]));
  }

  const auto residual_inf = [&]() {
    double worst = 0.0;
    for (std::uint32_t r = 0; r < a.rows; ++r) {
      CompensatedSum acc;
      acc.add(b[r]);
      for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        acc.add(-a.value[i] * x[a.col[i]]);
      }
      worst = std::max(worst, std::abs(acc.value()));
    }
    return worst;
  };
  const auto bound = [&]() {
    double norm_x = 0.0;
    for (const double v : x) norm_x = std::max(norm_x, std::abs(v));
    return options.tolerance * (norm_a * norm_x + norm_b);
  };

  SolveCertificate cert;
  std::vector<double> next;  // Jacobi scratch
  if (options.method == SolveOptions::Method::kJacobi) next.resize(a.rows);
  const std::uint32_t stride = std::max(options.check_every, 1u);
  while (cert.sweeps < options.max_sweeps) {
    for (std::uint32_t r = 0; r < a.rows; ++r) {
      CompensatedSum acc;
      acc.add(b[r]);
      for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        if (i == diag[r]) continue;
        acc.add(-a.value[i] * x[a.col[i]]);
      }
      const double updated = acc.value() / a.value[diag[r]];
      if (options.method == SolveOptions::Method::kJacobi) {
        next[r] = updated;
      } else {
        x[r] = updated;
      }
    }
    if (options.method == SolveOptions::Method::kJacobi) x.swap(next);
    ++cert.sweeps;
    if (cert.sweeps % stride == 0 || cert.sweeps == options.max_sweeps) {
      cert.residual = residual_inf();
      cert.residual_bound = bound();
      if (cert.residual <= cert.residual_bound) {
        cert.converged = true;
        return cert;
      }
    }
  }
  cert.residual = residual_inf();
  cert.residual_bound = bound();
  cert.converged = cert.residual <= cert.residual_bound;
  return cert;
}

/// Largest diagonal block solve_block_triangular() factors by dense LU
/// (at most 256^2 doubles of scratch); larger blocks are swept.
inline constexpr std::uint32_t kDirectBlockCap = 256;

/// Solves A X = B for `num_rhs` right-hand sides at once, where A is block
/// lower triangular over the diagonal blocks `blocks` (block i is rows and
/// columns blocks[i] .. blocks[i+1]; blocks.front() == 0 and blocks.back()
/// == A.rows).  `b` and `x` store the right-hand sides row-interleaved:
/// entry (r, j) at index r * num_rhs + j.  `x` is overwritten.
///
/// Blocks are solved in order, each once: the off-block part of every row
/// moves to the right-hand side (it points into blocks already solved),
/// then a singleton is divided out, a block of up to kDirectBlockCap
/// unknowns is eliminated densely with partial pivoting, and a larger one
/// is swept by Gauss-Seidel until its own residual is below half the
/// bound the final certificate applies (`options` sets the tolerance,
/// sweep cap and check stride; `options.method` is not used).  The certificate is one
/// compensated residual over the whole system per right-hand side,
/// against solve_sparse's bound; if A is not block triangular over
/// `blocks`, or a block is singular or fails to converge, it fails.
[[nodiscard]] inline SolveCertificate solve_block_triangular(
    const CsrMatrix& a, const std::vector<std::uint32_t>& blocks,
    const std::vector<double>& b, std::vector<double>& x,
    std::uint32_t num_rhs = 1, const SolveOptions& options = {}) {
  PPK_EXPECTS(a.rows == a.cols);
  PPK_EXPECTS(num_rhs >= 1);
  PPK_EXPECTS(!blocks.empty() && blocks.front() == 0 &&
              blocks.back() == a.rows);
  const std::size_t width = num_rhs;
  PPK_EXPECTS(b.size() == a.rows * width);
  x.assign(a.rows * width, 0.0);

  SolveCertificate cert;
  const auto refuse = [&cert] {
    cert.converged = false;
    cert.residual = std::numeric_limits<double>::infinity();
    cert.residual_bound = 0.0;
    return cert;
  };

  // Diagonals and the norms of the residual bound, as in solve_sparse.
  std::vector<double> diag(a.rows, 0.0);
  double norm_a = 0.0;
  std::vector<double> norm_b(width, 0.0);
  for (std::uint32_t r = 0; r < a.rows; ++r) {
    double row_sum = 0.0;
    for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      row_sum += std::abs(a.value[i]);
      if (a.col[i] == r) diag[r] = a.value[i];
    }
    norm_a = std::max(norm_a, row_sum);
    for (std::size_t j = 0; j < width; ++j) {
      norm_b[j] = std::max(norm_b[j], std::abs(b[r * width + j]));
    }
  }
  // Largest |x| per column over the blocks solved so far: a swept block
  // stops against a bound that can only grow as later blocks are solved.
  std::vector<double> norm_x(width, 0.0);

  std::vector<double> rhs;    // block-local right-hand sides
  std::vector<double> dense;  // a direct block, augmented with its rhs
  for (std::size_t block = 0; block + 1 < blocks.size(); ++block) {
    const std::uint32_t lo = blocks[block];
    const std::uint32_t hi = blocks[block + 1];
    PPK_EXPECTS(lo < hi);
    const std::uint32_t size = hi - lo;
    ++cert.blocks;
    cert.largest_block = std::max(cert.largest_block, size);
    const auto inside = [lo, hi](std::uint32_t c) {
      return c >= lo && c < hi;
    };

    rhs.assign(size * width, 0.0);
    for (std::uint32_t r = lo; r < hi; ++r) {
      double* out = &rhs[(r - lo) * width];
      for (std::size_t j = 0; j < width; ++j) out[j] = b[r * width + j];
      for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        if (inside(a.col[i])) continue;
        const double* solved = &x[a.col[i] * width];
        for (std::size_t j = 0; j < width; ++j) {
          out[j] -= a.value[i] * solved[j];
        }
      }
    }

    if (size == 1) {
      if (diag[lo] == 0.0) return refuse();
      for (std::size_t j = 0; j < width; ++j) {
        x[lo * width + j] = rhs[j] / diag[lo];
      }
      ++cert.direct_blocks;
    } else if (size <= kDirectBlockCap) {
      // Gaussian elimination with partial pivoting on [A_block | rhs].
      const std::size_t stride = size + width;
      dense.assign(size * stride, 0.0);
      for (std::uint32_t r = lo; r < hi; ++r) {
        double* row = &dense[(r - lo) * stride];
        for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
          if (inside(a.col[i])) row[a.col[i] - lo] = a.value[i];
        }
        for (std::size_t j = 0; j < width; ++j) {
          row[size + j] = rhs[(r - lo) * width + j];
        }
      }
      for (std::size_t k = 0; k < size; ++k) {
        std::size_t pivot = k;
        for (std::size_t r = k + 1; r < size; ++r) {
          if (std::abs(dense[r * stride + k]) >
              std::abs(dense[pivot * stride + k])) {
            pivot = r;
          }
        }
        const double head = dense[pivot * stride + k];
        if (head == 0.0 || !std::isfinite(head)) return refuse();
        if (pivot != k) {
          for (std::size_t c = k; c < stride; ++c) {
            std::swap(dense[k * stride + c], dense[pivot * stride + c]);
          }
        }
        const double* pivot_row = &dense[k * stride];
        for (std::size_t r = k + 1; r < size; ++r) {
          double* row = &dense[r * stride];
          const double factor = row[k] / head;
          if (factor == 0.0) continue;
          for (std::size_t c = k; c < stride; ++c) {
            row[c] -= factor * pivot_row[c];
          }
        }
      }
      for (std::size_t k = size; k-- > 0;) {
        const double* row = &dense[k * stride];
        for (std::size_t j = 0; j < width; ++j) {
          double value = row[size + j];
          for (std::size_t c = k + 1; c < size; ++c) {
            value -= row[c] * x[(lo + c) * width + j];
          }
          x[(lo + k) * width + j] = value / row[k];
        }
      }
      ++cert.direct_blocks;
    } else {
      // Plain Gauss-Seidel on this block alone; x starts at zero here.
      for (std::uint32_t r = lo; r < hi; ++r) {
        if (diag[r] == 0.0) return refuse();
      }
      const auto block_residual_met = [&] {
        bool met = true;
        for (std::size_t j = 0; j < width; ++j) {
          double worst = 0.0;
          double norm = norm_x[j];
          for (std::uint32_t r = lo; r < hi; ++r) {
            double value = rhs[(r - lo) * width + j];
            for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
              if (inside(a.col[i])) {
                value -= a.value[i] * x[a.col[i] * width + j];
              }
            }
            worst = std::max(worst, std::abs(value));
            norm = std::max(norm, std::abs(x[r * width + j]));
          }
          // Half the bound: slack for the rounding the compensated global
          // residual removes, and for the local rhs's own magnitude.
          met = met && worst <= 0.5 * options.tolerance *
                                    (norm_a * norm + norm_b[j]);
        }
        return met;
      };
      const std::uint32_t check = std::max(options.check_every, 1u);
      for (std::uint32_t sweep = 1; sweep <= options.max_sweeps; ++sweep) {
        for (std::uint32_t r = lo; r < hi; ++r) {
          double* out = &x[r * width];
          for (std::size_t j = 0; j < width; ++j) {
            double value = rhs[(r - lo) * width + j];
            for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
              const std::uint32_t c = a.col[i];
              if (c != r && inside(c)) value -= a.value[i] * x[c * width + j];
            }
            out[j] = value / diag[r];
          }
        }
        ++cert.sweeps;
        if ((sweep % check == 0 || sweep == options.max_sweeps) &&
            block_residual_met()) {
          break;
        }
      }
    }
    for (std::uint32_t r = lo; r < hi; ++r) {
      for (std::size_t j = 0; j < width; ++j) {
        norm_x[j] = std::max(norm_x[j], std::abs(x[r * width + j]));
      }
    }
  }

  // The certificate: per column, the compensated residual over the whole
  // system against tolerance * (||A|| ||x|| + ||b||); report the column
  // furthest past (or closest to) its bound.
  cert.converged = true;
  double worst_ratio = -1.0;
  for (std::size_t j = 0; j < width; ++j) {
    double residual = 0.0;
    for (std::uint32_t r = 0; r < a.rows; ++r) {
      CompensatedSum acc;
      acc.add(b[r * width + j]);
      for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        acc.add(-a.value[i] * x[a.col[i] * width + j]);
      }
      const double value = std::abs(acc.value());
      if (!(value <= residual)) residual = value;  // keeps a NaN
    }
    const double bound = options.tolerance * (norm_a * norm_x[j] + norm_b[j]);
    const bool met = residual <= bound;
    const double ratio = !met ? std::numeric_limits<double>::infinity()
                         : bound > 0.0 ? residual / bound
                                       : 0.0;
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      cert.residual = residual;
      cert.residual_bound = bound;
    }
    cert.converged = cert.converged && met;
  }
  return cert;
}

}  // namespace ppk::util
