// Tests of the CSR sparse-matrix kit (util/csr.hpp): builder canonical
// form, the iterative solvers and the block-triangular solver against
// hand-solvable systems, and the residual certificate's refusal to bless a
// non-converged answer.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/csr.hpp"

namespace ppk::util {
namespace {

TEST(CsrBuilder, SortsColumnsAndMergesDuplicates) {
  CsrBuilder builder(2, 3);
  builder.add(0, 2, 1.0);
  builder.add(0, 0, 2.0);
  builder.add(0, 2, 0.5);  // duplicate: must merge additively
  builder.add(1, 1, 4.0);
  const CsrMatrix a = builder.build();

  ASSERT_EQ(a.rows, 2u);
  ASSERT_EQ(a.cols, 3u);
  ASSERT_EQ(a.nnz(), 3u);
  // Row 0: columns ascending, duplicate merged.
  EXPECT_EQ(a.col[0], 0u);
  EXPECT_DOUBLE_EQ(a.value[0], 2.0);
  EXPECT_EQ(a.col[1], 2u);
  EXPECT_DOUBLE_EQ(a.value[1], 1.5);
  // Row 1.
  EXPECT_EQ(a.col[2], 1u);
  EXPECT_DOUBLE_EQ(a.value[2], 4.0);
}

TEST(CsrSolve, GaussSeidelSolvesADiagonallyDominantSystem) {
  // [ 4 -1  0 ] [x]   [ 2 ]        x = (1, 2, 3)
  // [-1  4 -1 ] [y] = [ 4 ]
  // [ 0 -1  4 ] [z]   [10 ]
  CsrBuilder builder(3, 3);
  builder.add(0, 0, 4.0);
  builder.add(0, 1, -1.0);
  builder.add(1, 0, -1.0);
  builder.add(1, 1, 4.0);
  builder.add(1, 2, -1.0);
  builder.add(2, 1, -1.0);
  builder.add(2, 2, 4.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {2.0, 4.0, 10.0};

  std::vector<double> x(3, 0.0);
  const SolveCertificate cert = solve_sparse(a, b, x);
  ASSERT_TRUE(cert.converged) << "residual " << cert.residual;
  EXPECT_LE(cert.residual, cert.residual_bound);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
  EXPECT_NEAR(x[2], 3.0, 1e-10);
}

TEST(CsrSolve, JacobiAgreesWithGaussSeidel) {
  CsrBuilder builder(3, 3);
  builder.add(0, 0, 5.0);
  builder.add(0, 2, 1.0);
  builder.add(1, 1, 3.0);
  builder.add(1, 0, -1.0);
  builder.add(2, 2, 6.0);
  builder.add(2, 1, 2.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {7.0, -1.0, 4.0};

  std::vector<double> gs(3, 0.0);
  SolveOptions gs_options;
  gs_options.method = SolveOptions::Method::kGaussSeidel;
  ASSERT_TRUE(solve_sparse(a, b, gs, gs_options).converged);

  std::vector<double> jacobi(3, 0.0);
  SolveOptions jacobi_options;
  jacobi_options.method = SolveOptions::Method::kJacobi;
  ASSERT_TRUE(solve_sparse(a, b, jacobi, jacobi_options).converged);

  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(gs[i], jacobi[i], 1e-10) << "component " << i;
  }
}

TEST(CsrSolve, MissingDiagonalFailsTheCertificateInsteadOfDividing) {
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);  // row 1 has no diagonal entry
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {1.0, 1.0};

  std::vector<double> x(2, 0.0);
  const SolveCertificate cert = solve_sparse(a, b, x);
  EXPECT_FALSE(cert.converged);
}

TEST(CsrSolve, NonConvergentSystemReportsFailure) {
  // Not diagonally dominant and spectral radius of the iteration matrix
  // > 1: both stationary methods diverge, and the certificate must say so
  // rather than returning garbage as "solved".
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 3.0);
  builder.add(1, 0, 3.0);
  builder.add(1, 1, 1.0);
  const CsrMatrix a = builder.build();
  const std::vector<double> b = {1.0, 2.0};

  std::vector<double> x(2, 0.0);
  SolveOptions options;
  options.max_sweeps = 200;
  const SolveCertificate cert = solve_sparse(a, b, x, options);
  EXPECT_FALSE(cert.converged);
  EXPECT_GT(cert.residual, cert.residual_bound);
}

/// A block lower triangular system with one block of each kind: row 0 is
/// a singleton (2 x0 = 4), rows 1..3 a direct block
///   [ 4 -1  0 ]           [ 4 ]   (x0 = 2 enters row 1 as -1 * x0)
///   [-1  4 -1 ] x1..3  =  [ 4 ] - [-2, 0, 0]   =>  x1..3 = (1, 2, 3)
///   [ 0 -1  4 ]           [10 ]
/// and rows 4 .. 4 + kBig - 1 a tridiagonal block above kDirectBlockCap,
/// coupled back into the first two blocks, whose right-hand side is made
/// from the solution x_r = 1 + r % 7.
constexpr std::uint32_t kBig = kDirectBlockCap + 44;
constexpr std::uint32_t kRows = 4 + kBig;

CsrMatrix three_block_matrix() {
  CsrBuilder builder(kRows, kRows);
  builder.add(0, 0, 2.0);
  builder.add(1, 0, -1.0);
  builder.add(1, 1, 4.0);
  builder.add(1, 2, -1.0);
  builder.add(2, 1, -1.0);
  builder.add(2, 2, 4.0);
  builder.add(2, 3, -1.0);
  builder.add(3, 2, -1.0);
  builder.add(3, 3, 4.0);
  for (std::uint32_t r = 4; r < kRows; ++r) {
    builder.add(r, r, 4.0);
    if (r > 4) builder.add(r, r - 1, -1.0);
    if (r + 1 < kRows) builder.add(r, r + 1, -1.0);
    builder.add(r, r % 4, -0.5);  // into the solved blocks
  }
  return builder.build();
}

const std::vector<std::uint32_t> kThreeBlocks = {0, 1, 4, kRows};

std::vector<double> three_block_rhs(const CsrMatrix& a) {
  std::vector<double> x(kRows);
  x[0] = 2.0;
  x[1] = 1.0;
  x[2] = 2.0;
  x[3] = 3.0;
  for (std::uint32_t r = 4; r < kRows; ++r) x[r] = 1.0 + r % 7;
  std::vector<double> b(kRows, 0.0);
  b[0] = 4.0;
  b[1] = 0.0;
  b[2] = 4.0;
  b[3] = 10.0;
  for (std::uint32_t r = 4; r < kRows; ++r) {
    for (std::size_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      b[r] += a.value[i] * x[a.col[i]];
    }
  }
  return b;
}

TEST(CsrBlockSolve, SolvesOneBlockOfEachKind) {
  const CsrMatrix a = three_block_matrix();
  const std::vector<double> b = three_block_rhs(a);

  std::vector<double> x;
  const SolveCertificate cert = solve_block_triangular(a, kThreeBlocks, b, x);
  ASSERT_TRUE(cert.converged) << "residual " << cert.residual;
  EXPECT_LE(cert.residual, cert.residual_bound);
  EXPECT_EQ(cert.blocks, 3u);
  EXPECT_EQ(cert.largest_block, kBig);
  EXPECT_EQ(cert.direct_blocks, 2u);  // the singleton and the LU block
  EXPECT_GT(cert.sweeps, 0u);         // only the large block is swept

  // Hand elimination.
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[2], 2.0, 1e-12);
  EXPECT_NEAR(x[3], 3.0, 1e-12);
  for (std::uint32_t r = 4; r < kRows; ++r) {
    EXPECT_NEAR(x[r], 1.0 + r % 7, 1e-10) << "row " << r;
  }

  // The whole-system sweep agrees.
  std::vector<double> swept(kRows, 0.0);
  ASSERT_TRUE(solve_sparse(a, b, swept).converged);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    EXPECT_NEAR(x[r], swept[r], 1e-10) << "row " << r;
  }
}

TEST(CsrBlockSolve, SeveralRightHandSidesMatchOneAtATime) {
  const CsrMatrix a = three_block_matrix();
  const std::vector<double> base = three_block_rhs(a);
  constexpr std::uint32_t kWidth = 3;
  std::vector<std::vector<double>> columns(kWidth,
                                           std::vector<double>(kRows));
  std::vector<double> interleaved(kRows * kWidth);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    columns[0][r] = base[r];
    columns[1][r] = -3.0 * base[r];
    columns[2][r] = r % 2 == 0 ? 1.0 : 0.25 * r;
    for (std::uint32_t j = 0; j < kWidth; ++j) {
      interleaved[r * kWidth + j] = columns[j][r];
    }
  }

  std::vector<double> together;
  const SolveCertificate cert =
      solve_block_triangular(a, kThreeBlocks, interleaved, together, kWidth);
  ASSERT_TRUE(cert.converged) << "residual " << cert.residual;
  EXPECT_EQ(cert.blocks, 3u);
  for (std::uint32_t j = 0; j < kWidth; ++j) {
    std::vector<double> alone;
    ASSERT_TRUE(
        solve_block_triangular(a, kThreeBlocks, columns[j], alone).converged);
    for (std::uint32_t r = 0; r < kRows; ++r) {
      EXPECT_NEAR(together[r * kWidth + j], alone[r],
                  1e-11 * (1.0 + std::abs(alone[r])))
          << "column " << j << " row " << r;
    }
  }
}

TEST(CsrBlockSolve, FailedCertificateIsReportedNotReturned) {
  // 1. The large block is not diagonally dominant (off-diagonals of 3
  //    against a diagonal of 1): Gauss-Seidel diverges within its cap.
  {
    CsrBuilder builder(kRows, kRows);
    for (std::uint32_t r = 0; r < 4; ++r) builder.add(r, r, 1.0);
    for (std::uint32_t r = 4; r < kRows; ++r) {
      builder.add(r, r, 1.0);
      if (r > 4) builder.add(r, r - 1, 3.0);
      if (r + 1 < kRows) builder.add(r, r + 1, 3.0);
    }
    const CsrMatrix a = builder.build();
    SolveOptions options;
    options.max_sweeps = 64;
    std::vector<double> x;
    const SolveCertificate cert = solve_block_triangular(
        a, kThreeBlocks, std::vector<double>(kRows, 1.0), x, 1, options);
    EXPECT_FALSE(cert.converged);
    EXPECT_FALSE(cert.residual <= cert.residual_bound);
    EXPECT_EQ(cert.sweeps, 64u);
  }
  // 2. A singular direct block (two equal rows) is refused.
  {
    CsrBuilder builder(3, 3);
    builder.add(0, 0, 1.0);
    builder.add(1, 1, 1.0);
    builder.add(1, 2, 1.0);
    builder.add(2, 1, 1.0);
    builder.add(2, 2, 1.0);
    const CsrMatrix a = builder.build();
    std::vector<double> x;
    const SolveCertificate cert = solve_block_triangular(
        a, {0, 1, 3}, std::vector<double>(3, 1.0), x);
    EXPECT_FALSE(cert.converged);
  }
  // 3. Blocks that do not make the matrix block triangular: row 0 reads
  //    x1 before block {1} is solved, so the residual certificate fails.
  {
    CsrBuilder builder(2, 2);
    builder.add(0, 0, 2.0);
    builder.add(0, 1, -1.0);
    builder.add(1, 1, 2.0);
    const CsrMatrix a = builder.build();
    std::vector<double> x;
    const SolveCertificate cert =
        solve_block_triangular(a, {0, 1, 2}, {1.0, 1.0}, x);
    EXPECT_FALSE(cert.converged);
    EXPECT_GT(cert.residual, cert.residual_bound);
  }
}

TEST(CompensatedSumTest, RecoversMassLostToCancellation) {
  // 1 + 1e-16 (x many) naively stays 1; Neumaier keeps the tail.
  CompensatedSum sum;
  sum.add(1.0);
  for (int i = 0; i < 1000; ++i) sum.add(1e-16);
  EXPECT_NEAR(sum.value(), 1.0 + 1000e-16, 1e-18);
}

}  // namespace
}  // namespace ppk::util
