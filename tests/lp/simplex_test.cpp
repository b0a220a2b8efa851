#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace flattree::lp {
namespace {

TEST(Simplex, BasicMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> optimum 12 at (4, 0).
  LpProblem p(2);
  p.set_objective(0, 3);
  p.set_objective(1, 2);
  p.add_row({1, 1}, RowType::Le, 4);
  p.add_row({1, 3}, RowType::Le, 6);
  auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-9);
  EXPECT_NEAR(s.x[0], 4.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
}

TEST(Simplex, InteriorOptimum) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> (4/3, 4/3), obj 8/3.
  LpProblem p(2);
  p.set_objective(0, 1);
  p.set_objective(1, 1);
  p.add_row({2, 1}, RowType::Le, 4);
  p.add_row({1, 2}, RowType::Le, 4);
  auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, 8.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.x[0], 4.0 / 3.0, 1e-9);
}

TEST(Simplex, EqualityConstraints) {
  // max x s.t. x + y == 3, y >= 0.5 -> x = 2.5.
  LpProblem p(2);
  p.set_objective(0, 1);
  p.add_row({1, 1}, RowType::Eq, 3);
  p.add_row({0, 1}, RowType::Ge, 0.5);
  auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, 2.5, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem p(1);
  p.add_row({1}, RowType::Ge, 2);
  p.add_row({1}, RowType::Le, 1);
  EXPECT_EQ(solve(p).status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem p(1);
  p.set_objective(0, 1);
  p.add_row({-1}, RowType::Le, 1);
  EXPECT_EQ(solve(p).status, LpStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalized) {
  // x >= 2 written as -x <= -2; max -x -> optimum -2.
  LpProblem p(1);
  p.set_objective(0, -1);
  p.add_row({-1}, RowType::Le, -2);
  auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
}

TEST(Simplex, NoConstraintsZeroOrUnbounded) {
  LpProblem p(2);
  p.set_objective(0, -1);
  auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_EQ(s.objective, 0.0);
  p.set_objective(1, 1);
  EXPECT_EQ(solve(p).status, LpStatus::Unbounded);
}

TEST(Simplex, SparseRowsAccumulateDuplicates) {
  LpProblem p(2);
  p.set_objective(0, 1);
  p.add_row_sparse({{0, 1.0}, {0, 1.0}, {1, 1.0}}, RowType::Le, 4);  // 2x + y <= 4
  auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(Simplex, DegenerateVertexHandled) {
  // Redundant constraints meeting at the optimum (classic degeneracy).
  LpProblem p(2);
  p.set_objective(0, 1);
  p.set_objective(1, 1);
  p.add_row({1, 0}, RowType::Le, 1);
  p.add_row({0, 1}, RowType::Le, 1);
  p.add_row({1, 1}, RowType::Le, 2);  // redundant at optimum
  auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(Simplex, RedundantEqualityRows) {
  LpProblem p(2);
  p.set_objective(0, 1);
  p.add_row({1, 1}, RowType::Eq, 2);
  p.add_row({2, 2}, RowType::Eq, 4);  // same constraint scaled
  auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(Simplex, MaxFlowAsLp) {
  // Max-flow 0->3 on the diamond (two unit paths): variables = 4 path
  // arcs... modelled as two path variables with a shared middle link.
  // max f1 + f2, f1 <= 1, f2 <= 1, f1 + f2 <= 1.5.
  LpProblem p(2);
  p.set_objective(0, 1);
  p.set_objective(1, 1);
  p.add_row({1, 0}, RowType::Le, 1);
  p.add_row({0, 1}, RowType::Le, 1);
  p.add_row({1, 1}, RowType::Le, 1.5);
  auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-9);
}

TEST(Simplex, RandomLpsFeasibilityAndOptimalityCertificates) {
  // Random bounded LPs: verify the returned x is feasible and no
  // coordinate ascent direction improves (weak certificate).
  util::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t vars = 2 + rng.index(3);
    std::size_t rows = 2 + rng.index(4);
    LpProblem p(vars);
    for (std::size_t v = 0; v < vars; ++v) p.set_objective(v, 0.1 + (2.0 - 0.1) * rng.uniform());
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<double> coeffs(vars);
      for (auto& c : coeffs) c = 0.1 + (1.0 - 0.1) * rng.uniform();  // positive -> bounded
      p.add_row(coeffs, RowType::Le, 1.0 + (5.0 - 1.0) * rng.uniform());
    }
    auto s = solve(p);
    ASSERT_EQ(s.status, LpStatus::Optimal);
    for (std::size_t r = 0; r < rows; ++r) {
      double lhs = 0;
      for (std::size_t v = 0; v < vars; ++v) lhs += p.row_coeffs(r)[v] * s.x[v];
      EXPECT_LE(lhs, p.row_rhs(r) + 1e-7);
    }
    for (double xv : s.x) EXPECT_GE(xv, -1e-9);
  }
}

TEST(LpProblem, RowAccessorsAndErrors) {
  LpProblem p(2);
  p.add_row({1, 2}, RowType::Ge, 3);
  EXPECT_EQ(p.num_rows(), 1u);
  EXPECT_EQ(p.row_type(0), RowType::Ge);
  EXPECT_EQ(p.row_rhs(0), 3.0);
  EXPECT_EQ(p.row_coeffs(0)[1], 2.0);
  EXPECT_THROW(p.add_row({1}, RowType::Le, 1), std::invalid_argument);
  EXPECT_THROW(p.set_objective(5, 1.0), std::out_of_range);
}

TEST(LpStatus, ToStringCoverage) {
  EXPECT_STREQ(to_string(LpStatus::Optimal), "optimal");
  EXPECT_STREQ(to_string(LpStatus::Infeasible), "infeasible");
  EXPECT_STREQ(to_string(LpStatus::Unbounded), "unbounded");
  EXPECT_STREQ(to_string(LpStatus::IterationLimit), "iteration-limit");
}

}  // namespace
}  // namespace flattree::lp
