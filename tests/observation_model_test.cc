#include "core/observation_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/em.h"
#include "core/square_wave.h"

namespace numdist {
namespace {

TEST(DenseObservationModelTest, MatchesMatrixProducts) {
  Matrix m(3, 2);
  m(0, 0) = 1.0;
  m(1, 0) = 2.0;
  m(2, 1) = 3.0;
  const DenseObservationModel model(m);
  EXPECT_EQ(model.rows(), 3u);
  EXPECT_EQ(model.cols(), 2u);
  std::vector<double> y;
  model.Apply({1.0, 2.0}, &y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
  EXPECT_DOUBLE_EQ(y[2], 6.0);
  std::vector<double> xt;
  model.ApplyTranspose({1.0, 1.0, 1.0}, &xt);
  EXPECT_DOUBLE_EQ(xt[0], 3.0);
  EXPECT_DOUBLE_EQ(xt[1], 3.0);
}

// ------------------------------------------------- sliding window --
//
// The analytic operator must reproduce the dense closed-form transition to
// near machine precision across the privacy/granularity grid, for both
// pipelines — it is the operator EM actually iterates with.

class SlidingWindowGridTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(SlidingWindowGridTest, ContinuousMatchesDense) {
  const auto [eps, d] = GetParam();
  const SquareWave sw = SquareWave::Make(eps).ValueOrDie();
  const Matrix m = sw.TransitionMatrix(d, d);
  const SlidingWindowObservationModel model =
      SlidingWindowObservationModel::FromContinuous(sw, d, d);
  ASSERT_EQ(model.rows(), m.rows());
  ASSERT_EQ(model.cols(), m.cols());

  // Tolerance: both sides accumulate d rounded terms, and under
  // -march=native (NUMDIST_NATIVE=ON) the compiler may contract the
  // cursor/overlap arithmetic into FMAs, shifting each side by a few ulp —
  // 5e-12 absolute covers the grid up to d = 1024 in every build mode.
  Rng rng(101);
  std::vector<double> x(d);
  for (double& v : x) v = rng.Uniform();
  std::vector<double> fast;
  model.Apply(x, &fast);
  const std::vector<double> dense = m.Multiply(x);
  for (size_t j = 0; j < d; ++j) {
    EXPECT_NEAR(fast[j], dense[j], 5e-12) << "j=" << j;
  }

  std::vector<double> z(m.rows());
  for (double& v : z) v = rng.Uniform();
  std::vector<double> fast_t;
  model.ApplyTranspose(z, &fast_t);
  const std::vector<double> dense_t = m.TransposeMultiply(z);
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(fast_t[i], dense_t[i], 5e-12) << "i=" << i;
  }
}

TEST_P(SlidingWindowGridTest, DiscreteMatchesDense) {
  const auto [eps, d] = GetParam();
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(eps, d).ValueOrDie();
  const Matrix m = dsw.TransitionMatrix();
  const SlidingWindowObservationModel model =
      SlidingWindowObservationModel::FromDiscrete(dsw);
  ASSERT_EQ(model.rows(), m.rows());
  ASSERT_EQ(model.cols(), m.cols());

  Rng rng(102);
  std::vector<double> x(d);
  for (double& v : x) v = rng.Uniform();
  std::vector<double> fast;
  model.Apply(x, &fast);
  const std::vector<double> dense = m.Multiply(x);
  for (size_t j = 0; j < m.rows(); ++j) {
    EXPECT_NEAR(fast[j], dense[j], 1e-12) << "j=" << j;
  }

  std::vector<double> z(m.rows());
  for (double& v : z) v = rng.Uniform();
  std::vector<double> fast_t;
  model.ApplyTranspose(z, &fast_t);
  const std::vector<double> dense_t = m.TransposeMultiply(z);
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(fast_t[i], dense_t[i], 1e-12) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EpsTimesD, SlidingWindowGridTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 4.0),
                       ::testing::Values(size_t{16}, size_t{256},
                                         size_t{1024})));

TEST(SlidingWindowModelTest, RectangularContinuousMatchesDense) {
  // d_out != d exercises the incommensurate-grid cursor paths.
  const SquareWave sw = SquareWave::Make(1.5, 0.2).ValueOrDie();
  const size_t d = 48;
  const size_t d_out = 96;
  const Matrix m = sw.TransitionMatrix(d, d_out);
  const SlidingWindowObservationModel model =
      SlidingWindowObservationModel::FromContinuous(sw, d, d_out);
  Rng rng(103);
  std::vector<double> x(d);
  for (double& v : x) v = rng.Uniform();
  std::vector<double> fast;
  model.Apply(x, &fast);
  const std::vector<double> dense = m.Multiply(x);
  for (size_t j = 0; j < d_out; ++j) {
    EXPECT_NEAR(fast[j], dense[j], 1e-12) << "j=" << j;
  }
  std::vector<double> z(d_out);
  for (double& v : z) v = rng.Uniform();
  std::vector<double> fast_t;
  model.ApplyTranspose(z, &fast_t);
  const std::vector<double> dense_t = m.TransposeMultiply(z);
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(fast_t[i], dense_t[i], 1e-12) << "i=" << i;
  }
}

TEST(SlidingWindowModelTest, GrrDegenerateDiscreteBandwidth) {
  // b == 0 collapses DSW to GRR; the window is a single bucket.
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(1.0, 32, 0).ValueOrDie();
  const Matrix m = dsw.TransitionMatrix();
  const SlidingWindowObservationModel model =
      SlidingWindowObservationModel::FromDiscrete(dsw);
  std::vector<double> x(32, 1.0 / 32.0);
  x[7] = 0.5;
  std::vector<double> fast;
  model.Apply(x, &fast);
  const std::vector<double> dense = m.Multiply(x);
  for (size_t j = 0; j < m.rows(); ++j) {
    EXPECT_NEAR(fast[j], dense[j], 1e-14) << "j=" << j;
  }
}

TEST(SlidingWindowModelTest, EmAgreesWithDenseEm) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const size_t d = 64;
  const Matrix m = sw.TransitionMatrix(d, d);
  const SlidingWindowObservationModel model =
      SlidingWindowObservationModel::FromContinuous(sw, d, d);
  Rng rng(104);
  std::vector<uint64_t> counts(d);
  for (uint64_t& c : counts) c = 50 + rng.UniformInt(500);
  const EmResult dense = EstimateEm(m, counts).ValueOrDie();
  const EmResult fast = EstimateEm(model, counts).ValueOrDie();
  ASSERT_EQ(dense.estimate.size(), fast.estimate.size());
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(dense.estimate[i], fast.estimate[i], 1e-8) << "i=" << i;
  }
  EXPECT_EQ(dense.iterations, fast.iterations);
}

}  // namespace
}  // namespace numdist
