#include "core/observation_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

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
  const DenseObservationModel model(&m);
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
  // band-table/overlap arithmetic into FMAs, shifting each side by a few
  // ulp — 5e-12 absolute covers the grid up to d = 1024 in every build
  // mode.
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
  // d_out != d exercises the incommensurate-grid band rows.
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

// ------------------------------------------------ continuous band form --
//
// The continuous operator's rows are a prefix-sum interior plus exact edge
// coefficients. Every shape of output grid (d_out = d, coarser, finer,
// incommensurate) and input (dense, half empty, all mass on one end) must
// match the dense matrix at the grid tolerance above.

enum class InputShape { kUniform, kHalfZero, kFirstOnly, kLastOnly };

std::vector<double> MakeInput(InputShape shape, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case InputShape::kUniform:
        v[i] = rng.Uniform();
        break;
      case InputShape::kHalfZero:
        v[i] = i < n / 2 ? 0.0 : rng.Uniform();
        break;
      case InputShape::kFirstOnly:
        v[i] = i == 0 ? 1.0 : 0.0;
        break;
      case InputShape::kLastOnly:
        v[i] = i + 1 == n ? 1.0 : 0.0;
        break;
    }
  }
  return v;
}

// Both products of `model` against the dense `m`, on every input shape.
void ExpectMatchesDense(const Matrix& m, const ObservationModel& model,
                        double tolerance) {
  const size_t d = m.cols();
  const size_t d_out = m.rows();
  ASSERT_EQ(model.rows(), d_out);
  ASSERT_EQ(model.cols(), d);
  for (const InputShape shape :
       {InputShape::kUniform, InputShape::kHalfZero, InputShape::kFirstOnly,
        InputShape::kLastOnly}) {
    const int s = static_cast<int>(shape);
    const std::vector<double> x = MakeInput(shape, d, 200 + d + s);
    std::vector<double> fast;
    model.Apply(x, &fast);
    const std::vector<double> dense = m.Multiply(x);
    for (size_t j = 0; j < d_out; ++j) {
      ASSERT_NEAR(fast[j], dense[j], tolerance)
          << "Apply d_out=" << d_out << " shape=" << s << " j=" << j;
    }
    const std::vector<double> z = MakeInput(shape, d_out, 300 + d_out + s);
    std::vector<double> fast_t;
    model.ApplyTranspose(z, &fast_t);
    const std::vector<double> dense_t = m.TransposeMultiply(z);
    for (size_t i = 0; i < d; ++i) {
      ASSERT_NEAR(fast_t[i], dense_t[i], tolerance)
          << "ApplyTranspose d_out=" << d_out << " shape=" << s << " i=" << i;
    }
  }
}

void ExpectContinuousMatchesDense(const SquareWave& sw, size_t d,
                                  size_t d_out, double tolerance) {
  ExpectMatchesDense(
      sw.TransitionMatrix(d, d_out),
      SlidingWindowObservationModel::FromContinuous(sw, d, d_out), tolerance);
}

// The (eps, d) grid both band forms are checked on.
const auto kBandGrid =
    ::testing::Combine(::testing::Values(0.5, 1.0, 4.0, 8.0),
                       ::testing::Values(size_t{2}, size_t{3}, size_t{16},
                                         size_t{257}, size_t{1024}));

class ContinuousBandGridTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(ContinuousBandGridTest, EveryOutputGridMatchesDense) {
  const auto [eps, d] = GetParam();
  const SquareWave sw = SquareWave::Make(eps).ValueOrDie();
  for (const size_t d_out : {d, d / 2 + 1, 2 * d, 3 * d + 1}) {
    ExpectContinuousMatchesDense(sw, d, d_out, 5e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(EpsTimesD, ContinuousBandGridTest, kBandGrid);

// ------------------------------------------------- discrete band form --
//
// The discrete operator's rows are prefix-sum interiors with no edges:
// row j of M is [max(0, j - 2b), min(j + 1, d)), row i of M^T is
// [i, i + 2b + 1). Every bandwidth, from GRR (b = 0) to the widest a
// domain allows (b = d - 1), must match the dense DSW matrix.

class DiscreteBandGridTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(DiscreteBandGridTest, EveryBandwidthMatchesDense) {
  const auto [eps, d] = GetParam();
  const size_t optimal = DiscreteSquareWave::Make(eps, d).ValueOrDie().b();
  for (const size_t b : {size_t{0}, size_t{1}, optimal, d - 1}) {
    SCOPED_TRACE("b=" + std::to_string(b));
    const DiscreteSquareWave dsw =
        DiscreteSquareWave::Make(eps, d, static_cast<int64_t>(b))
            .ValueOrDie();
    ExpectMatchesDense(dsw.TransitionMatrix(),
                       SlidingWindowObservationModel::FromDiscrete(dsw),
                       1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(EpsTimesD, DiscreteBandGridTest, kBandGrid);

TEST(SlidingWindowModelTest, RowsWithNoInteriorBandMatchDense) {
  // At eps = 4 the wave (2b ~ 0.06) is narrower than an output bucket at
  // d = 16, and the plateau between its two slopes (w_out - 2b) is shorter
  // than an input bucket: no row has an interior band, and every bucket a
  // row touches is an edge.
  const SquareWave sw = SquareWave::Make(4.0).ValueOrDie();
  const size_t d = 16;
  const double w_in = 1.0 / d;
  const double w_out = (1.0 + 2.0 * sw.b()) / d;
  ASSERT_LT(2.0 * sw.b(), w_out);
  ASSERT_LT(w_out - 2.0 * sw.b(), w_in);
  ExpectContinuousMatchesDense(sw, d, d, 1e-12);
}

TEST(SlidingWindowModelTest, ProductsAreTheSameBitsOnFirstAndLaterCalls) {
  // The band tables are built by the first product of a model and shared
  // by every live model of its shape. A second call, a copy made before
  // the build, tables built again once no model of the shape is left, and
  // threads racing to build them all give the same bits, in both
  // pipelines.
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(1.0, 300).ValueOrDie();
  const std::function<SlidingWindowObservationModel()> pipelines[] = {
      [&sw] {
        return SlidingWindowObservationModel::FromContinuous(sw, 300, 451);
      },
      [&dsw] { return SlidingWindowObservationModel::FromDiscrete(dsw); },
  };
  for (const auto& make : pipelines) {
    const size_t d = make().cols();
    const size_t d_out = make().rows();
    SCOPED_TRACE("d_out=" + std::to_string(d_out));
    const std::vector<double> x = MakeInput(InputShape::kUniform, d, 1);
    const std::vector<double> z = MakeInput(InputShape::kUniform, d_out, 2);
    const auto products = [&](const SlidingWindowObservationModel& model) {
      std::vector<double> y;
      std::vector<double> xt;
      model.Apply(x, &y);
      model.ApplyTranspose(z, &xt);
      y.insert(y.end(), xt.begin(), xt.end());
      return y;
    };
    std::vector<double> want;
    const auto same_bits = [&](const std::vector<double>& got) {
      return got.size() == want.size() &&
             std::memcmp(got.data(), want.data(),
                         want.size() * sizeof(double)) == 0;
    };
    {
      const SlidingWindowObservationModel first = make();
      const SlidingWindowObservationModel copy = first;  // before any product
      want = products(first);
      EXPECT_TRUE(same_bits(products(first)));
      EXPECT_TRUE(same_bits(products(copy)));
      EXPECT_TRUE(same_bits(products(make())));
    }
    const SlidingWindowObservationModel rebuilt = make();
    std::vector<std::vector<double>> got(4);
    std::vector<std::thread> threads;
    for (auto& out : got) {
      threads.emplace_back(
          [&rebuilt, &products, &out] { out = products(rebuilt); });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& out : got) EXPECT_TRUE(same_bits(out));
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
