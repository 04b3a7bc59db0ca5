#include "core/em.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "core/ems.h"
#include "core/observation_model.h"
#include "core/square_wave.h"
#include "kernels/kernels.h"

namespace numdist {
namespace {

Matrix IdentityMatrix(size_t d) {
  Matrix m(d, d, 0.0);
  for (size_t i = 0; i < d; ++i) m(i, i) = 1.0;
  return m;
}

TEST(EmTest, RejectsEmptyInputs) {
  EXPECT_FALSE(EstimateEm(Matrix(), {}).ok());
  const Matrix id = IdentityMatrix(3);
  EXPECT_FALSE(EstimateEm(id, {1, 2}).ok());        // size mismatch
  EXPECT_FALSE(EstimateEm(id, {0, 0, 0}).ok());     // no observations
}

TEST(EmTest, IdentityModelRecoversObservedFrequencies) {
  const Matrix id = IdentityMatrix(4);
  const std::vector<uint64_t> counts = {10, 20, 30, 40};
  const EmResult res = EstimateEm(id, counts).ValueOrDie();
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.estimate[0], 0.1, 1e-6);
  EXPECT_NEAR(res.estimate[1], 0.2, 1e-6);
  EXPECT_NEAR(res.estimate[2], 0.3, 1e-6);
  EXPECT_NEAR(res.estimate[3], 0.4, 1e-6);
}

TEST(EmTest, EstimateIsAlwaysDistribution) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const Matrix m = sw.TransitionMatrix(32, 32);
  std::vector<uint64_t> counts(32, 0);
  counts[5] = 100;
  counts[20] = 300;
  const EmResult res = EstimateEm(m, counts).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(res.estimate, 1e-9));
}

TEST(EmTest, LogLikelihoodIsNonDecreasing) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const Matrix m = sw.TransitionMatrix(16, 16);
  std::vector<uint64_t> counts(16, 10);
  counts[3] = 500;
  counts[12] = 200;
  // Run EM step by step by calling with increasing max_iterations.
  double prev_ll = -1e300;
  for (size_t iters = 1; iters <= 40; iters += 3) {
    EmOptions opts;
    opts.max_iterations = iters;
    opts.min_iterations = iters;  // force exactly `iters` iterations
    opts.tol = 0.0;
    const EmResult res = EstimateEm(m, counts, opts).ValueOrDie();
    EXPECT_GE(res.log_likelihood, prev_ll - 1e-9) << "iters=" << iters;
    prev_ll = res.log_likelihood;
  }
}

TEST(EmTest, ConvergesOnNoiselessSquareWaveObservations) {
  // Feed EM the *exact* expected output distribution for a known input;
  // the MLE should be (near) the true input distribution.
  const SquareWave sw = SquareWave::Make(4.0, 0.05).ValueOrDie();
  const size_t d = 16;
  const Matrix m = sw.TransitionMatrix(d, d);
  std::vector<double> truth(d, 0.0);
  truth[4] = 0.5;
  truth[5] = 0.25;
  truth[10] = 0.25;
  const std::vector<double> expected_out = m.Multiply(truth);
  // Convert to large integer counts (small rounding noise).
  std::vector<uint64_t> counts(expected_out.size());
  for (size_t j = 0; j < counts.size(); ++j) {
    counts[j] = static_cast<uint64_t>(std::llround(expected_out[j] * 1e7));
  }
  EmOptions opts;
  opts.tol = 1e-10;
  opts.max_iterations = 20000;
  const EmResult res = EstimateEm(m, counts, opts).ValueOrDie();
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(res.estimate[i], truth[i], 0.02) << "i=" << i;
  }
}

TEST(EmTest, ReportsIterationCount) {
  const Matrix id = IdentityMatrix(4);
  EmOptions opts;
  opts.max_iterations = 3;
  opts.min_iterations = 3;
  opts.tol = 0.0;
  const EmResult res =
      EstimateEm(id, std::vector<uint64_t>{5, 5, 5, 5}, opts).ValueOrDie();
  EXPECT_EQ(res.iterations, 3u);
  EXPECT_FALSE(res.converged);
}

TEST(EmTest, HonorsIterationCap) {
  const SquareWave sw = SquareWave::Make(0.5).ValueOrDie();
  const Matrix m = sw.TransitionMatrix(32, 32);
  std::vector<uint64_t> counts(32, 100);
  EmOptions opts;
  opts.max_iterations = 7;
  opts.tol = 0.0;  // never converge by tolerance
  const EmResult res = EstimateEm(m, counts, opts).ValueOrDie();
  EXPECT_EQ(res.iterations, 7u);
}

// ------------------------------------------------ log-likelihood skip --
//
// EM takes the E step's logs only on the iterations whose log-likelihood
// its stopping rule or result reads. A hand-rolled copy of the loop that
// takes them on every iteration, through the public EmSweep, must agree
// with it bit for bit.

// EM's loop (em.cc RunEm) with the log-likelihood on every iteration; the
// warm start floors at 1e-12 / d and renormalizes as em.h documents.
EmResult EmWithEveryLogLikelihood(const ObservationModel& model,
                                  const std::vector<double>& counts,
                                  const EmOptions& opts,
                                  const std::vector<double>* warm) {
  const size_t d = model.cols();
  std::vector<double> x(d, 1.0 / static_cast<double>(d));
  if (warm != nullptr) {
    const double floor = 1e-12 / static_cast<double>(d);
    double total = 0.0;
    for (size_t i = 0; i < d; ++i) {
      const double v = (*warm)[i];
      x[i] = (std::isfinite(v) && v > floor) ? v : floor;
      total += x[i];
    }
    kernels::Scale(x.data(), 1.0 / total, d);
  }
  std::vector<double> y;
  std::vector<double> weights;
  std::vector<double> next(d);
  EmResult result;
  double prev_ll = -std::numeric_limits<double>::infinity();
  for (size_t iter = 1; iter <= opts.max_iterations; ++iter) {
    const double ll = model.EmSweep(x, counts, &y, &weights, &next,
                                    /*with_log_likelihood=*/true);
    const double total = kernels::MulAndSum(next.data(), x.data(), d);
    kernels::Scale(next.data(), 1.0 / total, d);
    if (opts.smoothing) BinomialSmooth(&next);
    std::swap(x, next);
    result.iterations = iter;
    result.log_likelihood = ll;
    if (iter >= opts.min_iterations && ll - prev_ll < opts.tol &&
        std::isfinite(prev_ll)) {
      result.converged = true;
      break;
    }
    prev_ll = ll;
  }
  result.estimate = x;
  return result;
}

TEST(EmLogLikelihoodSkipTest, EqualsTakingLogsOnEveryIteration) {
  const size_t d = 48;
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const Matrix m = sw.TransitionMatrix(d, d);
  const DenseObservationModel dense(&m);
  const SlidingWindowObservationModel sliding =
      SlidingWindowObservationModel::FromContinuous(sw, d, d);
  Rng rng(41);
  std::vector<double> reports;
  for (size_t i = 0; i < 20000; ++i) {
    reports.push_back(sw.Perturb(rng.Bernoulli(0.4) ? 0.2 : 0.75, rng));
  }
  const std::vector<uint64_t> histogram = sw.BucketizeReports(reports, d);
  const std::vector<double> counts(histogram.begin(), histogram.end());
  // A warm start with an exact zero and a non-finite entry, both floored.
  std::vector<double> warm(d);
  for (double& v : warm) v = rng.Uniform();
  warm[3] = 0.0;
  warm[7] = std::numeric_limits<double>::quiet_NaN();

  const ObservationModel* models[] = {&dense, &sliding};
  size_t converged = 0;
  size_t capped = 0;
  for (const ObservationModel* model : models) {
    for (const size_t min_iterations : {0, 1, 5, 20}) {
      for (const size_t max_iterations : {1, 3, 50}) {
        for (const bool is_warm : {false, true}) {
          for (const bool smoothing : {false, true}) {
            EmOptions opts;
            opts.tol = 2.0;
            opts.min_iterations = min_iterations;
            opts.max_iterations = max_iterations;
            opts.smoothing = smoothing;
            EmCheckpoint checkpoint;
            if (is_warm) checkpoint.estimate = warm;
            const EmResult got =
                EstimateEmWeighted(*model, counts, opts, &checkpoint)
                    .ValueOrDie();
            const EmResult want = EmWithEveryLogLikelihood(
                *model, counts, opts, is_warm ? &warm : nullptr);
            const std::string where =
                std::string(model == &dense ? "dense" : "sliding") +
                " min=" + std::to_string(min_iterations) +
                " max=" + std::to_string(max_iterations) +
                (is_warm ? " warm" : " cold") +
                (smoothing ? " ems" : " em");
            ASSERT_EQ(got.estimate.size(), d) << where;
            EXPECT_EQ(std::memcmp(got.estimate.data(), want.estimate.data(),
                                  d * sizeof(double)),
                      0)
                << where;
            EXPECT_EQ(got.iterations, want.iterations) << where;
            EXPECT_EQ(got.converged, want.converged) << where;
            EXPECT_EQ(std::memcmp(&got.log_likelihood, &want.log_likelihood,
                                  sizeof(double)),
                      0)
                << where << " ll " << got.log_likelihood << " vs "
                << want.log_likelihood;
            (got.converged ? converged : capped) += 1;
          }
        }
      }
    }
  }
  // The grid runs both exits of the loop.
  EXPECT_GT(converged, 0u);
  EXPECT_GT(capped, 0u);
}

// ------------------------------------------------------- smoothing --

TEST(BinomialSmoothTest, InteriorKernelWeights) {
  std::vector<double> x = {0.0, 1.0, 0.0, 0.0, 0.0};
  BinomialSmooth(&x);
  // Pre-normalization: [1/3*? ...]. Mass: edge kernels renormalize, whole
  // vector renormalized; check the spike spread symmetrically.
  EXPECT_GT(x[0], 0.0);
  EXPECT_GT(x[2], 0.0);
  EXPECT_NEAR(hist::Sum(x), 1.0, 1e-12);
  EXPECT_GT(x[1], x[0]);
  EXPECT_GT(x[1], x[2]);
  EXPECT_DOUBLE_EQ(x[3], 0.0);
}

TEST(BinomialSmoothTest, PreservesUniform) {
  std::vector<double> x(8, 0.125);
  BinomialSmooth(&x);
  for (double v : x) EXPECT_NEAR(v, 0.125, 1e-12);
}

TEST(BinomialSmoothTest, PreservesNonNegativityAndSum) {
  std::vector<double> x = {0.7, 0.0, 0.1, 0.0, 0.2};
  BinomialSmooth(&x);
  double sum = 0.0;
  for (double v : x) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(BinomialSmoothTest, ReducesTotalVariation) {
  std::vector<double> x = {0.5, 0.0, 0.5, 0.0, 0.0};
  const auto tv = [](const std::vector<double>& v) {
    double acc = 0.0;
    for (size_t i = 0; i + 1 < v.size(); ++i) acc += std::fabs(v[i + 1] - v[i]);
    return acc;
  };
  const double before = tv(x);
  BinomialSmooth(&x);
  EXPECT_LT(tv(x), before);
}

TEST(BinomialSmoothTest, TinyVectorsUntouched) {
  std::vector<double> x = {0.3, 0.7};
  BinomialSmooth(&x);
  EXPECT_DOUBLE_EQ(x[0], 0.3);
  EXPECT_DOUBLE_EQ(x[1], 0.7);
}

// ------------------------------------------------------------- EMS --

TEST(EmsTest, ForcesSmoothing) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const Matrix m = sw.TransitionMatrix(32, 32);
  std::vector<uint64_t> counts(32, 0);
  counts[10] = 1000;
  EmOptions opts;
  opts.smoothing = false;  // EstimateEms must override this
  const EmResult res = EstimateEms(m, counts, opts).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(res.estimate, 1e-9));
  // A single-spike observation reconstructed with smoothing cannot put
  // everything into one bucket.
  double maxv = 0.0;
  for (double v : res.estimate) maxv = std::max(maxv, v);
  EXPECT_LT(maxv, 0.9);
}

TEST(EmsTest, SmootherThanPlainEmOnSpikyNoise) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const size_t d = 64;
  const Matrix m = sw.TransitionMatrix(d, d);
  // Noisy observations: uniform + noise spikes.
  Rng rng(77);
  std::vector<uint64_t> counts(d);
  for (size_t j = 0; j < d; ++j) counts[j] = 50 + rng.UniformInt(60);
  const auto tv = [](const std::vector<double>& v) {
    double acc = 0.0;
    for (size_t i = 0; i + 1 < v.size(); ++i) acc += std::fabs(v[i + 1] - v[i]);
    return acc;
  };
  const EmResult em = EstimateEm(m, counts).ValueOrDie();
  const EmResult ems = EstimateEms(m, counts).ValueOrDie();
  EXPECT_LT(tv(ems.estimate), tv(em.estimate));
}

TEST(SmoothingOnlyTest, ProducesDistribution) {
  std::vector<uint64_t> counts(48, 0);
  counts[10] = 500;
  counts[30] = 500;
  const std::vector<double> est = SmoothingOnlyEstimate(counts, 32);
  EXPECT_EQ(est.size(), 32u);
  EXPECT_TRUE(hist::IsDistribution(est, 1e-9));
}

TEST(SmoothingOnlyTest, SplitsOutputMassProportionallyAcrossInputBuckets) {
  // 2 output buckets over 3 input buckets, no smoothing passes: output
  // bucket 0 covers input [0, 1.5) -> buckets {0 fully, 1 half}; bucket 1
  // covers [1.5, 3) -> {1 half, 2 fully}. A point-assignment would dump
  // everything into single buckets instead.
  std::vector<uint64_t> counts = {600, 0};
  const std::vector<double> est = SmoothingOnlyEstimate(counts, 3, 0);
  ASSERT_EQ(est.size(), 3u);
  EXPECT_NEAR(est[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(est[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(est[2], 0.0, 1e-12);
}

TEST(SmoothingOnlyTest, IdentityGridIsExactWithoutSmoothing) {
  std::vector<uint64_t> counts = {10, 30, 40, 20};
  const std::vector<double> est = SmoothingOnlyEstimate(counts, 4, 0);
  ASSERT_EQ(est.size(), 4u);
  EXPECT_NEAR(est[0], 0.1, 1e-12);
  EXPECT_NEAR(est[1], 0.3, 1e-12);
  EXPECT_NEAR(est[2], 0.4, 1e-12);
  EXPECT_NEAR(est[3], 0.2, 1e-12);
}

}  // namespace
}  // namespace numdist
