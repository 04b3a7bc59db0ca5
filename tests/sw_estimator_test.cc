#include "core/sw_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/histogram.h"
#include "core/transition.h"
#include "metrics/distance.h"

namespace numdist {
namespace {

std::vector<double> BimodalValues(size_t n, Rng& rng) {
  std::vector<double> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double center = rng.Bernoulli(0.6) ? 0.3 : 0.75;
    double v = center + 0.07 * rng.Gaussian();
    if (v < 0.0) v = -v;
    if (v > 1.0) v = 2.0 - v;
    values.push_back(std::clamp(v, 0.0, 1.0));
  }
  return values;
}

TEST(SwEstimatorTest, MakeValidation) {
  SwEstimatorOptions opts;
  opts.epsilon = 0.0;
  EXPECT_FALSE(SwEstimator::Make(opts).ok());
  opts.epsilon = 1.0;
  opts.d = 1;
  EXPECT_FALSE(SwEstimator::Make(opts).ok());
  opts.d = 64;
  EXPECT_TRUE(SwEstimator::Make(opts).ok());
}

TEST(SwEstimatorTest, OutputBucketsDefaultToD) {
  SwEstimatorOptions opts;
  opts.d = 64;
  const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();
  EXPECT_EQ(est.output_buckets(), 64u);
  EXPECT_EQ(est.model().cols(), 64u);
}

TEST(SwEstimatorTest, ExplicitOutputBuckets) {
  SwEstimatorOptions opts;
  opts.d = 64;
  opts.d_out = 96;
  const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();
  EXPECT_EQ(est.output_buckets(), 96u);
}

TEST(SwEstimatorTest, EmptyInputRejected) {
  SwEstimatorOptions opts;
  opts.d = 16;
  const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();
  Rng rng(1);
  EXPECT_FALSE(est.EstimateDistribution({}, rng).ok());
}

TEST(SwEstimatorTest, ReconstructionIsDistribution) {
  SwEstimatorOptions opts;
  opts.epsilon = 1.0;
  opts.d = 64;
  const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();
  Rng rng(2);
  const std::vector<double> values = BimodalValues(20000, rng);
  const std::vector<double> dist =
      est.EstimateDistribution(values, rng).ValueOrDie();
  EXPECT_EQ(dist.size(), 64u);
  EXPECT_TRUE(hist::IsDistribution(dist, 1e-9));
}

TEST(SwEstimatorTest, HighEpsilonRecoversShape) {
  SwEstimatorOptions opts;
  opts.epsilon = 5.0;
  opts.d = 64;
  const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();
  Rng rng(3);
  const std::vector<double> values = BimodalValues(100000, rng);
  const std::vector<double> truth = hist::FromSamples(values, 64);
  const std::vector<double> dist =
      est.EstimateDistribution(values, rng).ValueOrDie();
  EXPECT_LT(WassersteinDistance(truth, dist), 0.01);
}

TEST(SwEstimatorTest, SplitPhaseApiMatchesPipeline) {
  SwEstimatorOptions opts;
  opts.epsilon = 1.0;
  opts.d = 32;
  const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();
  Rng rng1(4);
  Rng rng2(4);
  const std::vector<double> values = BimodalValues(5000, rng1);
  const std::vector<double> values2 = BimodalValues(5000, rng2);
  ASSERT_EQ(values, values2);

  const std::vector<double> direct =
      est.EstimateDistribution(values, rng1).ValueOrDie();

  std::vector<double> reports;
  for (double v : values2) reports.push_back(est.PerturbOne(v, rng2));
  const EmResult manual =
      est.Reconstruct(est.Aggregate(reports)).ValueOrDie();
  ASSERT_EQ(direct.size(), manual.estimate.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(direct[i], manual.estimate[i]);
  }
}

TEST(SwEstimatorTest, DiscretePipelineWorks) {
  SwEstimatorOptions opts;
  opts.epsilon = 2.0;
  opts.d = 64;
  opts.pipeline = SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
  const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();
  Rng rng(5);
  const std::vector<double> values = BimodalValues(50000, rng);
  const std::vector<double> truth = hist::FromSamples(values, 64);
  const std::vector<double> dist =
      est.EstimateDistribution(values, rng).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(dist, 1e-9));
  EXPECT_LT(WassersteinDistance(truth, dist), 0.05);
}

TEST(SwEstimatorTest, ContinuousAndDiscretePipelinesAgreeRoughly) {
  // Paper §5.4: R-B and B-R behave very similarly.
  Rng data_rng(6);
  const std::vector<double> values = BimodalValues(80000, data_rng);
  const std::vector<double> truth = hist::FromSamples(values, 64);

  double w1[2];
  int k = 0;
  for (auto pipeline :
       {SwEstimatorOptions::Pipeline::kRandomizeBeforeBucketize,
        SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize}) {
    SwEstimatorOptions opts;
    opts.epsilon = 2.0;
    opts.d = 64;
    opts.pipeline = pipeline;
    const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();
    Rng rng(7);
    const std::vector<double> dist =
        est.EstimateDistribution(values, rng).ValueOrDie();
    w1[k++] = WassersteinDistance(truth, dist);
  }
  EXPECT_LT(std::fabs(w1[0] - w1[1]), 0.02);
}

TEST(SwEstimatorTest, EmPostUsesScaledTolerance) {
  SwEstimatorOptions opts;
  opts.epsilon = 2.0;
  opts.d = 16;
  opts.post = SwEstimatorOptions::Post::kEm;
  const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();
  // Tolerance is internal; observable effect: EM converges (does not run to
  // the iteration cap) on easy data.
  Rng rng(8);
  const std::vector<double> values = BimodalValues(20000, rng);
  std::vector<double> reports;
  for (double v : values) reports.push_back(est.PerturbOne(v, rng));
  const EmResult res = est.Reconstruct(est.Aggregate(reports)).ValueOrDie();
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, opts.max_iterations);
}

TEST(SwEstimatorTest, PerturbOneDiscreteReturnsBucketIndex) {
  SwEstimatorOptions opts;
  opts.epsilon = 1.0;
  opts.d = 32;
  opts.pipeline = SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
  const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();
  Rng rng(9);
  std::vector<double> reports;
  std::vector<uint64_t> counts(est.output_buckets(), 0);
  for (int i = 0; i < 500; ++i) {
    const double report = est.PerturbOne(0.5, rng);
    EXPECT_DOUBLE_EQ(report, std::floor(report));  // integral value
    EXPECT_GE(report, 0.0);
    EXPECT_LT(report, static_cast<double>(est.output_buckets()));
    reports.push_back(report);
    ++counts[est.OutputBucketOf(report)];
  }
  // Counting one report at a time lands each where Aggregate puts it.
  EXPECT_EQ(counts, est.Aggregate(reports));
}

TEST(SwEstimatorTest, AnalyticModelMatchesDenseTransitionBothPipelines) {
  // Reconstruction iterates the analytic sliding-window operator; the dense
  // matrix built here from the same mechanism is the reference it must
  // reproduce, output bucket count included (d + 2b on the discrete
  // pipeline).
  for (const auto pipeline :
       {SwEstimatorOptions::Pipeline::kRandomizeBeforeBucketize,
        SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize}) {
    SwEstimatorOptions opts;
    opts.epsilon = 1.0;
    opts.d = 64;
    opts.pipeline = pipeline;
    const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();
    Matrix transition =
        pipeline == SwEstimatorOptions::Pipeline::kRandomizeBeforeBucketize
            ? SquareWave::Make(opts.epsilon)
                  .ValueOrDie()
                  .TransitionMatrix(opts.d, opts.d)
            : DiscreteSquareWave::Make(opts.epsilon, opts.d)
                  .ValueOrDie()
                  .TransitionMatrix();
    NormalizeColumns(&transition);
    EXPECT_EQ(est.output_buckets(), transition.rows());
    ASSERT_EQ(est.model().rows(), transition.rows());
    ASSERT_EQ(est.model().cols(), transition.cols());
    Rng rng(77);
    std::vector<double> x(est.model().cols());
    for (double& v : x) v = rng.Uniform();
    std::vector<double> fast;
    est.model().Apply(x, &fast);
    const std::vector<double> dense = transition.Multiply(x);
    for (size_t j = 0; j < dense.size(); ++j) {
      // 1e-10: the dense reference has defensively renormalized columns.
      EXPECT_NEAR(fast[j], dense[j], 1e-10) << "j=" << j;
    }
  }
}

TEST(SwEstimatorTest, AcceleratedReconstructionMatchesPlain) {
  Rng data_rng(21);
  const std::vector<double> values = BimodalValues(30000, data_rng);
  SwEstimatorOptions opts;
  opts.epsilon = 1.0;
  opts.d = 64;
  const SwEstimator plain_est = SwEstimator::Make(opts).ValueOrDie();
  opts.accelerate_em = true;
  const SwEstimator fast_est = SwEstimator::Make(opts).ValueOrDie();

  Rng rng_a(22);
  Rng rng_b(22);
  const std::vector<double> plain =
      plain_est.EstimateDistribution(values, rng_a).ValueOrDie();
  const std::vector<double> fast =
      fast_est.EstimateDistribution(values, rng_b).ValueOrDie();
  ASSERT_EQ(plain.size(), fast.size());
  EXPECT_TRUE(hist::IsDistribution(fast, 1e-9));
  double l1 = 0.0;
  for (size_t i = 0; i < plain.size(); ++i) {
    l1 += std::fabs(plain[i] - fast[i]);
  }
  EXPECT_LT(l1, 0.05);
}

TEST(SwEstimatorTest, MoreUsersImproveAccuracy) {
  Rng data_rng(10);
  const std::vector<double> big = BimodalValues(120000, data_rng);
  const std::vector<double> small(big.begin(), big.begin() + 4000);

  SwEstimatorOptions opts;
  opts.epsilon = 1.0;
  opts.d = 64;
  const SwEstimator est = SwEstimator::Make(opts).ValueOrDie();

  Rng rng_small(11);
  Rng rng_big(11);
  const std::vector<double> truth_small = hist::FromSamples(small, 64);
  const std::vector<double> truth_big = hist::FromSamples(big, 64);
  const double w1_small = WassersteinDistance(
      truth_small, est.EstimateDistribution(small, rng_small).ValueOrDie());
  const double w1_big = WassersteinDistance(
      truth_big, est.EstimateDistribution(big, rng_big).ValueOrDie());
  EXPECT_LT(w1_big, w1_small);
}

}  // namespace
}  // namespace numdist
