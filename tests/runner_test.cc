#include "eval/runner.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/datasets.h"
#include "wire/wire.h"

namespace numdist {
namespace {

ProtocolPtr MakeMethod(const char* name, double epsilon, size_t d) {
  return wire::MakeProtocolForSpec(
             wire::ParseMethodSpec(name, epsilon, d).ValueOrDie())
      .ValueOrDie();
}

TEST(GroundTruthTest, MomentsFromRawValues) {
  const std::vector<double> values = {0.0, 0.5, 1.0};
  const GroundTruth truth = ComputeGroundTruth(values, 4);
  EXPECT_NEAR(truth.mean, 0.5, 1e-12);
  EXPECT_NEAR(truth.variance, (0.25 + 0.0 + 0.25) / 3.0, 1e-12);
  EXPECT_EQ(truth.histogram.size(), 4u);
}

TEST(RunTrialsTest, ValidatesArguments) {
  const auto method = MakeMethod("sw-ems", 1.0, 16);
  Rng rng(1);
  const std::vector<double> values =
      GenerateDataset(DatasetId::kBeta, 1000, rng);
  const GroundTruth truth = ComputeGroundTruth(values, 16);
  RunnerOptions opts;
  opts.trials = 0;
  EXPECT_FALSE(RunTrials(*method, values, truth, opts).ok());
  opts.trials = 1;
  EXPECT_FALSE(RunTrials(*method, {}, truth, opts).ok());
  // The ground truth must be at the protocol's granularity.
  EXPECT_FALSE(RunTrials(*MakeMethod("sw-ems", 1.0, 32), values, truth, opts)
                   .ok());
}

TEST(RunTrialsTest, AggregatesDeterministically) {
  const auto method = MakeMethod("sw-ems", 1.0, 32);
  Rng rng(2);
  const std::vector<double> values =
      GenerateDataset(DatasetId::kBeta, 5000, rng);
  const GroundTruth truth = ComputeGroundTruth(values, 32);
  RunnerOptions opts;
  opts.trials = 3;
  opts.seed = 99;
  opts.range_queries = 50;
  const AggregateMetrics a =
      RunTrials(*method, values, truth, opts).ValueOrDie();
  const AggregateMetrics b =
      RunTrials(*method, values, truth, opts).ValueOrDie();
  EXPECT_DOUBLE_EQ(a.mean.wasserstein, b.mean.wasserstein);
  EXPECT_DOUBLE_EQ(a.mean.ks, b.mean.ks);
  EXPECT_DOUBLE_EQ(a.stddev.range_small, b.stddev.range_small);
  EXPECT_EQ(a.trials, 3u);
}

TEST(RunTrialsTest, SingleVsMultiThreadAgree) {
  const auto method = MakeMethod("sw-ems", 1.0, 32);
  Rng rng(3);
  const std::vector<double> values =
      GenerateDataset(DatasetId::kBeta, 5000, rng);
  const GroundTruth truth = ComputeGroundTruth(values, 32);
  RunnerOptions opts;
  opts.trials = 4;
  opts.range_queries = 30;
  opts.threads = 1;
  const AggregateMetrics st =
      RunTrials(*method, values, truth, opts).ValueOrDie();
  opts.threads = 2;
  const AggregateMetrics mt =
      RunTrials(*method, values, truth, opts).ValueOrDie();
  EXPECT_DOUBLE_EQ(st.mean.wasserstein, mt.mean.wasserstein);
  EXPECT_DOUBLE_EQ(st.mean.quantile_err, mt.mean.quantile_err);
}

TEST(RunTrialsTest, MetricsArePositiveUnderNoise) {
  const auto method = MakeMethod("sw-ems", 0.5, 32);
  Rng rng(4);
  const std::vector<double> values =
      GenerateDataset(DatasetId::kBeta, 8000, rng);
  const GroundTruth truth = ComputeGroundTruth(values, 32);
  RunnerOptions opts;
  opts.trials = 2;
  const AggregateMetrics agg =
      RunTrials(*method, values, truth, opts).ValueOrDie();
  EXPECT_GT(agg.mean.wasserstein, 0.0);
  EXPECT_GT(agg.mean.ks, 0.0);
  EXPECT_GT(agg.mean.range_small, 0.0);
  EXPECT_GE(agg.mean.mean_err, 0.0);
}

TEST(RunTrialsTest, TreeMethodsReportNanDistributionMetrics) {
  const auto method = MakeMethod("hh", 1.0, 64);
  Rng rng(5);
  const std::vector<double> values =
      GenerateDataset(DatasetId::kBeta, 8000, rng);
  const GroundTruth truth = ComputeGroundTruth(values, 64);
  RunnerOptions opts;
  opts.trials = 2;
  const AggregateMetrics agg =
      RunTrials(*method, values, truth, opts).ValueOrDie();
  EXPECT_TRUE(std::isnan(agg.mean.wasserstein));
  EXPECT_TRUE(std::isnan(agg.mean.ks));
  EXPECT_FALSE(std::isnan(agg.mean.range_small));
  EXPECT_GT(agg.mean.range_small, 0.0);
}

TEST(RunTrialsTest, StddevIsZeroForSingleTrial) {
  const auto method = MakeMethod("sw-ems", 1.0, 16);
  Rng rng(6);
  const std::vector<double> values =
      GenerateDataset(DatasetId::kBeta, 3000, rng);
  const GroundTruth truth = ComputeGroundTruth(values, 16);
  RunnerOptions opts;
  opts.trials = 1;
  const AggregateMetrics agg =
      RunTrials(*method, values, truth, opts).ValueOrDie();
  EXPECT_DOUBLE_EQ(agg.stddev.wasserstein, 0.0);
}

}  // namespace
}  // namespace numdist
