// Robustness / adversarial-input suite: the estimators must stay numerically
// sane at the extremes a deployment will eventually hit — tiny cohorts,
// extreme privacy budgets, degenerate (point-mass) data, adversarially spiky
// observations, and pathological post-processing inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "common/histogram.h"
#include "core/ems.h"
#include "core/sw_estimator.h"
#include "eval/incremental.h"
#include "hierarchy/admm.h"
#include "hierarchy/hh.h"
#include "mean/moments.h"
#include "postprocess/norm_sub.h"
#include "scenario/attack.h"

namespace numdist {
namespace {

TEST(RobustnessTest, TinyCohortStillYieldsDistribution) {
  SwEstimatorOptions options;
  options.epsilon = 1.0;
  options.d = 64;
  const SwEstimator est = SwEstimator::Make(options).ValueOrDie();
  Rng rng(1);
  // Three users only.
  const std::vector<double> dist =
      est.EstimateDistribution({0.1, 0.5, 0.9}, rng).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(dist, 1e-9));
}

TEST(RobustnessTest, SingleUser) {
  SwEstimatorOptions options;
  options.epsilon = 0.5;
  options.d = 16;
  const SwEstimator est = SwEstimator::Make(options).ValueOrDie();
  Rng rng(2);
  const std::vector<double> dist =
      est.EstimateDistribution({0.5}, rng).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(dist, 1e-9));
}

TEST(RobustnessTest, ExtremePrivacyBudgets) {
  for (double eps : {0.01, 10.0}) {
    SwEstimatorOptions options;
    options.epsilon = eps;
    options.d = 32;
    const SwEstimator est = SwEstimator::Make(options).ValueOrDie();
    Rng rng(3);
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i) values.push_back(rng.Uniform());
    const std::vector<double> dist =
        est.EstimateDistribution(values, rng).ValueOrDie();
    EXPECT_TRUE(hist::IsDistribution(dist, 1e-9)) << "eps=" << eps;
  }
}

TEST(RobustnessTest, PointMassData) {
  // All users hold exactly the same value.
  SwEstimatorOptions options;
  options.epsilon = 3.0;
  options.d = 64;
  const SwEstimator est = SwEstimator::Make(options).ValueOrDie();
  Rng rng(4);
  const std::vector<double> values(20000, 0.25);
  const std::vector<double> dist =
      est.EstimateDistribution(values, rng).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(dist, 1e-9));
  // Mass concentrates around bucket 16 (0.25 * 64).
  double near = 0.0;
  for (size_t i = 12; i <= 20; ++i) near += dist[i];
  EXPECT_GT(near, 0.5);
}

TEST(RobustnessTest, BoundaryValues) {
  // Values exactly at the domain edges 0 and 1.
  SwEstimatorOptions options;
  options.epsilon = 1.0;
  options.d = 16;
  const SwEstimator est = SwEstimator::Make(options).ValueOrDie();
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) values.push_back(i % 2 == 0 ? 0.0 : 1.0);
  const std::vector<double> dist =
      est.EstimateDistribution(values, rng).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(dist, 1e-9));
  // Both edge buckets should carry visible mass.
  EXPECT_GT(dist.front(), 0.05);
  EXPECT_GT(dist.back(), 0.05);
}

TEST(RobustnessTest, EmWithAllMassInOneOutputBucket) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const Matrix m = sw.TransitionMatrix(32, 32);
  std::vector<uint64_t> counts(32, 0);
  counts[0] = 1000000;  // adversarially concentrated observations
  const EmResult res = EstimateEms(m, counts).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(res.estimate, 1e-9));
  for (double v : res.estimate) EXPECT_TRUE(std::isfinite(v));
}

TEST(RobustnessTest, EmWithHugeCounts) {
  // Counts near the paper's full population scale must not overflow.
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const Matrix m = sw.TransitionMatrix(16, 16);
  std::vector<uint64_t> counts(16, 200000000ULL);  // 3.2e9 total
  const EmResult res = EstimateEms(m, counts).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(res.estimate, 1e-9));
}

TEST(RobustnessTest, NormSubWithExtremeMagnitudes) {
  const std::vector<double> out = NormSub({1e12, -1e12, 3.0});
  EXPECT_TRUE(hist::IsDistribution(out, 1e-6));
  const std::vector<double> tiny = NormSub({1e-300, 2e-300});
  EXPECT_TRUE(hist::IsDistribution(tiny, 1e-9));
}

TEST(RobustnessTest, AdmmWithAllZeroTree) {
  const HierarchyTree tree = HierarchyTree::Make(16, 4).ValueOrDie();
  const AdmmResult res =
      HhAdmm(tree, std::vector<double>(tree.NumNodes(), 0.0)).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(res.distribution, 1e-9));
}

TEST(RobustnessTest, AdmmWithHostileNoise) {
  const HierarchyTree tree = HierarchyTree::Make(64, 4).ValueOrDie();
  Rng rng(6);
  std::vector<double> nodes(tree.NumNodes());
  for (double& v : nodes) v = rng.Uniform(-100.0, 100.0);
  const AdmmResult res = HhAdmm(tree, nodes).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(res.distribution, 1e-9));
  for (double v : res.node_values) EXPECT_TRUE(std::isfinite(v));
}

TEST(RobustnessTest, HhWithFewerUsersThanLevels) {
  const HhProtocol hh = HhProtocol::Make(1.0, 64, 4).ValueOrDie();
  Rng rng(7);
  // Two users, three levels: some levels see zero reports.
  const std::vector<double> nodes =
      hh.CollectNodeEstimates({3u, 40u}, rng);
  EXPECT_EQ(nodes.size(), hh.tree().NumNodes());
  for (double v : nodes) EXPECT_TRUE(std::isfinite(v));
}

TEST(RobustnessTest, MomentsOnConstantData) {
  Rng rng(8);
  const std::vector<double> values(5000, 0.7);
  const MomentsEstimate est =
      EstimateMoments(values, MeanMechanism::kPiecewiseMechanism, 2.0, rng)
          .ValueOrDie();
  EXPECT_NEAR(est.mean, 0.7, 0.05);
  EXPECT_GE(est.variance, 0.0);
  EXPECT_LT(est.variance, 0.05);
}

TEST(RobustnessTest, SmoothingDegenerateVectors) {
  std::vector<double> one = {1.0};
  BinomialSmooth(&one);
  EXPECT_DOUBLE_EQ(one[0], 1.0);
  std::vector<double> zeros(8, 0.0);
  BinomialSmooth(&zeros);
  for (double v : zeros) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(RobustnessTest, PoisonedSketchStillYieldsDistribution) {
  // An attacker who controls a shard can hand the server arbitrary output
  // counts. EM/EMS must still return a valid distribution — reconstruction
  // is the last line of defense and may never amplify hostile counts into
  // NaNs or negative mass.
  SwEstimatorOptions options;
  options.epsilon = 1.0;
  options.d = 64;
  const SwEstimator est = SwEstimator::Make(options).ValueOrDie();
  Rng rng(11);
  std::vector<double> honest;
  for (int i = 0; i < 20000; ++i) honest.push_back(rng.Uniform());
  std::vector<double> reports;
  est.PerturbBatch(honest, rng, &reports);
  std::vector<uint64_t> counts = est.Aggregate(reports);
  // Adversarial spike: one output bucket claims 100x the whole cohort.
  counts[counts.size() / 2] += 2000000;
  const EmResult res = est.Reconstruct(counts).ValueOrDie();
  EXPECT_TRUE(hist::IsDistribution(res.estimate, 1e-9));
  for (double v : res.estimate) EXPECT_TRUE(std::isfinite(v));
}

TEST(RobustnessTest, IncrementalReconstructionUnderMidStreamAttack) {
  // Warm-started and mini-batch reconstruction over a stream that turns
  // hostile halfway: an output-poisoning phase injects crafted reports at
  // a target bucket. Both modes must keep producing valid distributions
  // at every tick, and the post-attack estimate must show the injected
  // spike (the attack is visible, not silently absorbed).
  SwEstimatorOptions options;
  options.epsilon = 4.0;  // narrow wave: the poison concentrates
  options.d = 64;
  auto shared = std::make_shared<const SwEstimator>(
      SwEstimator::Make(options).ValueOrDie());
  AttackSpec atk;
  atk.kind = AttackKind::kOutputPoison;
  atk.fraction = 1.0;  // every report in the attack phase is crafted
  atk.target = 48;

  for (const auto mode : {IncrementalOptions::Mode::kWarm,
                          IncrementalOptions::Mode::kMiniBatch}) {
    IncrementalOptions inc;
    inc.mode = mode;
    inc.half_life = mode == IncrementalOptions::Mode::kMiniBatch ? 4000.0 : 0.0;
    auto recon = IncrementalReconstructor::Make(shared, inc).ValueOrDie();
    std::vector<uint64_t> counts(shared->output_buckets(), 0);
    uint64_t reports = 0;
    Rng honest_rng(12);
    Rng attack_rng = AttackPhaseShardRng(12, 1, 0);
    std::vector<double> last_estimate;
    for (int tick = 0; tick < 8; ++tick) {
      const bool attacked = tick >= 4;
      for (int i = 0; i < 2500; ++i) {
        const double report =
            attacked
                ? CraftSwReport(*shared, atk, options.d, attack_rng)
                : shared->PerturbOne(honest_rng.Uniform(), honest_rng);
        ++counts[shared->OutputBucketOf(report)];
        ++reports;
      }
      const EmResult res = recon.UpdateFromTotals(counts, reports).ValueOrDie();
      EXPECT_TRUE(hist::IsDistribution(res.estimate, 1e-9))
          << "mode " << static_cast<int>(mode) << " tick " << tick;
      for (double v : res.estimate) ASSERT_TRUE(std::isfinite(v));
      last_estimate = res.estimate;
    }
    // After four fully poisoned ticks the target bucket dominates.
    EXPECT_GT(last_estimate[atk.target], 0.10)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(RobustnessTest, EstimatorsRejectNonFiniteInputs) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();

  SwEstimatorOptions options;
  options.epsilon = 1.0;
  options.d = 16;
  const SwEstimator est = SwEstimator::Make(options).ValueOrDie();
  Rng rng(13);
  EXPECT_FALSE(est.EstimateDistribution({0.5, kNan}, rng).ok());
  EXPECT_FALSE(est.EstimateDistribution({kInf, 0.5}, rng).ok());
  EXPECT_FALSE(est.EstimateDistribution({}, rng).ok());

  EXPECT_FALSE(EstimateMean({0.5, kNan}, MeanMechanism::kPiecewiseMechanism,
                            1.0, rng)
                   .ok());
  EXPECT_FALSE(EstimateMean({kInf}, MeanMechanism::kStochasticRounding, 1.0,
                            rng)
                   .ok());
  EXPECT_FALSE(EstimateMoments({0.5, kNan, 0.2},
                               MeanMechanism::kPiecewiseMechanism, 1.0, rng)
                   .ok());
  EXPECT_FALSE(EstimateMoments({-kInf, 0.2},
                               MeanMechanism::kStochasticRounding, 1.0, rng)
                   .ok());

  const HierarchyTree tree = HierarchyTree::Make(16, 4).ValueOrDie();
  std::vector<double> nodes(tree.NumNodes(), 0.1);
  nodes[3] = kNan;
  EXPECT_FALSE(HhAdmm(tree, nodes).ok());
  nodes[3] = kInf;
  EXPECT_FALSE(HhAdmm(tree, nodes).ok());
}

TEST(RobustnessTest, DiscretePipelineWithCoarseDomain) {
  // d = 4 with default bandwidth: floor(b * 4) can be 1 or 0 -> both fine.
  for (double eps : {0.5, 3.0}) {
    SwEstimatorOptions options;
    options.epsilon = eps;
    options.d = 4;
    options.pipeline =
        SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
    const SwEstimator est = SwEstimator::Make(options).ValueOrDie();
    Rng rng(9);
    std::vector<double> values;
    for (int i = 0; i < 4000; ++i) values.push_back(rng.Uniform());
    const std::vector<double> dist =
        est.EstimateDistribution(values, rng).ValueOrDie();
    EXPECT_TRUE(hist::IsDistribution(dist, 1e-9)) << "eps=" << eps;
  }
}

}  // namespace
}  // namespace numdist
