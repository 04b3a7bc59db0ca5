// Statistical conformance tier (ctest label: statistical) for the
// reconstruction estimators: EM, EMS, SQUAREM-accelerated EM, and the
// smoothing-only ablation. Tolerances are computed from (n, d, epsilon,
// alpha) by the stats library's bounds — DKW acceptance radii in report
// space, likelihood-gap agreement radii between EM fixed points, and the
// documented channel-inversion envelope for input-space error — instead of
// per-test magic numbers. Derivations: docs/STATISTICAL_TESTING.md §3-§4.
//
// The discrete ("bucketize before randomize") pipeline is used throughout
// so the aggregated report histogram is exactly multinomial with cell
// probabilities M h (h = the exact value histogram), making the DKW radius
// rigorous with no within-bucket discretization slack.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "core/em.h"
#include "core/ems.h"
#include "core/sw_estimator.h"
#include "data/datasets.h"
#include "metrics/distance.h"
#include "stats/conformance.h"

namespace numdist {
namespace {

using stats::DkwEpsilon;
using stats::EmAgreementRadius;
using stats::kTestAlpha;
using stats::PerAssertionAlpha;
using stats::SampleBudget;

// Input-space acceptance envelope for W1(estimate, truth): the SW channel
// blurs the input with a width-2b box kernel scaled by (p - q) on top of a
// uniform q background, so report-space CDF deviations of size delta can
// hide input-space W1 deviations amplified by roughly the inverse in-window
// mass kappa = (2 b e^eps + 1) / (2 b (e^eps - 1)). The safety factor
// absorbs the non-invertible remainder (docs/STATISTICAL_TESTING.md §3);
// EM's own stopping slack enters through `delta`.
double InversionEnvelope(double epsilon, double b, double delta, size_t d,
                         double safety = 4.0) {
  const double kappa =
      (2.0 * b * std::exp(epsilon) + 1.0) / (2.0 * b * std::expm1(epsilon));
  return safety * kappa * delta + 1.0 / static_cast<double>(d);
}

struct Workload {
  SwEstimatorOptions options;
  std::vector<uint64_t> counts;   // aggregated report histogram
  std::vector<double> truth;      // exact value histogram, d buckets
  uint64_t n = 0;
};

// One shared report stream per (seed, epsilon): every estimator variant
// reconstructs from the same aggregated counts, so variant comparisons are
// exact and not confounded by fresh randomness.
Workload MakeWorkload(uint64_t seed, double epsilon, size_t d, uint64_t n) {
  Workload w;
  w.options.epsilon = epsilon;
  w.options.d = d;
  w.options.pipeline =
      SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
  const SwEstimator estimator = SwEstimator::Make(w.options).ValueOrDie();
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(SampleDataset(DatasetId::kBeta, rng));
  }
  w.truth = hist::FromSamples(values, d);
  std::vector<double> reports;
  reports.reserve(n);
  for (double v : values) reports.push_back(estimator.PerturbOne(v, rng));
  w.counts = estimator.Aggregate(reports);
  w.n = n;
  return w;
}

EmResult Reconstruct(const Workload& w, SwEstimatorOptions::Post post,
                     bool accelerate) {
  SwEstimatorOptions options = w.options;
  options.post = post;
  options.accelerate_em = accelerate;
  const SwEstimator estimator = SwEstimator::Make(options).ValueOrDie();
  return estimator.Reconstruct(w.counts).ValueOrDie();
}

// The forward image M x of an input distribution under the estimator's
// observation model.
std::vector<double> Forward(const SwEstimator& estimator,
                            const std::vector<double>& x) {
  std::vector<double> y;
  estimator.model().Apply(x, &y);
  return y;
}

// KS distance between the forward images M x and M y of two input
// distributions.
double ForwardKs(const Workload& w, const std::vector<double>& x,
                 const std::vector<double>& y) {
  const SwEstimator estimator = SwEstimator::Make(w.options).ValueOrDie();
  return KsDistance(Forward(estimator, x), Forward(estimator, y));
}

TEST(EstimatorConformanceTest, ReportHistogramWithinDkwOfForwardTruth) {
  // Channel conformance through the full pipeline: the aggregated report
  // histogram is multinomial(n, M h), so its CDF stays within the DKW
  // radius of cumsum(M h) with probability 1 - alpha.
  const double alpha = PerAssertionAlpha(kTestAlpha, 1);
  const Workload w = MakeWorkload(0xE5, 1.0, 32, SampleBudget(150000));
  const SwEstimator estimator = SwEstimator::Make(w.options).ValueOrDie();
  const std::vector<double> forward_truth = Forward(estimator, w.truth);
  EXPECT_LE(stats::HistogramKs(w.counts, forward_truth),
            DkwEpsilon(w.n, alpha));
}

TEST(EstimatorConformanceTest, EstimatorsConvergeWithinDerivedEnvelopes) {
  // All four estimator variants land within the derived input-space
  // envelope of the exact value histogram, and the likelihood-based ones
  // forward-fit the observed reports no worse than the truth does (up to a
  // DKW radius; EMS trades a little forward fit for smoothness, covered by
  // the envelope's 1/d term scaled through the channel).
  const double epsilon = 1.0;
  const size_t d = 32;
  const double alpha = PerAssertionAlpha(kTestAlpha, 8);
  const Workload w = MakeWorkload(0xE51, epsilon, d, SampleBudget(150000));
  const SwEstimator estimator = SwEstimator::Make(w.options).ValueOrDie();
  const double b = estimator.b();
  const double dkw = DkwEpsilon(w.n, alpha);
  const double envelope = InversionEnvelope(epsilon, b, 2.0 * dkw, d);

  const EmResult em = Reconstruct(w, SwEstimatorOptions::Post::kEm, false);
  const EmResult ems = Reconstruct(w, SwEstimatorOptions::Post::kEms, false);
  const EmResult accel = Reconstruct(w, SwEstimatorOptions::Post::kEm, true);
  const std::vector<double> smooth_only =
      SmoothingOnlyEstimate(w.counts, d);

  EXPECT_TRUE(em.converged);
  EXPECT_TRUE(ems.converged);
  EXPECT_TRUE(accel.converged);

  EXPECT_LE(WassersteinDistance(em.estimate, w.truth), envelope);
  EXPECT_LE(WassersteinDistance(ems.estimate, w.truth), envelope);
  EXPECT_LE(WassersteinDistance(accel.estimate, w.truth), envelope);
  // Smoothing-only skips the channel inversion entirely; it only de-noises,
  // so it is held to the (much looser) envelope with the no-inversion
  // residual: the raw q-floor bias survives at magnitude <= 2 b q ~ the
  // out-of-window mass (docs §3.3).
  const SquareWave sw = SquareWave::Make(epsilon).ValueOrDie();
  EXPECT_LE(WassersteinDistance(smooth_only, w.truth),
            envelope + 2.0 * b * sw.q());

  // Forward fit: the MLE fits the observed report histogram at least as
  // well as the truth does, modulo one DKW radius.
  std::vector<double> empirical(w.counts.size());
  for (size_t j = 0; j < empirical.size(); ++j) {
    empirical[j] =
        static_cast<double>(w.counts[j]) / static_cast<double>(w.n);
  }
  const double truth_fit =
      stats::HistogramKs(w.counts, Forward(estimator, w.truth));
  EXPECT_LE(KsDistance(Forward(estimator, em.estimate), empirical),
            truth_fit + dkw);
  EXPECT_LE(KsDistance(Forward(estimator, accel.estimate), empirical),
            truth_fit + dkw);
}

TEST(EstimatorConformanceTest, AcceleratedEmAgreesWithPlainEmProperty) {
  // Satellite property: SQUAREM-accelerated EM and plain EM converge to the
  // same fixed point across >= 5 seeds and eps in {0.5, 1, 4}. Agreement is
  // asserted in report space within the likelihood-gap radius (both stop
  // within tol of the common maximum) and in input space within the
  // channel-inversion envelope of that radius.
  const size_t d = 32;
  const uint64_t n = SampleBudget(30000, 5000);
  const std::vector<uint64_t> seeds = {0xA1, 0xA2, 0xA3, 0xA4, 0xA5};
  const std::vector<double> epsilons = {0.5, 1.0, 4.0};
  for (double epsilon : epsilons) {
    for (uint64_t seed : seeds) {
      const Workload w = MakeWorkload(seed, epsilon, d, n);
      const EmResult plain =
          Reconstruct(w, SwEstimatorOptions::Post::kEm, false);
      const EmResult accel =
          Reconstruct(w, SwEstimatorOptions::Post::kEm, true);
      ASSERT_TRUE(plain.converged) << "eps=" << epsilon << " seed=" << seed;
      ASSERT_TRUE(accel.converged) << "eps=" << epsilon << " seed=" << seed;

      // Both stopped within tol = 1e-3 e^eps (the paper's EM threshold) of
      // the shared log-likelihood maximum.
      const double tol = 1e-3 * std::exp(epsilon);
      const double radius = EmAgreementRadius(w.n, tol, tol);
      EXPECT_LE(ForwardKs(w, plain.estimate, accel.estimate), radius)
          << "eps=" << epsilon << " seed=" << seed;

      const SwEstimator estimator = SwEstimator::Make(w.options).ValueOrDie();
      EXPECT_LE(WassersteinDistance(plain.estimate, accel.estimate),
                InversionEnvelope(epsilon, estimator.b(), radius, d))
          << "eps=" << epsilon << " seed=" << seed;
    }
  }
}

TEST(EstimatorConformanceTest, ConvergenceImprovesWithSampleSize) {
  // Monotone-in-n sanity on the derived envelopes: quadrupling n must keep
  // the (shrinking) envelope satisfied — i.e. the estimator actually
  // converges, rather than saturating above the DKW floor.
  const double epsilon = 1.0;
  const size_t d = 32;
  const double alpha = PerAssertionAlpha(kTestAlpha, 2);
  for (uint64_t n : {SampleBudget(40000, 4000), SampleBudget(160000, 16000)}) {
    const Workload w = MakeWorkload(0xC0 + n, epsilon, d, n);
    const SwEstimator estimator = SwEstimator::Make(w.options).ValueOrDie();
    const EmResult ems = Reconstruct(w, SwEstimatorOptions::Post::kEms, false);
    const double envelope = InversionEnvelope(
        epsilon, estimator.b(), 2.0 * DkwEpsilon(w.n, alpha), d);
    EXPECT_LE(WassersteinDistance(ems.estimate, w.truth), envelope)
        << "n=" << n;
  }
}

}  // namespace
}  // namespace numdist
