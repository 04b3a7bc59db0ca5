// Statistical conformance tier (ctest label: statistical) for the
// reconstruction estimators: EM, EMS, and the smoothing-only ablation.
// Tolerances are computed from (n, d, epsilon, alpha) by the stats
// library's bounds — DKW acceptance radii in report space and the
// documented channel-inversion envelope for input-space error — instead
// of per-test magic numbers. Derivations: docs/STATISTICAL_TESTING.md §3.
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

EmResult Reconstruct(const Workload& w, SwEstimatorOptions::Post post) {
  SwEstimatorOptions options = w.options;
  options.post = post;
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
  // All three estimator variants land within the derived input-space
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

  const EmResult em = Reconstruct(w, SwEstimatorOptions::Post::kEm);
  const EmResult ems = Reconstruct(w, SwEstimatorOptions::Post::kEms);
  const std::vector<double> smooth_only =
      SmoothingOnlyEstimate(w.counts, d);

  EXPECT_TRUE(em.converged);
  EXPECT_TRUE(ems.converged);

  EXPECT_LE(WassersteinDistance(em.estimate, w.truth), envelope);
  EXPECT_LE(WassersteinDistance(ems.estimate, w.truth), envelope);
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
    const EmResult ems = Reconstruct(w, SwEstimatorOptions::Post::kEms);
    const double envelope = InversionEnvelope(
        epsilon, estimator.b(), 2.0 * DkwEpsilon(w.n, alpha), d);
    EXPECT_LE(WassersteinDistance(ems.estimate, w.truth), envelope)
        << "n=" << n;
  }
}

}  // namespace
}  // namespace numdist
