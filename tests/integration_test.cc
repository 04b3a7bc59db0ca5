// Cross-module integration tests: full client -> server pipelines and the
// paper's headline qualitative claims at small scale (seeded, so stable).
#include <gtest/gtest.h>

#include <cmath>

#include "common/histogram.h"
#include "data/datasets.h"
#include "eval/runner.h"
#include "mean/moments.h"
#include "metrics/distance.h"
#include "metrics/queries.h"
#include "wire/wire.h"

namespace numdist {
namespace {

struct Experiment {
  std::vector<double> values;
  GroundTruth truth;
};

Experiment MakeExperiment(DatasetId id, size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Experiment exp;
  exp.values = GenerateDataset(id, n, rng);
  exp.truth = ComputeGroundTruth(exp.values, d);
  return exp;
}

ProtocolPtr MakeMethod(const char* name, double epsilon, size_t d) {
  return wire::MakeProtocolForSpec(
             wire::ParseMethodSpec(name, epsilon, d).ValueOrDie())
      .ValueOrDie();
}

double MeanW1(const char* method, const Experiment& exp, double epsilon,
              size_t d, size_t trials = 3) {
  RunnerOptions opts;
  opts.trials = trials;
  opts.range_queries = 20;
  return RunTrials(*MakeMethod(method, epsilon, d), exp.values, exp.truth,
                   opts)
      .ValueOrDie()
      .mean.wasserstein;
}

TEST(IntegrationTest, SwEmsBeatsCfoBinningOnBeta) {
  // Figure 2(a): SW-EMS dominates CFO binning on the smooth Beta dataset.
  const Experiment exp = MakeExperiment(DatasetId::kBeta, 30000, 256, 1);
  const double sw = MeanW1("sw-ems", exp, 1.0, 256);
  const double cfo16 = MeanW1("cfo-16", exp, 1.0, 256);
  const double cfo64 = MeanW1("cfo-64", exp, 1.0, 256);
  EXPECT_LT(sw, cfo16);
  EXPECT_LT(sw, cfo64);
}

TEST(IntegrationTest, SwEmsBeatsHhAdmmOnSmoothData) {
  // Figure 2(a)/(b): on smooth distributions SW-EMS leads HH-ADMM.
  const Experiment exp = MakeExperiment(DatasetId::kBeta, 30000, 256, 2);
  const double sw = MeanW1("sw-ems", exp, 1.0, 256);
  const double admm = MeanW1("hh-admm", exp, 1.0, 256);
  EXPECT_LT(sw, admm);
}

TEST(IntegrationTest, ErrorDecreasesWithEpsilon) {
  // Every figure: W1 shrinks as the privacy budget grows.
  const Experiment exp = MakeExperiment(DatasetId::kTaxi, 30000, 256, 3);
  const double w1_low = MeanW1("sw-ems", exp, 0.5, 256);
  const double w1_high = MeanW1("sw-ems", exp, 2.5, 256);
  EXPECT_LT(w1_high, w1_low);
}

TEST(IntegrationTest, HhAdmmBeatsPlainHhOnRangeQueries) {
  // §4.3: exploiting non-negativity and the known total improves HH.
  const Experiment exp = MakeExperiment(DatasetId::kRetirement, 30000, 256, 4);
  RunnerOptions opts;
  opts.trials = 3;
  opts.range_queries = 60;
  const auto hh =
      RunTrials(*MakeMethod("hh", 0.5, 256), exp.values, exp.truth, opts)
          .ValueOrDie();
  const auto admm =
      RunTrials(*MakeMethod("hh-admm", 0.5, 256), exp.values, exp.truth, opts)
          .ValueOrDie();
  EXPECT_LT(admm.mean.range_large, hh.mean.range_large);
}

TEST(IntegrationTest, SwEmsMeanCompetitiveWithDirectMeanProtocols) {
  // Figure 4: SW-EMS (which reconstructs the whole distribution) estimates
  // the mean within a small factor of the direct SR/PM protocols.
  const Experiment exp = MakeExperiment(DatasetId::kBeta, 40000, 256, 5);
  RunnerOptions opts;
  opts.trials = 3;
  opts.range_queries = 10;
  const auto sw =
      RunTrials(*MakeMethod("sw-ems", 1.0, 256), exp.values, exp.truth, opts)
          .ValueOrDie();
  // Direct protocols' error at the same budget, averaged over seeds.
  double pm_err = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(100 + seed);
    const double est =
        EstimateMean(exp.values, MeanMechanism::kPiecewiseMechanism, 1.0, rng)
            .ValueOrDie();
    pm_err += std::fabs(est - exp.truth.mean);
  }
  pm_err /= 3.0;
  EXPECT_LT(sw.mean.mean_err, 10.0 * pm_err + 0.01);
}

TEST(IntegrationTest, EmsMoreStableThanEmAcrossDatasets) {
  // §5.5: EMS is stable without tuning; on smooth data it should not lose
  // badly to EM anywhere (allow slack: it can be slightly worse
  // pointwise but not catastrophically).
  for (DatasetId id : {DatasetId::kBeta, DatasetId::kRetirement}) {
    const Experiment exp = MakeExperiment(id, 25000, 256, 6);
    const double ems = MeanW1("sw-ems", exp, 1.0, 256, 2);
    const double em = MeanW1("sw-em", exp, 1.0, 256, 2);
    EXPECT_LT(ems, 3.0 * em + 1e-3);
  }
}

TEST(IntegrationTest, RangeQueriesConsistentAcrossMethods) {
  // Full-domain range query must be ~1 for every method (mass conservation).
  const Experiment exp = MakeExperiment(DatasetId::kTaxi, 20000, 64, 7);
  for (const char* name : kTable2Suite) {
    Rng rng(8);
    const MethodOutput out =
        RunProtocol(*MakeMethod(name, 2.0, 64), exp.values, rng).ValueOrDie();
    EXPECT_NEAR(out.range_query(0.0, 1.0), 1.0, 0.15) << name;
  }
}

TEST(IntegrationTest, QuantilesTrackTruthAtHighEpsilon) {
  const Experiment exp = MakeExperiment(DatasetId::kBeta, 50000, 256, 9);
  Rng rng(10);
  const MethodOutput out =
      RunProtocol(*MakeMethod("sw-ems", 4.0, 256), exp.values, rng)
          .ValueOrDie();
  EXPECT_LT(QuantileMae(exp.truth.histogram, out.distribution), 0.02);
}

TEST(IntegrationTest, SpikyIncomeFavorsHhAdmmOnKs) {
  // Figure 2(g): on the spiky income dataset HH-ADMM's KS distance is
  // competitive with (the smoothing-biased) SW-EMS at large epsilon.
  const Experiment exp = MakeExperiment(DatasetId::kIncome, 60000, 256, 11);
  RunnerOptions opts;
  opts.trials = 3;
  opts.range_queries = 10;
  const auto sw =
      RunTrials(*MakeMethod("sw-ems", 2.5, 256), exp.values, exp.truth, opts)
          .ValueOrDie();
  const auto admm =
      RunTrials(*MakeMethod("hh-admm", 2.5, 256), exp.values, exp.truth, opts)
          .ValueOrDie();
  // ADMM preserves spikes; allow generous slack while still asserting the
  // qualitative closeness the paper reports.
  EXPECT_LT(admm.mean.ks, 3.0 * sw.mean.ks);
}

}  // namespace
}  // namespace numdist
