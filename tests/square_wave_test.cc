#include "core/square_wave.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/bandwidth.h"
#include "core/transition.h"

namespace numdist {
namespace {

TEST(SquareWaveTest, MakeValidation) {
  EXPECT_FALSE(SquareWave::Make(0.0).ok());
  EXPECT_FALSE(SquareWave::Make(-1.0).ok());
  EXPECT_FALSE(SquareWave::Make(1.0, 1.5).ok());
  EXPECT_FALSE(SquareWave::Make(1.0, 0.0).ok());
  EXPECT_TRUE(SquareWave::Make(1.0).ok());
  EXPECT_TRUE(SquareWave::Make(1.0, 0.3).ok());
}

TEST(SquareWaveTest, DefaultBandwidthIsOptimal) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  EXPECT_DOUBLE_EQ(sw.b(), OptimalBandwidth(1.0));
}

TEST(SquareWaveTest, DensitiesMatchFormula) {
  const double eps = 1.5;
  const double b = 0.2;
  const SquareWave sw = SquareWave::Make(eps, b).ValueOrDie();
  const double e = std::exp(eps);
  EXPECT_NEAR(sw.p(), e / (2 * b * e + 1), 1e-12);
  EXPECT_NEAR(sw.q(), 1.0 / (2 * b * e + 1), 1e-12);
  EXPECT_NEAR(sw.p() / sw.q(), e, 1e-9);
}

TEST(SquareWaveTest, DensityIntegratesToOne) {
  const SquareWave sw = SquareWave::Make(1.0, 0.25).ValueOrDie();
  for (double v : {0.0, 0.3, 0.5, 1.0}) {
    // total mass = p * 2b + q * (1 + 2b - 2b) = 1
    const double total = sw.p() * 2 * sw.b() + sw.q() * 1.0;
    EXPECT_NEAR(total, 1.0, 1e-12) << "v=" << v;
  }
}

TEST(SquareWaveTest, DensityShape) {
  const SquareWave sw = SquareWave::Make(1.0, 0.25).ValueOrDie();
  const double v = 0.4;
  EXPECT_DOUBLE_EQ(sw.Density(v, v), sw.p());
  EXPECT_DOUBLE_EQ(sw.Density(v, v + 0.24), sw.p());
  EXPECT_DOUBLE_EQ(sw.Density(v, v + 0.26), sw.q());
  EXPECT_DOUBLE_EQ(sw.Density(v, -0.2), sw.q());
  EXPECT_DOUBLE_EQ(sw.Density(v, -0.3), 0.0);   // outside output domain
  EXPECT_DOUBLE_EQ(sw.Density(v, 1.3), 0.0);
}

TEST(SquareWaveTest, SatisfiesLdpDensityRatio) {
  // For every output, the density ratio across any two inputs is <= e^eps.
  const double eps = 1.0;
  const SquareWave sw = SquareWave::Make(eps, 0.3).ValueOrDie();
  const double bound = std::exp(eps) + 1e-9;
  for (double v1 = 0.0; v1 <= 1.0; v1 += 0.1) {
    for (double v2 = 0.0; v2 <= 1.0; v2 += 0.1) {
      for (double out = -0.3; out <= 1.3; out += 0.05) {
        const double d1 = sw.Density(v1, out);
        const double d2 = sw.Density(v2, out);
        if (d2 > 0.0) {
          EXPECT_LE(d1 / d2, bound)
              << "v1=" << v1 << " v2=" << v2 << " out=" << out;
        } else {
          EXPECT_EQ(d1, 0.0);  // support must be identical
        }
      }
    }
  }
}

TEST(SquareWaveTest, PerturbStaysInOutputDomain) {
  const SquareWave sw = SquareWave::Make(1.0, 0.25).ValueOrDie();
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const double v = static_cast<double>(i % 100) / 99.0;
    const double out = sw.Perturb(v, rng);
    EXPECT_GE(out, -sw.b());
    EXPECT_LE(out, 1.0 + sw.b());
  }
}

TEST(SquareWaveTest, PerturbHitsWaveWithExpectedMass) {
  const SquareWave sw = SquareWave::Make(1.0, 0.25).ValueOrDie();
  Rng rng(12);
  const double v = 0.5;
  int in_wave = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (std::fabs(sw.Perturb(v, rng) - v) <= sw.b()) ++in_wave;
  }
  EXPECT_NEAR(static_cast<double>(in_wave) / n, 2 * sw.b() * sw.p(), 0.005);
}

TEST(SquareWaveTest, PerturbEmpiricalHistogramMatchesDensity) {
  const SquareWave sw = SquareWave::Make(1.0, 0.25).ValueOrDie();
  Rng rng(13);
  const double v = 0.3;
  const int n = 300000;
  const int bins = 30;
  const double lo = -sw.b();
  const double span = 1.0 + 2 * sw.b();
  std::vector<int> counts(bins, 0);
  for (int i = 0; i < n; ++i) {
    const double out = sw.Perturb(v, rng);
    int bin = static_cast<int>((out - lo) / span * bins);
    if (bin >= bins) bin = bins - 1;
    ++counts[bin];
  }
  for (int bin = 0; bin < bins; ++bin) {
    const double a = lo + span * bin / bins;
    const double c = a + span / bins;
    // Expected mass: integrate the piecewise-constant density over the bin.
    const double inside =
        std::max(0.0, std::min(c, v + sw.b()) - std::max(a, v - sw.b()));
    const double expected = sw.p() * inside + sw.q() * ((c - a) - inside);
    EXPECT_NEAR(static_cast<double>(counts[bin]) / n, expected, 0.004)
        << "bin=" << bin;
  }
}

TEST(SquareWaveTest, TransitionColumnsSumToOne) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const Matrix m = sw.TransitionMatrix(64, 64);
  EXPECT_TRUE(ValidateTransitionMatrix(m).ok());
}

TEST(SquareWaveTest, TransitionRectangularShapes) {
  const SquareWave sw = SquareWave::Make(0.5).ValueOrDie();
  const Matrix m = sw.TransitionMatrix(32, 48);
  EXPECT_EQ(m.rows(), 48u);
  EXPECT_EQ(m.cols(), 32u);
  EXPECT_TRUE(ValidateTransitionMatrix(m).ok());
}

TEST(SquareWaveTest, TransitionMatchesEmpiricalSampling) {
  const SquareWave sw = SquareWave::Make(1.0, 0.25).ValueOrDie();
  const size_t d = 8;
  const Matrix m = sw.TransitionMatrix(d, d);
  Rng rng(14);
  const size_t i = 3;  // input bucket [3/8, 4/8)
  const int n = 400000;
  std::vector<double> reports;
  reports.reserve(n);
  for (int k = 0; k < n; ++k) {
    const double v = (static_cast<double>(i) + rng.Uniform()) / d;
    reports.push_back(sw.Perturb(v, rng));
  }
  const std::vector<uint64_t> counts = sw.BucketizeReports(reports, d);
  for (size_t j = 0; j < d; ++j) {
    EXPECT_NEAR(static_cast<double>(counts[j]) / n, m(j, i), 0.004)
        << "j=" << j;
  }
}

TEST(SquareWaveTest, BucketizeReportsClampsEdges) {
  const SquareWave sw = SquareWave::Make(1.0, 0.25).ValueOrDie();
  const std::vector<double> reports = {-0.25, 1.25, 0.5};
  const std::vector<uint64_t> counts = sw.BucketizeReports(reports, 4);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(counts[1] + counts[2], 1u);
}

// ------------------------------------------------------- Discrete SW --

TEST(DiscreteSquareWaveTest, MakeValidation) {
  EXPECT_FALSE(DiscreteSquareWave::Make(0.0, 16).ok());
  EXPECT_FALSE(DiscreteSquareWave::Make(1.0, 1).ok());
  EXPECT_FALSE(DiscreteSquareWave::Make(1.0, 16, 16).ok());
  EXPECT_TRUE(DiscreteSquareWave::Make(1.0, 16).ok());
  EXPECT_TRUE(DiscreteSquareWave::Make(1.0, 16, 0).ok());  // degenerates to GRR
}

TEST(DiscreteSquareWaveTest, ProbabilitiesMatchFormula) {
  const double eps = 1.0;
  const size_t d = 32;
  const size_t b = 4;
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(eps, d, b).ValueOrDie();
  const double e = std::exp(eps);
  const double denom = (2.0 * b + 1.0) * e + d - 1.0;
  EXPECT_NEAR(dsw.p(), e / denom, 1e-12);
  EXPECT_NEAR(dsw.q(), 1.0 / denom, 1e-12);
  // Total probability over the output domain.
  EXPECT_NEAR((2 * b + 1) * dsw.p() + (d - 1) * dsw.q(), 1.0, 1e-12);
}

TEST(DiscreteSquareWaveTest, DefaultBandwidthIsScaledContinuous) {
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(1.0, 1024).ValueOrDie();
  EXPECT_EQ(dsw.b(), DiscreteOptimalBandwidth(1.0, 1024));
}

TEST(DiscreteSquareWaveTest, PerturbStaysInOutputDomain) {
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(1.0, 16, 3).ValueOrDie();
  Rng rng(15);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(dsw.Perturb(i % 16, rng), dsw.output_domain());
  }
}

TEST(DiscreteSquareWaveTest, PerturbMatchesProbability) {
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(1.0, 8, 2).ValueOrDie();
  Rng rng(16);
  const uint32_t v = 3;
  std::vector<int> counts(dsw.output_domain(), 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[dsw.Perturb(v, rng)];
  for (uint32_t out = 0; out < dsw.output_domain(); ++out) {
    EXPECT_NEAR(static_cast<double>(counts[out]) / n, dsw.Probability(v, out),
                0.004)
        << "out=" << out;
  }
}

TEST(DiscreteSquareWaveTest, TransitionColumnsSumToOne) {
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(1.0, 64).ValueOrDie();
  EXPECT_TRUE(ValidateTransitionMatrix(dsw.TransitionMatrix()).ok());
}

TEST(DiscreteSquareWaveTest, TransitionBackgroundIsQ) {
  // Every column is the background q except for exactly 2b + 1 entries.
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(1.0, 32).ValueOrDie();
  const Matrix m = dsw.TransitionMatrix();
  size_t off_background = 0;
  for (size_t i = 0; i < m.cols(); ++i) {
    for (size_t j = 0; j < m.rows(); ++j) {
      if (std::fabs(m(j, i) - dsw.q()) > 1e-13) ++off_background;
    }
  }
  EXPECT_EQ(off_background, (2 * dsw.b() + 1) * 32);
}

TEST(DiscreteSquareWaveTest, LdpRatioBound) {
  const double eps = 1.2;
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(eps, 16, 3).ValueOrDie();
  const double bound = std::exp(eps) + 1e-9;
  for (uint32_t v1 = 0; v1 < 16; ++v1) {
    for (uint32_t v2 = 0; v2 < 16; ++v2) {
      for (uint32_t out = 0; out < dsw.output_domain(); ++out) {
        EXPECT_LE(dsw.Probability(v1, out) / dsw.Probability(v2, out), bound);
      }
    }
  }
}

TEST(DiscreteSquareWaveTest, AggregateCountsReports) {
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(1.0, 4, 1).ValueOrDie();
  const std::vector<uint32_t> reports = {0, 1, 1, 5, 5, 5};
  const std::vector<uint64_t> counts = dsw.AggregateReports(reports);
  ASSERT_EQ(counts.size(), dsw.output_domain());
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[5], 3u);
}

// Zero-bandwidth discrete SW must coincide with GRR's distribution.
TEST(DiscreteSquareWaveTest, ZeroBandwidthEqualsGrr) {
  const double eps = 1.0;
  const size_t d = 8;
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(eps, d, 0).ValueOrDie();
  EXPECT_EQ(dsw.output_domain(), d);
  const double e = std::exp(eps);
  EXPECT_NEAR(dsw.p(), e / (e + d - 1), 1e-12);
  EXPECT_NEAR(dsw.q(), 1.0 / (e + d - 1), 1e-12);
}

}  // namespace
}  // namespace numdist
