// The paper's method suite (Table 2) as spec names: every kTable2Suite
// name builds, through wire::ParseMethodSpec + wire::MakeProtocolForSpec,
// the protocol the figures label it by, with its Table-2 capability flag,
// and each family refuses the granularities it cannot reconstruct at.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/histogram.h"
#include "data/datasets.h"
#include "eval/runner.h"
#include "wire/wire.h"

namespace numdist {
namespace {

std::vector<double> TestValues(size_t n) {
  Rng rng(1234);
  return GenerateDataset(DatasetId::kBeta, n, rng);
}

Result<ProtocolPtr> MakeMethod(const std::string& name, double epsilon,
                               size_t d) {
  NUMDIST_ASSIGN_OR_RETURN(const wire::MethodSpec spec,
                           wire::ParseMethodSpec(name, epsilon, d));
  return wire::MakeProtocolForSpec(spec);
}

std::vector<ProtocolPtr> MakeSuite(double epsilon, size_t d) {
  std::vector<ProtocolPtr> suite;
  for (const char* name : kTable2Suite) {
    suite.push_back(MakeMethod(name, epsilon, d).ValueOrDie());
  }
  return suite;
}

TEST(MethodTest, StandardSuiteHasAllPaperMethods) {
  const auto suite = MakeSuite(1.0, 64);
  ASSERT_EQ(suite.size(), 8u);
  EXPECT_EQ(suite[0]->name(), "SW-EMS");
  EXPECT_EQ(suite[1]->name(), "SW-EM");
  EXPECT_EQ(suite[2]->name(), "HH-ADMM");
  EXPECT_EQ(suite[3]->name(), "CFO-bin-16");
  EXPECT_EQ(suite[4]->name(), "CFO-bin-32");
  EXPECT_EQ(suite[5]->name(), "CFO-bin-64");
  EXPECT_EQ(suite[6]->name(), "HH");
  EXPECT_EQ(suite[7]->name(), "HaarHRR");
}

TEST(MethodTest, DistributionAvailabilityMatchesTable2) {
  const auto suite = MakeSuite(1.0, 64);
  EXPECT_TRUE(suite[0]->yields_distribution());   // SW-EMS
  EXPECT_TRUE(suite[1]->yields_distribution());   // SW-EM
  EXPECT_TRUE(suite[2]->yields_distribution());   // HH-ADMM
  EXPECT_TRUE(suite[3]->yields_distribution());   // CFO binning
  EXPECT_FALSE(suite[6]->yields_distribution());  // HH: range queries only
  EXPECT_FALSE(suite[7]->yields_distribution());  // HaarHRR
}

TEST(MethodTest, EveryMethodRunsAndAnswersRangeQueries) {
  const auto values = TestValues(8000);
  const size_t d = 64;
  Rng rng(5);
  for (const ProtocolPtr& method : MakeSuite(1.0, d)) {
    Rng trial_rng = rng.Fork();
    const MethodOutput out =
        RunProtocol(*method, values, trial_rng).ValueOrDie();
    ASSERT_TRUE(out.range_query) << method->name();
    const double full = out.range_query(0.0, 1.0);
    EXPECT_NEAR(full, 1.0, 0.3) << method->name();
    if (method->yields_distribution()) {
      EXPECT_EQ(out.distribution.size(), d) << method->name();
      EXPECT_TRUE(hist::IsDistribution(out.distribution, 1e-6))
          << method->name();
    } else {
      EXPECT_TRUE(out.distribution.empty()) << method->name();
    }
  }
}

TEST(MethodTest, CfoBinningRequiresDivisibility) {
  EXPECT_FALSE(MakeMethod("cfo-48", 1.0, 64).ok());
}

TEST(MethodTest, CfoBinningExpandsUniformlyWithinBins) {
  const ProtocolPtr method = MakeMethod("cfo-16", 2.0, 64).ValueOrDie();
  Rng rng(7);
  const MethodOutput out =
      RunProtocol(*method, TestValues(20000), rng).ValueOrDie();
  // Buckets within one chunk of 4 must be equal.
  for (size_t c = 0; c < 16; ++c) {
    for (size_t j = 1; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(out.distribution[c * 4], out.distribution[c * 4 + j]);
    }
  }
}

TEST(MethodTest, HaarHrrRequiresPowerOfTwoGranularity) {
  EXPECT_FALSE(MakeMethod("haar-hrr", 1.0, 48).ok());
}

TEST(MethodTest, HhRequiresPowerOfBetaGranularity) {
  EXPECT_FALSE(MakeMethod("hh", 1.0, 48).ok());
  const ProtocolPtr method = MakeMethod("hh", 1.0, 64).ValueOrDie();
  Rng rng(9);
  EXPECT_TRUE(RunProtocol(*method, TestValues(100), rng).ok());
}

TEST(MethodTest, MethodsAreDeterministicGivenSeed) {
  const auto values = TestValues(4000);
  for (const ProtocolPtr& method : MakeSuite(1.0, 64)) {
    Rng rng1(42);
    Rng rng2(42);
    const MethodOutput a = RunProtocol(*method, values, rng1).ValueOrDie();
    const MethodOutput b = RunProtocol(*method, values, rng2).ValueOrDie();
    EXPECT_EQ(a.distribution, b.distribution) << method->name();
    EXPECT_DOUBLE_EQ(a.range_query(0.2, 0.3), b.range_query(0.2, 0.3))
        << method->name();
  }
}

}  // namespace
}  // namespace numdist
