#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/histogram.h"
#include "metrics/distance.h"

namespace numdist {
namespace {

ScenarioConfig SmallDriftConfig() {
  ScenarioConfig config;
  config.name = "test-drift";
  config.epsilon = 1.0;
  config.d = 16;
  config.shards = 3;
  config.seed = 7;
  ScenarioPhase warmup;
  warmup.name = "warmup";
  warmup.mixture = {{DatasetId::kBeta, 1.0}};
  warmup.reports = 3000;
  warmup.checkpoints = 2;
  ScenarioPhase drift;
  drift.name = "drift";
  drift.mixture = {{DatasetId::kBeta, 1.0}};
  drift.end_mixture = {{DatasetId::kTaxi, 1.0}};
  drift.reports = 4000;
  drift.checkpoints = 2;
  config.phases = {warmup, drift};
  return config;
}

TEST(ScenarioValidateTest, RejectsStructuralErrors) {
  ScenarioConfig config = SmallDriftConfig();
  config.phases.clear();
  EXPECT_FALSE(ValidateScenario(config).ok());

  config = SmallDriftConfig();
  config.phases[0].reports = 0;
  EXPECT_FALSE(ValidateScenario(config).ok());

  config = SmallDriftConfig();
  config.phases[0].checkpoints = config.phases[0].reports + 1;
  EXPECT_FALSE(ValidateScenario(config).ok());

  config = SmallDriftConfig();
  config.phases[0].mixture = {{DatasetId::kBeta, -1.0}};
  EXPECT_FALSE(ValidateScenario(config).ok());

  config = SmallDriftConfig();
  config.phases[1].epsilon = -2.0;
  EXPECT_FALSE(ValidateScenario(config).ok());

  config = SmallDriftConfig();
  config.shards = 0;
  EXPECT_FALSE(ValidateScenario(config).ok());

  // Sanity caps: a typo'd granularity must be an error, not an O(d^2)
  // transition-model allocation measured in tens of gigabytes.
  config = SmallDriftConfig();
  config.d = 60000;
  EXPECT_FALSE(ValidateScenario(config).ok());
  config = SmallDriftConfig();
  config.shards = 100000;
  EXPECT_FALSE(ValidateScenario(config).ok());

  EXPECT_TRUE(ValidateScenario(SmallDriftConfig()).ok());
}

TEST(ScenarioRunTest, CheckpointsTrackPhasesAndVolumes) {
  const ScenarioConfig config = SmallDriftConfig();
  const ScenarioResult result = RunScenario(config).ValueOrDie();
  ASSERT_EQ(result.checkpoints.size(), 4u);
  EXPECT_EQ(result.total_reports, 7000u);
  EXPECT_EQ(result.checkpoints[0].phase, "warmup");
  EXPECT_EQ(result.checkpoints[0].total_reports, 1500u);
  EXPECT_EQ(result.checkpoints[3].phase, "drift");
  EXPECT_EQ(result.checkpoints[3].total_reports, 7000u);
  for (const ScenarioCheckpoint& c : result.checkpoints) {
    EXPECT_TRUE(hist::IsDistribution(c.truth));
    EXPECT_TRUE(hist::IsDistribution(c.estimate, 1e-6));
    EXPECT_TRUE(c.em_converged);
    EXPECT_GE(c.wasserstein, 0.0);
    EXPECT_LT(c.wasserstein, 0.2);
  }
}

TEST(ScenarioRunTest, BitIdenticalAcrossThreadCounts) {
  ScenarioConfig config = SmallDriftConfig();
  config.threads = 1;
  const ScenarioResult one = RunScenario(config).ValueOrDie();
  config.threads = 4;
  const ScenarioResult four = RunScenario(config).ValueOrDie();
  ASSERT_EQ(one.checkpoints.size(), four.checkpoints.size());
  for (size_t i = 0; i < one.checkpoints.size(); ++i) {
    const ScenarioCheckpoint& a = one.checkpoints[i];
    const ScenarioCheckpoint& b = four.checkpoints[i];
    // Exact equality, not tolerance: the scenario contract is bit-identical
    // results for any thread count.
    EXPECT_EQ(a.wasserstein, b.wasserstein);
    EXPECT_EQ(a.ks, b.ks);
    EXPECT_EQ(a.em_iterations, b.em_iterations);
    ASSERT_EQ(a.estimate.size(), b.estimate.size());
    for (size_t j = 0; j < a.estimate.size(); ++j) {
      EXPECT_EQ(a.estimate[j], b.estimate[j]) << "checkpoint " << i;
      EXPECT_EQ(a.truth[j], b.truth[j]) << "checkpoint " << i;
    }
  }
}

TEST(ScenarioRunTest, DriftMovesTheGroundTruth) {
  // With drift from beta to taxi, the cumulative truth after the drift
  // phase must differ from the warmup-only truth.
  const ScenarioResult result = RunScenario(SmallDriftConfig()).ValueOrDie();
  const std::vector<double>& early = result.checkpoints[1].truth;
  const std::vector<double>& late = result.checkpoints[3].truth;
  EXPECT_GT(WassersteinDistance(early, late), 0.01);
}

TEST(ScenarioRunTest, EpsilonScheduleSplitsAggregationGroups) {
  ScenarioConfig config = SmallDriftConfig();
  config.phases[0].epsilon = 4.0;
  config.phases[1].epsilon = 0.5;
  config.phases[1].end_mixture.clear();
  const ScenarioResult result = RunScenario(config).ValueOrDie();
  ASSERT_EQ(result.checkpoints.size(), 4u);
  // Reports under different budgets never share a reconstruction: the
  // second phase's group starts from zero.
  EXPECT_EQ(result.checkpoints[1].group_reports, 3000u);
  EXPECT_EQ(result.checkpoints[2].group_reports, 2000u);
  EXPECT_EQ(result.checkpoints[2].epsilon, 0.5);
  // Scenario-level totals still accumulate.
  EXPECT_EQ(result.checkpoints[3].total_reports, 7000u);
}

TEST(ScenarioRunTest, SameEpsilonPhasesShareOneGroup) {
  ScenarioConfig config = SmallDriftConfig();
  const ScenarioResult result = RunScenario(config).ValueOrDie();
  // Default epsilon everywhere: the drift phase keeps accumulating into the
  // warmup group.
  EXPECT_EQ(result.checkpoints[2].group_reports, 5000u);
  EXPECT_EQ(result.checkpoints[3].group_reports, 7000u);
}

TEST(ScenarioParseTest, ParsesFullFormat) {
  const ScenarioConfig config = ParseScenarioText(R"(
    # demo scenario
    name = parsed
    epsilon = 2.0
    d = 32
    shards = 5
    seed = 99

    [phase]
    name = a
    mixture = beta:0.75, taxi:0.25   # trailing comment
    reports = 1000

    [phase]
    name = b
    mixture = income
    end_mixture = retirement:2
    reports = 2000
    epsilon = 0.5
    checkpoints = 4
  )").ValueOrDie();

  EXPECT_EQ(config.name, "parsed");
  EXPECT_DOUBLE_EQ(config.epsilon, 2.0);
  EXPECT_EQ(config.d, 32u);
  EXPECT_EQ(config.shards, 5u);
  EXPECT_EQ(config.seed, 99u);
  ASSERT_EQ(config.phases.size(), 2u);
  ASSERT_EQ(config.phases[0].mixture.size(), 2u);
  EXPECT_EQ(config.phases[0].mixture[0].dataset, DatasetId::kBeta);
  EXPECT_DOUBLE_EQ(config.phases[0].mixture[0].weight, 0.75);
  EXPECT_DOUBLE_EQ(config.phases[0].mixture[1].weight, 0.25);
  EXPECT_EQ(config.phases[0].checkpoints, 1u);
  EXPECT_EQ(config.phases[1].end_mixture.size(), 1u);
  EXPECT_DOUBLE_EQ(config.phases[1].end_mixture[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(config.phases[1].epsilon, 0.5);
  EXPECT_EQ(config.phases[1].checkpoints, 4u);
}

TEST(ScenarioParseTest, RejectsMalformedInput) {
  // Unknown top-level key.
  EXPECT_FALSE(ParseScenarioText("bogus = 1").ok());
  // Unknown dataset.
  EXPECT_FALSE(ParseScenarioText(
      "[phase]\nmixture = nope\nreports = 10").ok());
  // Bad mixture weight.
  EXPECT_FALSE(ParseScenarioText(
      "[phase]\nmixture = beta:xyz\nreports = 10").ok());
  // Key line without '='.
  EXPECT_FALSE(ParseScenarioText("[phase]\nmixture beta").ok());
  // Structurally invalid after parsing (no reports).
  EXPECT_FALSE(ParseScenarioText("[phase]\nmixture = beta").ok());
}

TEST(ScenarioParseTest, RejectsNegativeAndMalformedNumbers) {
  // Negative integers must be InvalidArgument, never wrap through size_t
  // into absurd allocations or loop bounds.
  EXPECT_FALSE(ParseScenarioText(
      "d = -1\n[phase]\nmixture = beta\nreports = 10").ok());
  EXPECT_FALSE(ParseScenarioText(
      "shards = -1\n[phase]\nmixture = beta\nreports = 10").ok());
  EXPECT_FALSE(ParseScenarioText(
      "[phase]\nmixture = beta\nreports = -10").ok());
  EXPECT_FALSE(ParseScenarioText(
      "[phase]\nmixture = beta\nreports = 10\ncheckpoints = -2").ok());
  // Non-numeric and trailing-garbage values.
  EXPECT_FALSE(ParseScenarioText(
      "d = lots\n[phase]\nmixture = beta\nreports = 10").ok());
  EXPECT_FALSE(ParseScenarioText(
      "[phase]\nmixture = beta\nreports = 10x").ok());
  // Epsilon must be positive and numeric.
  EXPECT_FALSE(ParseScenarioText(
      "epsilon = -1\n[phase]\nmixture = beta\nreports = 10").ok());
  EXPECT_FALSE(ParseScenarioText(
      "epsilon = nanx\n[phase]\nmixture = beta\nreports = 10").ok());
  // Zero d / shards parse fine and are caught by validation.
  EXPECT_FALSE(ParseScenarioText(
      "d = 0\n[phase]\nmixture = beta\nreports = 10").ok());
  EXPECT_FALSE(ParseScenarioText(
      "shards = 0\n[phase]\nmixture = beta\nreports = 10").ok());
}

TEST(ScenarioParseTest, ParsesAttackAndDefenseKeys) {
  const ScenarioConfig config = ParseScenarioText(R"(
    name = attacked
    d = 64
    defense = consistency
    defense_threshold = 6.5
    [phase]
    mixture = beta
    reports = 100
    [phase]
    mixture = beta
    reports = 100
    attack = output
    attack_fraction = 0.25
    attack_target = 48
  )").ValueOrDie();
  EXPECT_TRUE(config.defense);
  EXPECT_DOUBLE_EQ(config.defense_options.spike_z_threshold, 6.5);
  ASSERT_EQ(config.phases.size(), 2u);
  EXPECT_EQ(config.phases[0].attack.kind, AttackKind::kNone);
  EXPECT_EQ(config.phases[1].attack.kind, AttackKind::kOutputPoison);
  EXPECT_DOUBLE_EQ(config.phases[1].attack.fraction, 0.25);
  EXPECT_EQ(config.phases[1].attack.target, 48u);
  EXPECT_TRUE(ValidateScenario(config).ok());
  // defense = off round-trips to no defense columns.
  const ScenarioConfig off = ParseScenarioText(
      "defense = off\n[phase]\nmixture = beta\nreports = 10").ValueOrDie();
  EXPECT_FALSE(off.defense);
}

TEST(ScenarioParseTest, RejectsMalformedAttackAndDefenseKeys) {
  const std::string prefix = "[phase]\nmixture = beta\nreports = 10\n";
  // Fractions outside [0, 1] are typed errors, never silently clamped.
  EXPECT_FALSE(ParseScenarioText(
      prefix + "attack = output\nattack_fraction = 1.5").ok());
  EXPECT_FALSE(ParseScenarioText(
      prefix + "attack = output\nattack_fraction = -0.1").ok());
  // Non-finite and garbage fraction strings.
  EXPECT_FALSE(ParseScenarioText(
      prefix + "attack = output\nattack_fraction = nan").ok());
  EXPECT_FALSE(ParseScenarioText(
      prefix + "attack = output\nattack_fraction = inf").ok());
  EXPECT_FALSE(ParseScenarioText(
      prefix + "attack = output\nattack_fraction = 0.1x").ok());
  // Unknown attack kind.
  EXPECT_FALSE(ParseScenarioText(
      prefix + "attack = mga\nattack_fraction = 0.1").ok());
  // An attack kind without a fraction (and vice versa) is a contradiction.
  EXPECT_FALSE(ParseScenarioText(prefix + "attack = output").ok());
  EXPECT_FALSE(ParseScenarioText(prefix + "attack_fraction = 0.1").ok());
  // Target outside the scenario's domain.
  EXPECT_FALSE(ParseScenarioText(
      "d = 32\n" + prefix +
      "attack = output\nattack_fraction = 0.1\nattack_target = 32").ok());
  // Negative target must not wrap through size_t.
  EXPECT_FALSE(ParseScenarioText(
      prefix + "attack = output\nattack_fraction = 0.1\n"
               "attack_target = -1").ok());
  // Defense switch takes only off|consistency; thresholds must be
  // positive and finite.
  EXPECT_FALSE(ParseScenarioText("defense = maybe\n" + prefix).ok());
  EXPECT_FALSE(ParseScenarioText(
      "defense = consistency\ndefense_threshold = 0\n" + prefix).ok());
  EXPECT_FALSE(ParseScenarioText(
      "defense = consistency\ndefense_threshold = -3\n" + prefix).ok());
  EXPECT_FALSE(ParseScenarioText(
      "defense = consistency\ndefense_threshold = nan\n" + prefix).ok());
}

TEST(ScenarioBuiltinTest, AllBuiltinsAreValid) {
  for (const std::string& name : BuiltinScenarioNames()) {
    const Result<ScenarioConfig> config = BuiltinScenario(name);
    ASSERT_TRUE(config.ok()) << name;
    EXPECT_TRUE(ValidateScenario(config.value()).ok()) << name;
    EXPECT_EQ(config->name, name);
  }
  EXPECT_FALSE(BuiltinScenario("no-such-scenario").ok());
}

}  // namespace
}  // namespace numdist
