// Config-driven scenario engine: composes LDP collection workloads far
// beyond the paper's four static §6.1 datasets. A scenario is a sequence of
// phases; each phase draws its population from a dataset mixture that can
// drift over the phase (temporal distribution shift), ramps in its own
// report volume, and may run under its own privacy budget (epsilon
// schedules). Reports are collected on a fixed shard topology, each shard
// one vector of SW output-bucket counts; at periodic checkpoints the
// shards' counts are summed and the distribution is reconstructed
// (merge-then-snapshot), yielding Wasserstein/KS trajectories against the
// scenario's exact running ground truth.
//
// Determinism: each (phase, shard) pair owns a fixed RNG stream derived
// from the scenario seed, report i of a phase always lands on shard
// i % shards, and checkpoint merges run in shard order — so a fixed-seed
// scenario produces bit-identical results for any thread count.
//
// Scenarios come from three places: built-in named presets
// (BuiltinScenario), the line-oriented text format (ParseScenarioText,
// format documented there; runnable via tools/scenario_cli), and directly
// constructed configs (tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/datasets.h"
#include "scenario/attack.h"

namespace numdist {

/// One collection phase of a scenario.
struct ScenarioPhase {
  std::string name = "phase";
  /// Population mixture at the start of the phase. Required, weights >= 0
  /// with a positive sum.
  std::vector<MixtureComponent> mixture;
  /// Population mixture at the end of the phase; component weights are
  /// interpolated linearly over the phase's reports (temporal drift).
  /// Empty = no drift. May name datasets absent from `mixture` (and vice
  /// versa); missing components enter with weight 0.
  std::vector<MixtureComponent> end_mixture;
  /// Reports collected in this phase (> 0).
  size_t reports = 0;
  /// Privacy budget for this phase; <= 0 inherits ScenarioConfig::epsilon.
  /// Phases with different epsilons aggregate into separate per-epsilon
  /// groups (reports under different budgets are not mixable in one
  /// reconstruction).
  double epsilon = 0.0;
  /// Merge-and-snapshot checkpoints in this phase (>= 1, <= reports); the
  /// phase's reports are split into this many equal chunks.
  size_t checkpoints = 1;
  /// Attacker routing for this phase (scenario/attack.h): `fraction` of
  /// the phase's reports come from malicious users instead of the
  /// population mixture. Attacked reports are excluded from the clean
  /// ground truth, so checkpoint metrics measure attack-induced error.
  /// kNone (the default) changes nothing — not even RNG draw order.
  AttackSpec attack;
};

/// A full scenario.
struct ScenarioConfig {
  std::string name = "scenario";
  /// Default privacy budget for phases that do not set their own.
  double epsilon = 1.0;
  /// Reconstruction granularity (input buckets).
  size_t d = 64;
  /// Collector shards: every report stream is split over this many
  /// output-count vectors (part of the scenario semantics, unlike
  /// `threads`, which is pure execution parallelism).
  size_t shards = 4;
  uint64_t seed = 42;
  /// Worker threads; 0 = hardware concurrency. Never changes the results.
  size_t threads = 0;
  /// Run an incremental reconstructor (eval/incremental.h) per epsilon
  /// group next to the cold per-checkpoint snapshots: EM warm-started from
  /// the previous checkpoint's fixed point. Off by default so existing
  /// outputs stay bit-identical.
  bool incremental = false;
  /// Forgetting half-life of the incremental window in reports. 0 keeps
  /// every report; a positive value forgets old ones, turning the
  /// scenario into a drift-tracking benchmark (the checkpoint records the
  /// estimate's distance to the *equally forgotten* ground truth, i.e.
  /// error over the effective window rather than over all history).
  /// Finite and >= 0; a positive value needs `incremental`.
  double half_life = 0.0;
  /// Run the postprocess/defense.h frequency-consistency detectors on
  /// every checkpoint's merged output counts and emit the `def_*`
  /// columns. Off by default so existing outputs stay bit-identical.
  bool defense = false;
  /// Detector thresholds when `defense` is on.
  DefenseOptions defense_options;
  std::vector<ScenarioPhase> phases;
};

/// Reconstruction + metrics at one checkpoint.
struct ScenarioCheckpoint {
  size_t phase_index = 0;
  std::string phase;
  /// Checkpoint ordinal within the phase.
  size_t checkpoint_index = 0;
  /// Epsilon group this checkpoint reconstructed.
  double epsilon = 0.0;
  /// Cumulative reports in the group / in the whole scenario so far.
  uint64_t group_reports = 0;
  uint64_t total_reports = 0;
  /// Distance of the reconstruction to the group's exact running ground
  /// truth (the histogram of every value actually drawn for the group).
  double wasserstein = 0.0;
  double ks = 0.0;
  size_t em_iterations = 0;
  bool em_converged = false;
  /// Reconstructed distribution and ground truth, d buckets each.
  std::vector<double> estimate;
  std::vector<double> truth;

  /// Incremental-reconstruction companion metrics, populated only when
  /// ScenarioConfig::incremental is on. The distances are measured
  /// against the group's ground truth forgotten on the estimate's own
  /// schedule (cumulative with no half-life, exponentially decayed with
  /// one), so for a drifting population inc_wasserstein is the
  /// drift-TRACKING error: how far the rolling estimate lags the window it
  /// is supposed to represent.
  size_t inc_em_iterations = 0;
  /// Cumulative EM iterations spent by the incremental path so far (the
  /// budget a cold restart at every checkpoint would dwarf).
  size_t inc_total_iterations = 0;
  double inc_wasserstein = 0.0;
  double inc_ks = 0.0;
  std::vector<double> inc_estimate;

  /// Adversarial companion columns. atk_* are populated once the
  /// checkpoint's epsilon group has run any attacked phase: the cumulative
  /// malicious report count and the attacker's objective — estimated mass
  /// minus clean-truth mass at the most recent attack target. def_* are
  /// populated when ScenarioConfig::defense is on: the spike detector over
  /// the merged output counts (defense.h), which is the consistency check
  /// that sees concentrated poisoning before reconstruction smooths it.
  uint64_t atk_reports = 0;
  double atk_gain = 0.0;
  double def_spike_z = 0.0;
  size_t def_spike_bucket = 0;
  bool def_flagged = false;
};

/// Outcome of a scenario run.
struct ScenarioResult {
  std::vector<ScenarioCheckpoint> checkpoints;
  uint64_t total_reports = 0;
};

/// Checks a scenario for structural errors (empty phases, bad weights,
/// invalid epsilon/d/shards/checkpoints). RunScenario validates first.
Status ValidateScenario(const ScenarioConfig& config);

/// Executes the scenario. Deterministic for a fixed config.seed at any
/// config.threads.
Result<ScenarioResult> RunScenario(const ScenarioConfig& config);

/// Parses the line-oriented scenario text format:
///
///   # comment                      (blank lines ignored)
///   name = drift-demo              (top-level keys before the first phase:
///   epsilon = 1.0                   name, epsilon, d, shards, seed,
///                                   incremental, half_life, defense,
///   d = 64                          defense_threshold)
///   shards = 4
///   incremental = on               (off | on)
///   half_life = 10000              (reports; 0 = keep all; needs on)
///
///   [phase]                        (starts a phase; then per-phase keys:
///   name = drift                    name, mixture, end_mixture, reports,
///   mixture = beta:0.8, taxi:0.2    epsilon, checkpoints)
///   end_mixture = taxi
///   reports = 40000
///   checkpoints = 4
///
/// Mixtures are comma-separated `dataset[:weight]` terms (weight defaults
/// to 1) over the §6.1 dataset names. The complete format reference lives
/// in docs/SCENARIO_FORMAT.md.
Result<ScenarioConfig> ParseScenarioText(const std::string& text);

/// Reads and parses a scenario file.
Result<ScenarioConfig> LoadScenarioFile(const std::string& path);

/// Names of the built-in scenarios ("drift", "ramp", "eps-schedule",
/// "poison", "churn").
const std::vector<std::string>& BuiltinScenarioNames();

/// Returns a built-in scenario by name, or InvalidArgument.
Result<ScenarioConfig> BuiltinScenario(const std::string& name);

}  // namespace numdist
