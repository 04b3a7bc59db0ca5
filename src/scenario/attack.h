// Attacker model for the scenario engine: LDP data poisoning (Cao et al.,
// USENIX Security 2021) against the frequency-oracle channels
// (GRR/OLH/OUE, Kairouz et al. arXiv:1602.07387) and the paper's Square
// Wave channel.
//
// Two attacker capabilities, per the standard taxonomy:
//
//   - input poisoning: malicious users lie about their value (reporting
//     the target bucket's center) but follow the protocol honestly. The
//     channel dampens the injected mass by its own noise, so per-user gain
//     is bounded by the honest sensitivity.
//   - output poisoning (maximal gain): malicious users skip the mechanism
//     and craft the report that maximizes the target bucket's estimated
//     mass — GRR reports the target itself, OLH picks a fresh seed and
//     reports the target's own hash (supporting the target with
//     probability 1 instead of p), OUE sets only the target bit, SW
//     reports the target bucket's center verbatim. Per-user estimate gain
//     is ~(p - q)^-1 times larger than input poisoning.
//   - pathological skew: malicious users follow the protocol on values
//     drawn from an adversarial edge-spike distribution (all mass on the
//     first/last bucket) — not targeted, but the worst case for the
//     smoothness-seeking EM reconstruction.
//
// Scenario phases opt in via `attack = input|output|skew` keys
// (docs/SCENARIO_FORMAT.md); attacked reports are excluded from the
// scenario's clean ground truth so checkpoint metrics measure the
// attack-induced error, and every malicious draw comes from a dedicated
// per-(seed, phase, shard) RNG stream so attacked runs keep the
// any-thread-count bit-identity contract (and attack = none keeps clean
// runs bit-identical to builds without this header).
//
// RunFoAttack is the self-contained categorical-channel harness behind
// `scenario_cli --attack` and `scenario_throughput --attack`: an n-user
// sharded GRR/OLH/OUE collection with a malicious cohort, scored against
// the honest cohort's exact histogram and run through the
// postprocess/defense.h consistency detectors.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/sw_estimator.h"
#include "postprocess/defense.h"

namespace numdist {

/// Attacker capability for one scenario phase.
enum class AttackKind {
  kNone = 0,     // honest phase (default; zero behavior change)
  kInputPoison,  // lie about the value, follow the protocol
  kOutputPoison, // craft the maximal-gain report directly
  kSkew,         // protocol-following users over an edge-spike population
};

/// Per-phase attacker configuration.
struct AttackSpec {
  AttackKind kind = AttackKind::kNone;
  /// Fraction of the phase's reports routed through the attacker, in
  /// [0, 1]. Must be > 0 when kind != kNone.
  double fraction = 0.0;
  /// Input bucket (in [0, d)) whose estimated mass the attacker inflates.
  /// Ignored by kSkew.
  size_t target = 0;
};

/// Parses an attack kind name ("none", "input", "output", "skew").
Result<AttackKind> ParseAttackKind(const std::string& name);

/// Canonical name of an attack kind.
std::string_view AttackKindName(AttackKind kind);

/// Structural validation of a phase's attack spec against the scenario's
/// granularity `d`: finite fraction in [0, 1] (and > 0 when an attack is
/// selected), target < d. `phase` names the phase in error messages.
Status ValidateAttack(const AttackSpec& spec, size_t d,
                      const std::string& phase);

/// Dedicated malicious-stream family: one independent RNG per (scenario
/// seed, phase, shard), salted differently from the honest report streams
/// so routing a report through the attacker never advances the honest
/// stream — the honest reports of an attacked run are draw-for-draw the
/// ones a clean run produces.
Rng AttackPhaseShardRng(uint64_t seed, size_t phase, size_t shard);

/// Crafts one malicious SW report for the scenario engine's channel. For
/// kInputPoison/kSkew this runs the honest mechanism on the adversarial
/// value; for kOutputPoison it returns the target bucket's center
/// verbatim (a legal report — the output domain contains [0, 1] — placed
/// where the transition density for the target peaks). Requires
/// spec.kind != kNone and spec.target < estimator's d.
double CraftSwReport(const SwEstimator& estimator, const AttackSpec& spec,
                     size_t d, Rng& rng);

/// Categorical frequency-oracle channels RunFoAttack can poison.
enum class FoChannel { kGrr = 0, kOlh, kOue };

/// Parses a channel name ("grr", "olh", "oue").
Result<FoChannel> ParseFoChannel(const std::string& name);

/// Canonical name of a channel.
std::string_view FoChannelName(FoChannel channel);

/// One self-contained poisoned collection experiment.
struct FoAttackConfig {
  FoChannel channel = FoChannel::kGrr;
  AttackSpec attack;
  /// Categorical domain size (>= 2) and privacy budget (> 0).
  size_t domain = 64;
  double epsilon = 1.0;
  /// Total reports, honest + malicious (> 0).
  size_t n = 100000;
  /// Collector shards (>= 1); reports deal round-robin over shards and
  /// per-shard sketches merge in shard order, so results are bit-identical
  /// at any thread count.
  size_t shards = 4;
  uint64_t seed = 42;
  /// Worker threads; 0 = hardware concurrency. Never changes results.
  size_t threads = 0;
  DefenseOptions defense;
};

/// Outcome of RunFoAttack, scored against the honest cohort.
struct FoAttackResult {
  /// Honest cohort's exact value histogram, normalized (the clean ground
  /// truth the attacker is distorting).
  std::vector<double> clean_truth;
  /// Raw unbiased estimate from all reports (honest + malicious).
  std::vector<double> estimate;
  /// The estimate after norm-sub projection (the paper's mitigation).
  std::vector<double> mitigated;
  uint64_t honest_reports = 0;
  uint64_t attacked_reports = 0;
  /// estimate[target] - clean_truth[target]: the attacker's objective.
  double target_gain = 0.0;
  /// Residual gain after norm-sub — how much of the attack the paper's
  /// projection actually removes.
  double mitigated_gain = 0.0;
  /// Frequency-consistency detectors over the raw estimate.
  DefenseReport defense;
};

/// Runs the sharded poisoned collection. Deterministic for a fixed
/// config.seed at any config.threads.
Result<FoAttackResult> RunFoAttack(const FoAttackConfig& config);

}  // namespace numdist
