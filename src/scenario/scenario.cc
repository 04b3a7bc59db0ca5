#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/executor.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "eval/incremental.h"
#include "metrics/distance.h"
#include "postprocess/defense.h"
#include "scenario/attack.h"

namespace numdist {

namespace {

// Fixed stream family: one independent RNG per (scenario seed, phase,
// shard). The stream never depends on the thread count or on other shards'
// progress, which is what makes scenarios bit-reproducible under any
// parallel schedule.
Rng PhaseShardRng(uint64_t seed, size_t phase, size_t shard) {
  const uint64_t mixed =
      SplitMix64(seed + 0xA24BAED4963EE407ULL * (phase + 1));
  return Rng(SplitMix64(mixed ^ (0x9E3779B97F4A7C15ULL * (shard + 1))));
}

Status ValidateMixture(const std::vector<MixtureComponent>& mixture,
                       const char* what, const std::string& phase) {
  double total = 0.0;
  for (const MixtureComponent& c : mixture) {
    if (!(c.weight >= 0.0) || !std::isfinite(c.weight)) {
      return Status::InvalidArgument("scenario phase '" + phase + "': " +
                                     what + " has a negative or non-finite "
                                     "component weight");
    }
    total += c.weight;
  }
  if (!(total > 0.0)) {
    return Status::InvalidArgument("scenario phase '" + phase + "': " + what +
                                   " needs a positive total weight");
  }
  return Status::OK();
}

// Per-epsilon aggregation group: the shard topology plus the group's exact
// running ground truth, both cumulative across phases.
struct EpsilonGroup {
  // One immutable estimator for the whole group: shards only need its
  // per-report primitives, checkpoints its reconstruction.
  std::shared_ptr<const SwEstimator> estimator;
  // Per-shard output-bucket counts and truth counts: workers touch only
  // their own shard's vectors, summed in shard order at each checkpoint.
  std::vector<std::vector<uint64_t>> counts;
  std::vector<std::vector<uint64_t>> truth_counts;
  // Reusable checkpoint sum of `counts`, the group's whole histogram.
  std::vector<uint64_t> merged;
  uint64_t reports = 0;

  // Incremental-reconstruction companion (ScenarioConfig::incremental):
  // rolls the group's EM fixed point forward across checkpoints, plus the
  // ground truth forgotten on the SAME schedule so the drift-tracking
  // metric compares the estimate to the window it represents.
  std::optional<IncrementalReconstructor> inc;
  std::vector<double> decayed_truth;
  std::vector<double> prev_truth;
  uint64_t prev_truth_n = 0;

  // Adversarial companion state: per-shard malicious report counts
  // (workers touch only their own slot, summed in shard order), plus the
  // most recent attacked phase's target for the atk_gain column.
  std::vector<uint64_t> attacked_counts;
  bool ever_attacked = false;
  size_t attack_target = 0;
};

}  // namespace

Status ValidateScenario(const ScenarioConfig& config) {
  // Upper bounds are sanity caps, not capability limits: d sizes every
  // per-bucket histogram and EM workspace, so a typo'd granularity must be
  // an error, not a multi-gigabyte allocation.
  if (config.d < 2 || config.d > 8192) {
    return Status::InvalidArgument("scenario: d must be in [2, 8192]");
  }
  if (config.shards == 0 || config.shards > 4096) {
    return Status::InvalidArgument("scenario: shards must be in [1, 4096]");
  }
  if (!(config.epsilon > 0.0) || !std::isfinite(config.epsilon)) {
    return Status::InvalidArgument(
        "scenario: default epsilon must be positive and finite");
  }
  if (!(config.half_life >= 0.0) || !std::isfinite(config.half_life)) {
    return Status::InvalidArgument(
        "scenario: half_life must be finite and >= 0");
  }
  if (!config.incremental && config.half_life != 0.0) {
    return Status::InvalidArgument(
        "scenario: half_life needs incremental = on");
  }
  if (config.defense) {
    NUMDIST_RETURN_NOT_OK(ValidateDefenseOptions(config.defense_options));
  }
  if (config.phases.empty()) {
    return Status::InvalidArgument("scenario: needs at least one phase");
  }
  for (const ScenarioPhase& phase : config.phases) {
    if (phase.reports == 0) {
      return Status::InvalidArgument("scenario phase '" + phase.name +
                                     "': reports must be > 0");
    }
    if (phase.checkpoints == 0 || phase.checkpoints > phase.reports) {
      return Status::InvalidArgument(
          "scenario phase '" + phase.name +
          "': checkpoints must be in [1, reports]");
    }
    if (phase.epsilon != 0.0 &&
        (!(phase.epsilon > 0.0) || !std::isfinite(phase.epsilon))) {
      return Status::InvalidArgument("scenario phase '" + phase.name +
                                     "': epsilon must be positive and finite");
    }
    NUMDIST_RETURN_NOT_OK(ValidateAttack(phase.attack, config.d, phase.name));
    if (phase.mixture.empty()) {
      return Status::InvalidArgument("scenario phase '" + phase.name +
                                     "': mixture is required");
    }
    NUMDIST_RETURN_NOT_OK(ValidateMixture(phase.mixture, "mixture",
                                          phase.name));
    if (!phase.end_mixture.empty()) {
      NUMDIST_RETURN_NOT_OK(ValidateMixture(phase.end_mixture, "end_mixture",
                                            phase.name));
    }
  }
  return Status::OK();
}

Result<ScenarioResult> RunScenario(const ScenarioConfig& config) {
  NUMDIST_RETURN_NOT_OK(ValidateScenario(config));
  const size_t threads =
      std::min(ResolveThreadCount(config.threads), config.shards);

  // Epsilon groups keyed by the budget's bit pattern (exact, no FP-compare
  // pitfalls); groups are created lazily when a phase first uses a budget.
  std::map<uint64_t, EpsilonGroup> groups;
  const auto group_for = [&](double epsilon) -> Result<EpsilonGroup*> {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(epsilon));
    std::memcpy(&bits, &epsilon, sizeof(bits));
    auto it = groups.find(bits);
    if (it != groups.end()) return &it->second;
    EpsilonGroup group;
    SwEstimatorOptions options;
    options.epsilon = epsilon;
    options.d = config.d;
    Result<SwEstimator> estimator = SwEstimator::Make(options);
    if (!estimator.ok()) return estimator.status();
    group.estimator =
        std::make_shared<const SwEstimator>(std::move(estimator).value());
    const size_t buckets = group.estimator->output_buckets();
    group.counts.assign(config.shards, std::vector<uint64_t>(buckets, 0));
    group.truth_counts.assign(config.shards,
                              std::vector<uint64_t>(config.d, 0));
    group.merged.assign(buckets, 0);
    group.attacked_counts.assign(config.shards, 0);
    if (config.incremental) {
      IncrementalOptions inc_options;
      inc_options.half_life = config.half_life;
      Result<IncrementalReconstructor> inc =
          IncrementalReconstructor::Make(group.estimator, inc_options);
      if (!inc.ok()) return inc.status();
      group.inc.emplace(std::move(inc).value());
      group.decayed_truth.assign(config.d, 0.0);
      group.prev_truth.assign(config.d, 0.0);
    }
    return &groups.emplace(bits, std::move(group)).first->second;
  };

  ScenarioResult result;
  for (size_t p = 0; p < config.phases.size(); ++p) {
    const ScenarioPhase& phase = config.phases[p];
    const double epsilon =
        phase.epsilon > 0.0 ? phase.epsilon : config.epsilon;
    NUMDIST_ASSIGN_OR_RETURN(EpsilonGroup* group, group_for(epsilon));

    std::vector<MixtureComponent> start = phase.mixture;
    std::vector<MixtureComponent> end = phase.mixture;
    if (!phase.end_mixture.empty()) {
      AlignMixtures(phase.mixture, phase.end_mixture, &start, &end);
    }
    const double drift_denom =
        phase.reports > 1 ? static_cast<double>(phase.reports - 1) : 1.0;

    // Static (non-drifting) mixtures sample their component per report;
    // build the phase's alias table once so that pick is O(1) instead of a
    // linear weight scan.
    std::optional<DiscreteSampler> static_sampler;
    if (phase.end_mixture.empty()) {
      static_sampler.emplace(MakeMixtureSampler(start));
    }

    // One persistent stream per shard for the whole phase; checkpoint
    // boundaries never reset it, so the report sequence is independent of
    // how the phase is chunked for snapshots.
    std::vector<Rng> shard_rngs;
    shard_rngs.reserve(config.shards);
    for (size_t s = 0; s < config.shards; ++s) {
      shard_rngs.push_back(PhaseShardRng(config.seed, p, s));
    }

    // Attacked phases route a Bernoulli(fraction) slice of each shard's
    // reports through the crafted-report generators. The decision and all
    // malicious randomness come from a dedicated per-(seed, phase, shard)
    // stream (attack.h), so the honest stream advances exactly as in a
    // clean run and attack = none stays bit-identical to builds that
    // predate the attacker model.
    const bool attacked_phase =
        phase.attack.kind != AttackKind::kNone && phase.attack.fraction > 0.0;
    std::vector<Rng> attack_rngs;
    if (attacked_phase) {
      group->ever_attacked = true;
      group->attack_target = phase.attack.target;
      attack_rngs.reserve(config.shards);
      for (size_t s = 0; s < config.shards; ++s) {
        attack_rngs.push_back(AttackPhaseShardRng(config.seed, p, s));
      }
    }

    for (size_t c = 0; c < phase.checkpoints; ++c) {
      const size_t begin = phase.reports * c / phase.checkpoints;
      const size_t chunk_end = phase.reports * (c + 1) / phase.checkpoints;

      // Shard task: report i of the phase lands on shard i % shards; the
      // task draws the (possibly drifting) mixture value, records it in
      // the shard's truth counts, perturbs it with the group's SW
      // mechanism, and counts the report's output bucket. All state is
      // keyed by the shard index (one RNG stream, count vector, and truth
      // histogram per shard), so the executor's schedule cannot change
      // results. Static mixtures sample through the phase's alias table
      // (O(1) per report); drifting mixtures rebuild per-report weights
      // and keep the linear scan.
      const bool drifting = !phase.end_mixture.empty();
      Executor::Shared().ParallelFor(
          config.shards, threads, [&](size_t s, size_t /*slot*/) {
            // Per-report weight scratch, needed (and allocated) only when
            // the mixture drifts; static phases sample through the
            // phase's alias table and stay allocation-free per task.
            std::vector<MixtureComponent> mix;
            if (drifting) mix = start;
            Rng& rng = shard_rngs[s];
            const SwEstimator& est = *group->estimator;
            std::vector<uint64_t>& counts = group->counts[s];
            std::vector<uint64_t>& truth = group->truth_counts[s];
            size_t i = begin + (s + config.shards - begin % config.shards) %
                                   config.shards;
            for (; i < chunk_end; i += config.shards) {
              if (attacked_phase &&
                  attack_rngs[s].Bernoulli(phase.attack.fraction)) {
                // Malicious report: crafted from the attack stream, never
                // recorded in the clean ground truth.
                ++counts[est.OutputBucketOf(CraftSwReport(
                    est, phase.attack, config.d, attack_rngs[s]))];
                ++group->attacked_counts[s];
                continue;
              }
              double v;
              if (drifting) {
                LerpMixtureWeights(start, end,
                                   static_cast<double>(i) / drift_denom,
                                   &mix);
                v = SampleMixture(mix, rng);
              } else {
                v = SampleMixture(start, *static_sampler, rng);
              }
              ++truth[hist::BucketOf(v, config.d)];
              ++counts[est.OutputBucketOf(est.PerturbOne(v, rng))];
            }
          });
      group->reports += chunk_end - begin;
      result.total_reports += chunk_end - begin;

      // Merge-then-snapshot: sum every shard's counts, in shard order,
      // into the group's reusable histogram and reconstruct from it.
      std::vector<uint64_t>& merged = group->merged;
      std::fill(merged.begin(), merged.end(), 0);
      for (const std::vector<uint64_t>& shard_counts : group->counts) {
        for (size_t j = 0; j < merged.size(); ++j) {
          merged[j] += shard_counts[j];
        }
      }
      NUMDIST_ASSIGN_OR_RETURN(EmResult em,
                               group->estimator->Reconstruct(merged));

      std::vector<double> truth(config.d, 0.0);
      for (const std::vector<uint64_t>& shard_truth : group->truth_counts) {
        for (size_t i = 0; i < config.d; ++i) {
          truth[i] += static_cast<double>(shard_truth[i]);
        }
      }

      // Incremental companion: roll the group's warm-started estimate
      // forward over the merged cumulative counts, and forget the raw
      // truth counts on the SAME schedule before normalization — the
      // resulting distance is drift-tracking error over the effective
      // window, not error against all history.
      EmResult inc_em;
      std::vector<double> inc_truth;
      if (group->inc.has_value()) {
        NUMDIST_ASSIGN_OR_RETURN(
            inc_em, group->inc->UpdateFromTotals(merged, group->reports));
        const double lambda = ForgettingFactor(
            group->reports - group->prev_truth_n, config.half_life);
        for (size_t i = 0; i < config.d; ++i) {
          group->decayed_truth[i] = lambda * group->decayed_truth[i] +
                                    (truth[i] - group->prev_truth[i]);
        }
        group->prev_truth = truth;
        group->prev_truth_n = group->reports;
        inc_truth = group->decayed_truth;
        hist::Normalize(&inc_truth);
      }
      hist::Normalize(&truth);

      ScenarioCheckpoint checkpoint;
      checkpoint.phase_index = p;
      checkpoint.phase = phase.name;
      checkpoint.checkpoint_index = c;
      checkpoint.epsilon = epsilon;
      checkpoint.group_reports = group->reports;
      checkpoint.total_reports = result.total_reports;
      checkpoint.wasserstein = WassersteinDistance(truth, em.estimate);
      checkpoint.ks = KsDistance(truth, em.estimate);
      checkpoint.em_iterations = em.iterations;
      checkpoint.em_converged = em.converged;
      checkpoint.estimate = std::move(em.estimate);
      checkpoint.truth = std::move(truth);
      if (group->inc.has_value()) {
        checkpoint.inc_em_iterations = inc_em.iterations;
        checkpoint.inc_total_iterations =
            group->inc->checkpoint().total_iterations;
        checkpoint.inc_wasserstein =
            WassersteinDistance(inc_truth, inc_em.estimate);
        checkpoint.inc_ks = KsDistance(inc_truth, inc_em.estimate);
        checkpoint.inc_estimate = std::move(inc_em.estimate);
      }
      if (group->ever_attacked) {
        for (const uint64_t a : group->attacked_counts) {
          checkpoint.atk_reports += a;
        }
        checkpoint.atk_gain = checkpoint.estimate[group->attack_target] -
                              checkpoint.truth[group->attack_target];
      }
      if (config.defense) {
        // The spike detector runs on the merged OUTPUT counts: output
        // poisoning piles a whole cohort onto one output bucket, which is
        // glaring there and already smoothed away in the EM estimate.
        NUMDIST_ASSIGN_OR_RETURN(
            const DefenseReport def,
            AnalyzeCounts(merged, config.defense_options));
        checkpoint.def_spike_z = def.max_spike_z;
        checkpoint.def_spike_bucket = def.spike_bucket;
        checkpoint.def_flagged = def.flagged;
      }
      result.checkpoints.push_back(std::move(checkpoint));
    }
  }
  return result;
}

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// The refusal of a malformed or out-of-range scenario value.
Status BadValue(const std::string& key, const std::string& value,
                size_t line_no, const char* what) {
  return Status::InvalidArgument("scenario line " + std::to_string(line_no) +
                                 ": '" + key + "' must be " + what +
                                 ", got '" + value + "'");
}

// Non-negative integer parse for scenario keys: a literal `d = -1` is
// InvalidArgument, not a 2^64-bucket allocation.
Result<uint64_t> ParseCount(const std::string& key, const std::string& value,
                            size_t line_no) {
  const Result<uint64_t> parsed = ParseUint(value);
  if (parsed.ok()) return parsed;
  return BadValue(key, value, line_no, "a non-negative integer");
}

// Finite number parse for scenario keys, accepted where `in_range` holds:
// "nan", "inf", 1.5 for a fraction and -0.1 are all typed errors, never
// silently clamped.
Result<double> ParseNumber(const std::string& key, const std::string& value,
                           size_t line_no, bool (*in_range)(double),
                           const char* what) {
  const Result<double> parsed = ParseFinite(value);
  if (parsed.ok() && in_range(parsed.value())) return parsed;
  return BadValue(key, value, line_no, what);
}

bool Positive(double x) { return x > 0.0; }
bool NonNegative(double x) { return x >= 0.0; }

Result<std::vector<MixtureComponent>> ParseMixture(const std::string& text,
                                                   size_t line_no) {
  std::vector<MixtureComponent> mixture;
  for (const std::string_view item : SplitList(text)) {
    const std::string term = Trim(std::string(item));
    if (term.empty()) continue;
    std::string name = term;
    double weight = 1.0;
    const size_t colon = term.find(':');
    if (colon != std::string::npos) {
      name = Trim(term.substr(0, colon));
      NUMDIST_ASSIGN_OR_RETURN(
          weight, ParseNumber("mixture weight", Trim(term.substr(colon + 1)),
                              line_no, NonNegative, "a number >= 0"));
    }
    DatasetId id;
    if (!ParseDatasetId(name, &id)) {
      return Status::InvalidArgument("scenario line " +
                                     std::to_string(line_no) +
                                     ": unknown dataset '" + name + "'");
    }
    mixture.push_back({id, weight});
  }
  if (mixture.empty()) {
    return Status::InvalidArgument("scenario line " + std::to_string(line_no) +
                                   ": empty mixture");
  }
  return mixture;
}

}  // namespace

Result<ScenarioConfig> ParseScenarioText(const std::string& text) {
  ScenarioConfig config;
  ScenarioPhase* phase = nullptr;
  size_t line_no = 0;
  for (const std::string_view raw : SplitList(text, '\n')) {
    ++line_no;
    const std::string line = Trim(std::string(raw.substr(0, raw.find('#'))));
    if (line.empty()) continue;
    if (line == "[phase]") {
      config.phases.emplace_back();
      phase = &config.phases.back();
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("scenario line " +
                                     std::to_string(line_no) +
                                     ": expected key = value or [phase]");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    const auto bad_key = [&]() -> Status {
      return Status::InvalidArgument("scenario line " +
                                     std::to_string(line_no) +
                                     ": unknown key '" + key + "'");
    };
    if (phase == nullptr) {
      if (key == "name") {
        config.name = value;
      } else if (key == "epsilon") {
        NUMDIST_ASSIGN_OR_RETURN(
            config.epsilon,
            ParseNumber(key, value, line_no, Positive, "a positive number"));
      } else if (key == "d") {
        NUMDIST_ASSIGN_OR_RETURN(config.d, ParseCount(key, value, line_no));
      } else if (key == "shards") {
        NUMDIST_ASSIGN_OR_RETURN(config.shards,
                                 ParseCount(key, value, line_no));
      } else if (key == "seed") {
        NUMDIST_ASSIGN_OR_RETURN(config.seed, ParseCount(key, value, line_no));
      } else if (key == "incremental") {
        if (value != "off" && value != "on") {
          return BadValue(key, value, line_no, "off or on");
        }
        config.incremental = value == "on";
      } else if (key == "half_life") {
        NUMDIST_ASSIGN_OR_RETURN(
            config.half_life,
            ParseNumber(key, value, line_no, NonNegative, "a number >= 0"));
      } else if (key == "defense") {
        if (value != "off" && value != "consistency") {
          return BadValue(key, value, line_no, "off or consistency");
        }
        config.defense = value == "consistency";
      } else if (key == "defense_threshold") {
        NUMDIST_ASSIGN_OR_RETURN(
            config.defense_options.spike_z_threshold,
            ParseNumber(key, value, line_no, Positive, "a positive number"));
      } else {
        return bad_key();
      }
      continue;
    }
    if (key == "name") {
      phase->name = value;
    } else if (key == "mixture") {
      NUMDIST_ASSIGN_OR_RETURN(phase->mixture, ParseMixture(value, line_no));
    } else if (key == "end_mixture") {
      NUMDIST_ASSIGN_OR_RETURN(phase->end_mixture,
                               ParseMixture(value, line_no));
    } else if (key == "reports") {
      NUMDIST_ASSIGN_OR_RETURN(phase->reports,
                               ParseCount(key, value, line_no));
    } else if (key == "epsilon") {
      NUMDIST_ASSIGN_OR_RETURN(
          phase->epsilon,
          ParseNumber(key, value, line_no, Positive, "a positive number"));
    } else if (key == "checkpoints") {
      NUMDIST_ASSIGN_OR_RETURN(phase->checkpoints,
                               ParseCount(key, value, line_no));
    } else if (key == "attack") {
      Result<AttackKind> kind = ParseAttackKind(value);
      if (!kind.ok()) {
        return Status::InvalidArgument("scenario line " +
                                       std::to_string(line_no) + ": " +
                                       kind.status().message());
      }
      phase->attack.kind = kind.value();
    } else if (key == "attack_fraction") {
      NUMDIST_ASSIGN_OR_RETURN(
          phase->attack.fraction,
          ParseNumber(key, value, line_no,
                      [](double f) { return f >= 0.0 && f <= 1.0; },
                      "a number in [0, 1]"));
    } else if (key == "attack_target") {
      NUMDIST_ASSIGN_OR_RETURN(phase->attack.target,
                               ParseCount(key, value, line_no));
    } else {
      return bad_key();
    }
  }
  NUMDIST_RETURN_NOT_OK(ValidateScenario(config));
  return config;
}

Result<ScenarioConfig> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("scenario: cannot open '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseScenarioText(buffer.str());
}

const std::vector<std::string>& BuiltinScenarioNames() {
  static const std::vector<std::string> kNames = {
      "drift", "ramp", "eps-schedule", "poison", "churn"};
  return kNames;
}

Result<ScenarioConfig> BuiltinScenario(const std::string& name) {
  if (name == "drift") {
    // Population drifts from Beta(5,2) to the bimodal taxi shape while six
    // collector shards merge at periodic checkpoints.
    return ParseScenarioText(R"(
      name = drift
      epsilon = 1.0
      d = 64
      shards = 6

      [phase]
      name = warmup
      mixture = beta
      reports = 20000
      checkpoints = 2

      [phase]
      name = drift
      mixture = beta
      end_mixture = taxi
      reports = 40000
      checkpoints = 4
    )");
  }
  if (name == "ramp") {
    // Population volume ramps 4x per phase on a fixed spiky distribution:
    // accuracy trajectories under growing n.
    return ParseScenarioText(R"(
      name = ramp
      epsilon = 1.0
      d = 64
      shards = 4

      [phase]
      name = pilot
      mixture = income
      reports = 5000
      checkpoints = 1

      [phase]
      name = rollout
      mixture = income
      reports = 20000
      checkpoints = 2

      [phase]
      name = full
      mixture = income
      reports = 80000
      checkpoints = 2
    )");
  }
  if (name == "eps-schedule") {
    // Privacy budget tightens over time; each epsilon aggregates into its
    // own group, so checkpoints track three separate reconstructions.
    return ParseScenarioText(R"(
      name = eps-schedule
      epsilon = 1.0
      d = 64
      shards = 4

      [phase]
      name = eps-4
      mixture = retirement
      epsilon = 4.0
      reports = 30000
      checkpoints = 2

      [phase]
      name = eps-1
      mixture = retirement
      epsilon = 1.0
      reports = 30000
      checkpoints = 2

      [phase]
      name = eps-0.5
      mixture = retirement
      epsilon = 0.5
      reports = 30000
      checkpoints = 2
    )");
  }
  if (name == "poison") {
    // A clean warmup, then an output-poisoning cohort (10% of users) piles
    // crafted reports onto bucket 48; the consistency detector watches the
    // merged output counts at every checkpoint. The tight epsilon-4 wave
    // is the most poisonable: the crafted reports' support concentrates on
    // the target instead of smearing over a wide wave window.
    return ParseScenarioText(R"(
      name = poison
      epsilon = 4.0
      d = 64
      shards = 4
      defense = consistency
      defense_threshold = 4

      [phase]
      name = clean
      mixture = beta
      reports = 20000
      checkpoints = 2

      [phase]
      name = attack
      mixture = beta
      attack = output
      attack_fraction = 0.1
      attack_target = 48
      reports = 20000
      checkpoints = 2
    )");
  }
  if (name == "churn") {
    // Attacker churn: a malicious cohort joins (input poisoning), departs,
    // and a protocol-following edge-skew cohort arrives late — the defense
    // columns show detection rising and decaying across the phases.
    return ParseScenarioText(R"(
      name = churn
      epsilon = 1.0
      d = 64
      shards = 4
      defense = consistency

      [phase]
      name = join
      mixture = taxi
      reports = 15000
      checkpoints = 1

      [phase]
      name = surge
      mixture = taxi
      attack = input
      attack_fraction = 0.25
      attack_target = 10
      reports = 15000
      checkpoints = 2

      [phase]
      name = depart
      mixture = taxi
      reports = 15000
      checkpoints = 1

      [phase]
      name = skew
      mixture = taxi
      attack = skew
      attack_fraction = 0.2
      reports = 15000
      checkpoints = 1
    )");
  }
  return Status::InvalidArgument(
      "scenario: unknown built-in '" + name +
      "' (have: drift, ramp, eps-schedule, poison, churn)");
}

}  // namespace numdist
