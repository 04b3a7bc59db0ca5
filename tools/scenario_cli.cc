// scenario_cli — run a declarative LDP collection scenario end-to-end.
//
// Executes a built-in or file-based scenario (dataset mixtures, temporal
// drift, population ramps, epsilon schedules, shard/merge topologies over
// SW output counts) and prints the checkpoint trajectory: reconstruction
// quality against the scenario's exact running ground truth at every
// merge-and-snapshot point.
//
//   scenario_cli --scenario=drift [--seed=S] [--threads=W] [--csv] [--dump]
//   scenario_cli --scenario=path/to/file.scenario
//   scenario_cli --list
//
// The adversarial mode runs a poisoned categorical frequency-oracle
// collection (scenario/attack.h) instead of a scenario file: a malicious
// cohort crafts maximal-gain reports against one target bucket, the raw
// estimate is scored against the honest cohort's exact histogram, and the
// postprocess/defense.h consistency detectors report what they saw:
//
//   scenario_cli --attack=grr:output:0.05@32 [--n=N] [--domain=D]
//                [--eps=E] [--shards=S] [--seed=S] [--threads=W] [--csv]
//
// Results are bit-identical for a fixed seed at any --threads (scenario
// shard streams are fixed per (seed, phase, shard); see scenario/scenario.h).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "cli_common.h"
#include "scenario/attack.h"
#include "scenario/scenario.h"

using namespace numdist;
using numdist::tools::FlagValue;

namespace {

struct CliFlags {
  std::string scenario;
  bool list = false;
  bool csv = false;
  bool dump = false;
  bool validate = false;
  bool has_seed = false;
  uint64_t seed = 0;
  size_t threads = 0;
  // Unset overrides keep the scenario's own setting.
  std::optional<bool> incremental;
  std::optional<double> half_life;
  std::string attack;       // FO attack mode: CHANNEL:KIND:FRACTION@TARGET
  std::string defense;      // "" = keep the scenario's own setting
  std::optional<double> defense_threshold;
  size_t n = 200000;        // FO attack mode volume
  size_t domain = 64;       // FO attack mode domain
  double eps = 1.0;         // FO attack mode budget
  size_t shards = 4;        // FO attack mode shards
};

void Usage() {
  std::string builtins;
  for (const std::string& name : BuiltinScenarioNames()) {
    builtins += (builtins.empty() ? "" : ", ") + name;
  }
  fprintf(stderr,
          "usage: scenario_cli --scenario=NAME|FILE [--seed=S] [--threads=W]\n"
          "                    [--csv] [--dump] [--validate]\n"
          "                    [--incremental=off|on] [--half-life=R]\n"
          "       scenario_cli --list\n"
          "built-in scenarios: %s\n"
          "          scenario_cli --attack=CHANNEL:KIND:FRACTION@TARGET\n"
          "                    [--n=N] [--domain=D] [--eps=E] [--shards=S]\n"
          "                    [--seed=S] [--threads=W] [--csv]\n"
          "--incremental=on runs a warm-started reconstruction next to\n"
          "  every checkpoint (extra inc_* output columns); --half-life=R\n"
          "  > 0 forgets old reports with a half-life of R reports, and\n"
          "  R = 0 keeps them all\n"
          "--validate parses and validates the scenario, then exits\n"
          "--attack runs a poisoned frequency-oracle collection instead of\n"
          "  a scenario: CHANNEL is grr|olh|oue, KIND is input|output|skew,\n"
          "  FRACTION in [0,1] is the malicious cohort, TARGET the bucket\n"
          "  whose mass the attacker inflates (scenario/attack.h)\n"
          "--defense=off|consistency overrides a scenario's defense setting\n"
          "  (per-checkpoint def_* columns); --defense-threshold=Z sets the\n"
          "  spike detector's z threshold (Z > 0) in both modes\n",
          builtins.c_str());
}

// Parses all of `v` as a finite number into *out; anything else returns
// false and leaves *out as it was.
bool ParseFinite(const char* v, std::optional<double>* out) {
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (*v == '\0' || *end != '\0' || !std::isfinite(parsed)) return false;
  *out = parsed;
  return true;
}

bool ParseCli(int argc, char** argv, CliFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const char* v = FlagValue(arg, "--scenario=")) {
      flags->scenario = v;
    } else if (arg == "--list") {
      flags->list = true;
    } else if (arg == "--csv") {
      flags->csv = true;
    } else if (arg == "--dump") {
      flags->dump = true;
    } else if (arg == "--validate") {
      flags->validate = true;
    } else if (const char* v = FlagValue(arg, "--seed=")) {
      flags->has_seed = true;
      flags->seed = static_cast<uint64_t>(atoll(v));
    } else if (const char* v = FlagValue(arg, "--threads=")) {
      flags->threads = static_cast<size_t>(atoll(v));
    } else if (const char* v = FlagValue(arg, "--incremental=")) {
      if (strcmp(v, "off") != 0 && strcmp(v, "on") != 0) {
        fprintf(stderr, "--incremental must be off or on, got '%s'\n", v);
        return false;
      }
      flags->incremental = strcmp(v, "on") == 0;
    } else if (const char* v = FlagValue(arg, "--half-life=")) {
      if (!ParseFinite(v, &flags->half_life) || *flags->half_life < 0.0) {
        fprintf(stderr, "--half-life must be a finite R >= 0, got '%s'\n",
                v);
        return false;
      }
    } else if (const char* v = FlagValue(arg, "--attack=")) {
      flags->attack = v;
    } else if (const char* v = FlagValue(arg, "--defense=")) {
      flags->defense = v;
    } else if (const char* v = FlagValue(arg, "--defense-threshold=")) {
      if (!ParseFinite(v, &flags->defense_threshold) ||
          *flags->defense_threshold <= 0.0) {
        fprintf(stderr,
                "--defense-threshold must be a finite Z > 0, got '%s'\n", v);
        return false;
      }
    } else if (const char* v = FlagValue(arg, "--n=")) {
      flags->n = static_cast<size_t>(atoll(v));
    } else if (const char* v = FlagValue(arg, "--domain=")) {
      flags->domain = static_cast<size_t>(atoll(v));
    } else if (const char* v = FlagValue(arg, "--eps=")) {
      flags->eps = atof(v);
    } else if (const char* v = FlagValue(arg, "--shards=")) {
      flags->shards = static_cast<size_t>(atoll(v));
    } else {
      fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return flags->list || !flags->scenario.empty() || !flags->attack.empty();
}

// Parses CHANNEL:KIND:FRACTION@TARGET (e.g. "grr:output:0.05@32") into an
// FO attack config; the run parameters come from the other flags.
Result<FoAttackConfig> ParseAttackFlag(const CliFlags& flags) {
  FoAttackConfig config;
  config.domain = flags.domain;
  config.epsilon = flags.eps;
  config.n = flags.n;
  config.shards = flags.shards;
  config.seed = flags.has_seed ? flags.seed : 42;
  config.threads = flags.threads;
  if (flags.defense_threshold) {
    config.defense.spike_z_threshold = *flags.defense_threshold;
  }
  const std::string& spec = flags.attack;
  const size_t c1 = spec.find(':');
  const size_t c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
  const size_t at = c2 == std::string::npos ? c2 : spec.find('@', c2 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos ||
      at == std::string::npos) {
    return Status::InvalidArgument(
        "--attack must be CHANNEL:KIND:FRACTION@TARGET, got '" + spec + "'");
  }
  NUMDIST_ASSIGN_OR_RETURN(config.channel,
                           ParseFoChannel(spec.substr(0, c1)));
  NUMDIST_ASSIGN_OR_RETURN(config.attack.kind,
                           ParseAttackKind(spec.substr(c1 + 1, c2 - c1 - 1)));
  char* parse_end = nullptr;
  const std::string frac = spec.substr(c2 + 1, at - c2 - 1);
  config.attack.fraction = std::strtod(frac.c_str(), &parse_end);
  if (frac.empty() || parse_end != frac.c_str() + frac.size()) {
    return Status::InvalidArgument("--attack: bad fraction '" + frac + "'");
  }
  const std::string target = spec.substr(at + 1);
  const long long parsed_target = std::strtoll(target.c_str(), &parse_end, 10);
  if (target.empty() || parse_end != target.c_str() + target.size() ||
      parsed_target < 0) {
    return Status::InvalidArgument("--attack: bad target '" + target + "'");
  }
  config.attack.target = static_cast<size_t>(parsed_target);
  return config;
}

// The FO attack mode: run, score against the honest cohort, print what the
// consistency detectors saw.
int RunAttackMode(const CliFlags& flags) {
  Result<FoAttackConfig> config = ParseAttackFlag(flags);
  if (!config.ok()) {
    fprintf(stderr, "error: %s\n", config.status().ToString().c_str());
    return 2;
  }
  Result<FoAttackResult> result = RunFoAttack(config.value());
  if (!result.ok()) {
    fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const FoAttackResult& r = result.value();
  const size_t t = config->attack.target;
  if (flags.csv) {
    printf(
        "channel,kind,fraction,target,n,honest,attacked,est_target,"
        "clean_target,atk_gain,mitigated_gain,def_sum_dev,def_neg_mass,"
        "def_spike_z,def_spike_bucket,def_flagged\n");
    printf("%s,%s,%.17g,%zu,%zu,%llu,%llu,%.17g,%.17g,%.17g,%.17g,%.17g,"
           "%.17g,%.17g,%zu,%d\n",
           std::string(FoChannelName(config->channel)).c_str(),
           std::string(AttackKindName(config->attack.kind)).c_str(),
           config->attack.fraction, t, config->n,
           static_cast<unsigned long long>(r.honest_reports),
           static_cast<unsigned long long>(r.attacked_reports),
           r.estimate[t], r.clean_truth[t], r.target_gain, r.mitigated_gain,
           r.defense.sum_deviation, r.defense.negative_mass,
           r.defense.max_spike_z, r.defense.spike_bucket,
           r.defense.flagged ? 1 : 0);
    return 0;
  }
  printf("fo-attack channel=%s kind=%s fraction=%g target=%zu\n",
         std::string(FoChannelName(config->channel)).c_str(),
         std::string(AttackKindName(config->attack.kind)).c_str(),
         config->attack.fraction, t);
  printf("  n=%zu honest=%llu attacked=%llu domain=%zu eps=%g shards=%zu "
         "seed=%llu\n",
         config->n, static_cast<unsigned long long>(r.honest_reports),
         static_cast<unsigned long long>(r.attacked_reports), config->domain,
         config->epsilon, config->shards,
         static_cast<unsigned long long>(config->seed));
  printf("  est[target]=%.6f clean[target]=%.6f atk_gain=%.6f "
         "mitigated_gain=%.6f\n",
         r.estimate[t], r.clean_truth[t], r.target_gain, r.mitigated_gain);
  printf("  defense: sum_dev=%.6f neg_mass=%.6f spike_z=%.2f "
         "spike_bucket=%zu flagged=%s\n",
         r.defense.sum_deviation, r.defense.negative_mass,
         r.defense.max_spike_z, r.defense.spike_bucket,
         r.defense.flagged ? "yes" : "no");
  return 0;
}

bool IsBuiltin(const std::string& name) {
  for (const std::string& builtin : BuiltinScenarioNames()) {
    if (name == builtin) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  if (!ParseCli(argc, argv, &flags)) {
    Usage();
    return 2;
  }
  if (flags.list) {
    for (const std::string& name : BuiltinScenarioNames()) {
      printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (!flags.attack.empty()) return RunAttackMode(flags);

  Result<ScenarioConfig> config = IsBuiltin(flags.scenario)
                                      ? BuiltinScenario(flags.scenario)
                                      : LoadScenarioFile(flags.scenario);
  if (!config.ok()) {
    fprintf(stderr, "error: %s\n", config.status().ToString().c_str());
    return 1;
  }
  if (flags.has_seed) config->seed = flags.seed;
  config->threads = flags.threads;
  if (flags.incremental) {
    config->incremental = *flags.incremental;
    if (!config->incremental) config->half_life = 0.0;
  }
  if (flags.half_life) config->half_life = *flags.half_life;
  if (!flags.defense.empty()) {
    if (flags.defense == "off") {
      config->defense = false;
    } else if (flags.defense == "consistency") {
      config->defense = true;
    } else {
      fprintf(stderr, "--defense must be off or consistency\n");
      return 2;
    }
  }
  if (flags.defense_threshold) {
    config->defense_options.spike_z_threshold = *flags.defense_threshold;
  }
  const Status valid = ValidateScenario(config.value());
  if (!valid.ok()) {
    fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 1;
  }

  if (flags.validate) {
    // LoadScenarioFile/BuiltinScenario already ran ValidateScenario; report
    // the parsed shape and exit without collecting anything (used by
    // tools/check_docs.py to keep documented examples loadable).
    printf("valid: scenario=%s d=%zu shards=%zu phases=%zu\n",
           config->name.c_str(), config->d, config->shards,
           config->phases.size());
    return 0;
  }

  Result<ScenarioResult> result = RunScenario(config.value());
  if (!result.ok()) {
    fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // The inc_*/atk_*/def_* columns appear only when their feature is on, so
  // default outputs stay byte-identical to previous releases (CI diffs
  // them).
  const bool inc = config->incremental;
  bool atk = false;
  for (const ScenarioPhase& phase : config->phases) {
    if (phase.attack.kind != AttackKind::kNone) atk = true;
  }
  const bool def = config->defense;
  if (flags.csv) {
    printf(
        "phase,checkpoint,epsilon,group_reports,total_reports,"
        "wasserstein,ks,em_iterations,em_converged%s%s%s\n",
        inc ? ",inc_wasserstein,inc_ks,inc_iterations,inc_total_iterations"
            : "",
        atk ? ",atk_reports,atk_gain" : "",
        def ? ",def_spike_z,def_spike_bucket,def_flagged" : "");
  } else {
    printf("scenario=%s seed=%llu d=%zu shards=%zu phases=%zu\n",
           config->name.c_str(),
           static_cast<unsigned long long>(config->seed), config->d,
           config->shards, config->phases.size());
    printf("%-12s %4s %7s %10s %10s %12s %12s %6s %s", "phase", "ckpt",
           "eps", "group_n", "total_n", "wasserstein", "ks", "iters", "conv");
    if (inc) {
      printf(" %12s %12s %9s %9s", "inc_wass", "inc_ks", "inc_iters",
             "inc_total");
    }
    if (atk) printf(" %10s %10s", "atk_n", "atk_gain");
    if (def) printf(" %9s %8s %7s", "def_z", "def_bkt", "def_flag");
    printf("\n");
  }
  for (const ScenarioCheckpoint& c : result->checkpoints) {
    if (flags.csv) {
      printf("%s,%zu,%.17g,%llu,%llu,%.17g,%.17g,%zu,%d", c.phase.c_str(),
             c.checkpoint_index, c.epsilon,
             static_cast<unsigned long long>(c.group_reports),
             static_cast<unsigned long long>(c.total_reports), c.wasserstein,
             c.ks, c.em_iterations, c.em_converged ? 1 : 0);
      if (inc) {
        printf(",%.17g,%.17g,%zu,%zu", c.inc_wasserstein, c.inc_ks,
               c.inc_em_iterations, c.inc_total_iterations);
      }
      if (atk) {
        printf(",%llu,%.17g", static_cast<unsigned long long>(c.atk_reports),
               c.atk_gain);
      }
      if (def) {
        printf(",%.17g,%zu,%d", c.def_spike_z, c.def_spike_bucket,
               c.def_flagged ? 1 : 0);
      }
      printf("\n");
    } else {
      printf("%-12s %4zu %7.3f %10llu %10llu %12.6f %12.6f %6zu %s",
             c.phase.c_str(), c.checkpoint_index, c.epsilon,
             static_cast<unsigned long long>(c.group_reports),
             static_cast<unsigned long long>(c.total_reports), c.wasserstein,
             c.ks, c.em_iterations, c.em_converged ? "yes" : "no");
      if (inc) {
        printf(" %12.6f %12.6f %9zu %9zu", c.inc_wasserstein, c.inc_ks,
               c.inc_em_iterations, c.inc_total_iterations);
      }
      if (atk) {
        printf(" %10llu %10.6f",
               static_cast<unsigned long long>(c.atk_reports), c.atk_gain);
      }
      if (def) {
        printf(" %9.2f %8zu %7s", c.def_spike_z, c.def_spike_bucket,
               c.def_flagged ? "yes" : "no");
      }
      printf("\n");
    }
  }
  if (flags.dump && !result->checkpoints.empty()) {
    const ScenarioCheckpoint& last = result->checkpoints.back();
    printf("\nfinal estimate (phase=%s checkpoint=%zu):\n", last.phase.c_str(),
           last.checkpoint_index);
    printf("bucket,estimate,truth\n");
    for (size_t i = 0; i < last.estimate.size(); ++i) {
      printf("%zu,%.8e,%.8e\n", i, last.estimate[i], last.truth[i]);
    }
  }
  return 0;
}
