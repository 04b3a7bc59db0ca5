// Scenario engine throughput: end-to-end reports/s (mixture sampling +
// SW perturbation + streaming ingestion + checkpoint merge/snapshot) for
// the built-in drift scenario across shard counts and thread budgets.
//
//   scenario_throughput [--reports=N] [--threads=W] [--incremental]
//                       [--attack]
//
// --attack appends the adversarial table: RunFoAttack (scenario/attack.h)
// across the GRR/OLH/OUE channels with a 5% output-poisoning cohort,
// reporting end-to-end poisoned-collection throughput plus the measured
// attack gain and the consistency defense's verdict.
//
// --incremental appends the drift-tracking table: the drift scenario rerun
// with incremental EM (scenario/scenario.h ScenarioConfig::incremental)
// across a sweep of forgetting half-lives. The half-life is the estimate's
// effective lag behind the drifting population, so the table is the
// error-vs-lag curve: window_err (distance to the equally-forgotten truth)
// rises as the window stretches over more drift, while inc_iters shows the
// EM budget the rolling warm starts actually spent.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "scenario/attack.h"
#include "scenario/scenario.h"

using namespace numdist;

int main(int argc, char** argv) {
  size_t reports = 200000;
  size_t threads = 0;
  bool incremental = false;
  bool attack = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--reports=", 0) == 0) {
      reports = static_cast<size_t>(atoll(arg.c_str() + 10));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<size_t>(atoll(arg.c_str() + 10));
    } else if (arg == "--incremental") {
      incremental = true;
    } else if (arg == "--attack") {
      attack = true;
    } else {
      fprintf(stderr,
              "usage: scenario_throughput [--reports=N] [--threads=W]"
              " [--incremental] [--attack]\n");
      return 2;
    }
  }

  printf("%-8s %10s %12s %14s\n", "shards", "reports", "wall_ms",
         "reports_per_s");
  for (size_t shards : {1, 2, 4, 8, 16}) {
    ScenarioConfig config = BuiltinScenario("drift").ValueOrDie();
    config.shards = shards;
    config.threads = threads;
    // Scale the drift preset's phases to the requested volume, keeping the
    // 1:2 warmup/drift split.
    config.phases[0].reports = reports / 3;
    config.phases[1].reports = reports - config.phases[0].reports;

    const auto start = std::chrono::steady_clock::now();
    const ScenarioResult result = RunScenario(config).ValueOrDie();
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    printf("%-8zu %10llu %12.1f %14.0f\n", shards,
           static_cast<unsigned long long>(result.total_reports), ms,
           1000.0 * static_cast<double>(result.total_reports) / ms);
  }

  if (attack) {
    // Poisoned collection end to end: perturb + craft + shard merge +
    // debias + norm-sub + consistency scan. The gain/def columns make the
    // bench double as a standing record of attack effectiveness.
    printf("\nadversarial collection, 5%% output poisoning, d=64:\n");
    printf("%-10s %10s %12s %14s %10s %9s\n", "channel", "reports",
           "wall_ms", "reports_per_s", "atk_gain", "def_flag");
    for (const FoChannel channel :
         {FoChannel::kGrr, FoChannel::kOlh, FoChannel::kOue}) {
      FoAttackConfig config;
      config.channel = channel;
      config.attack.kind = AttackKind::kOutputPoison;
      config.attack.fraction = 0.05;
      config.attack.target = 32;
      config.domain = 64;
      config.epsilon = 1.0;
      config.n = reports;
      config.shards = 4;
      config.threads = threads;
      const auto start = std::chrono::steady_clock::now();
      const FoAttackResult result = RunFoAttack(config).ValueOrDie();
      const auto end = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(end - start).count();
      printf("%-10s %10llu %12.1f %14.0f %10.4f %9s\n",
             std::string(FoChannelName(channel)).c_str(),
             static_cast<unsigned long long>(config.n), seconds * 1000.0,
             static_cast<double>(config.n) / seconds, result.target_gain,
             result.defense.flagged ? "yes" : "no");
    }
    // The scenario engine's SW attack path (the poison builtin), scaled to
    // the requested volume.
    {
      ScenarioConfig config = BuiltinScenario("poison").ValueOrDie();
      config.threads = threads;
      config.phases[0].reports = reports / 2;
      config.phases[1].reports = reports - config.phases[0].reports;
      const auto start = std::chrono::steady_clock::now();
      const ScenarioResult result = RunScenario(config).ValueOrDie();
      const auto end = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(end - start).count();
      const uint64_t n = result.total_reports;
      printf("%-10s %10llu %12.1f %14.0f %10.4f %9s\n", "sw-poison",
             static_cast<unsigned long long>(n), seconds * 1000.0,
             static_cast<double>(n) / seconds,
             result.checkpoints.back().atk_gain,
             result.checkpoints.back().def_flagged ? "yes" : "no");
    }
  }

  if (incremental) {
    // Error-vs-lag: mean Wasserstein over the drift phase's checkpoints,
    // measured against the window each estimate claims to represent
    // (window_err) and against all history (cold_err, the per-checkpoint
    // cold snapshot). inc_iters is the incremental path's total EM budget.
    printf("\ndrift tracking, forgetting EM over the drift scenario:\n");
    printf("%-12s %12s %12s %12s %12s\n", "half_life", "window_err",
           "cold_err", "inc_iters", "cold_iters");
    for (const double half_life : {0.125, 0.25, 0.5, 1.0}) {
      ScenarioConfig config = BuiltinScenario("drift").ValueOrDie();
      config.threads = threads;
      config.phases[0].reports = reports / 3;
      config.phases[1].reports = reports - config.phases[0].reports;
      config.incremental = true;
      // Half-life as a fraction of the drift phase: the lag axis.
      config.half_life =
          half_life * static_cast<double>(config.phases[1].reports);
      const ScenarioResult result = RunScenario(config).ValueOrDie();
      double window_err = 0.0;
      double cold_err = 0.0;
      size_t drift_checkpoints = 0;
      size_t inc_iters = 0;
      size_t cold_iters = 0;
      for (const ScenarioCheckpoint& c : result.checkpoints) {
        cold_iters += c.em_iterations;
        inc_iters = c.inc_total_iterations;  // cumulative; keep the last
        if (c.phase_index == 1) {
          window_err += c.inc_wasserstein;
          cold_err += c.wasserstein;
          ++drift_checkpoints;
        }
      }
      if (drift_checkpoints > 0) {
        window_err /= static_cast<double>(drift_checkpoints);
        cold_err /= static_cast<double>(drift_checkpoints);
      }
      printf("%-12.0f %12.6f %12.6f %12zu %12zu\n", config.half_life,
             window_err, cold_err, inc_iters, cold_iters);
    }
  }
  return 0;
}
