// Experiment runner: repeats (method x dataset x epsilon) trials and
// aggregates every §3 utility metric. All figure benches are thin loops
// over RunTrials.
//
// Execution model: the caller builds one Protocol per (method, epsilon, d)
// (wire::MakeProtocolForSpec over a kTable2Suite name) and every trial of
// a RunTrials call shares it. The thread budget is split on two
// levels: independent trials (including the expensive reconstruction step)
// run in parallel, and each trial cuts the value stream into fixed-size
// shards — shard i is encoded+perturbed with its own RNG stream seeded by
// mix(trial_seed, i), shard workers fold into per-thread accumulators, and
// the accumulators are merged once before a single reconstruction. Because
// trial streams depend only on (seed, trial) and shard layout/seeds only on
// (trial_seed, shard_size) — never on the thread count at either level — a
// fixed-seed run produces bit-identical metrics for 1 or N threads.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "protocol/protocol.h"

namespace numdist {

/// The suite the paper evaluates (Table 2), as wire::ParseMethodSpec names
/// in display order. Their protocols are named SW-EMS, SW-EM, HH-ADMM,
/// CFO-bin-16/32/64, HH and HaarHRR; the last two answer range queries
/// only (Protocol::yields_distribution() is false).
inline constexpr std::array<const char*, 8> kTable2Suite = {
    "sw-ems", "sw-em", "hh-admm", "cfo-16",
    "cfo-32", "cfo-64", "hh",     "haar-hrr"};

/// All §3 metrics for one trial. Distribution metrics are NaN when the
/// method yields no valid distribution (HH, HaarHRR).
struct TrialMetrics {
  double wasserstein = 0.0;
  double ks = 0.0;
  double range_small = 0.0;   ///< MAE of random range queries, alpha small
  double range_large = 0.0;   ///< MAE of random range queries, alpha large
  double mean_err = 0.0;      ///< |mu - mu^|
  double variance_err = 0.0;  ///< |sigma^2 - sigma^2^|
  double quantile_err = 0.0;  ///< mean |Q(beta) - Q^(beta)| over deciles
};

/// Mean and standard deviation of metrics across trials.
struct AggregateMetrics {
  TrialMetrics mean;
  TrialMetrics stddev;
  size_t trials = 0;
};

/// Trial-loop configuration.
struct RunnerOptions {
  size_t trials = 5;
  uint64_t seed = 42;
  /// Worker threads sharding each trial's report stream; 0 = hardware
  /// concurrency. The thread count never changes the results.
  size_t threads = 0;
  /// Values per report shard (see protocol/sharded.h).
  size_t shard_size = 8192;
  double alpha_small = 0.1;
  double alpha_large = 0.4;
  /// Random range queries per trial per alpha.
  size_t range_queries = 200;
};

/// Ground truth for an experiment: the dataset's exact histogram and moments.
struct GroundTruth {
  std::vector<double> histogram;  // d buckets
  double mean = 0.0;
  double variance = 0.0;
};

/// Computes the exact ground truth for `values` at granularity d
/// (moments from the raw values, not the histogram).
GroundTruth ComputeGroundTruth(const std::vector<double>& values, size_t d);

/// Runs `opts.trials` independent executions of `protocol` and aggregates
/// the metrics against the ground truth, which must have
/// protocol.granularity() buckets. Deterministic for a fixed seed,
/// independent of opts.threads.
Result<AggregateMetrics> RunTrials(const Protocol& protocol,
                                   const std::vector<double>& values,
                                   const GroundTruth& truth,
                                   const RunnerOptions& opts);

}  // namespace numdist
