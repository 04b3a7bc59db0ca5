#include "eval/runner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/executor.h"
#include "common/histogram.h"
#include "metrics/distance.h"
#include "metrics/queries.h"
#include "protocol/sharded.h"

namespace numdist {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Range-query MAE against a callable estimator (shared query points come
// from the caller's rng so truth and estimate see identical queries).
double RangeMaeAgainst(const std::vector<double>& truth,
                       const std::function<double(double, double)>& est,
                       double alpha, size_t num_queries, Rng& rng) {
  double acc = 0.0;
  for (size_t k = 0; k < num_queries; ++k) {
    const double lo = rng.Uniform() * (1.0 - alpha);
    acc += std::fabs(RangeQuery(truth, lo, alpha) - est(lo, alpha));
  }
  return acc / static_cast<double>(num_queries);
}

TrialMetrics EvaluateTrial(const MethodOutput& output,
                           const GroundTruth& truth,
                           const RunnerOptions& opts, Rng& rng) {
  TrialMetrics m;
  m.range_small = RangeMaeAgainst(truth.histogram, output.range_query,
                                  opts.alpha_small, opts.range_queries, rng);
  m.range_large = RangeMaeAgainst(truth.histogram, output.range_query,
                                  opts.alpha_large, opts.range_queries, rng);
  if (!output.distribution.empty()) {
    m.wasserstein = WassersteinDistance(truth.histogram, output.distribution);
    m.ks = KsDistance(truth.histogram, output.distribution);
    m.mean_err = std::fabs(truth.mean - HistMean(output.distribution));
    m.variance_err =
        std::fabs(truth.variance - HistVariance(output.distribution));
    m.quantile_err = QuantileMae(truth.histogram, output.distribution);
  } else {
    m.wasserstein = kNan;
    m.ks = kNan;
    m.mean_err = kNan;
    m.variance_err = kNan;
    m.quantile_err = kNan;
  }
  return m;
}

// Field-wise accumulation helpers (kept local; TrialMetrics is a plain
// record of doubles).
template <typename F>
void ForEachField(TrialMetrics& a, const TrialMetrics& b, F&& f) {
  f(a.wasserstein, b.wasserstein);
  f(a.ks, b.ks);
  f(a.range_small, b.range_small);
  f(a.range_large, b.range_large);
  f(a.mean_err, b.mean_err);
  f(a.variance_err, b.variance_err);
  f(a.quantile_err, b.quantile_err);
}

}  // namespace

GroundTruth ComputeGroundTruth(const std::vector<double>& values, size_t d) {
  GroundTruth truth;
  truth.histogram = hist::FromSamples(values, d);
  double mean = 0.0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size());
  truth.mean = mean;
  truth.variance = var;
  return truth;
}

Result<AggregateMetrics> RunTrials(const Protocol& protocol,
                                   const std::vector<double>& values,
                                   const GroundTruth& truth,
                                   const RunnerOptions& opts) {
  if (opts.trials == 0) {
    return Status::InvalidArgument("RunTrials: trials must be > 0");
  }
  if (values.empty()) {
    return Status::InvalidArgument("RunTrials: empty dataset");
  }
  if (truth.histogram.size() != protocol.granularity()) {
    return Status::InvalidArgument(
        "RunTrials: ground truth has " +
        std::to_string(truth.histogram.size()) + " buckets, " +
        protocol.name() + " reconstructs " +
        std::to_string(protocol.granularity()));
  }

  // The protocol is immutable, so trials and their shard workers share it
  // freely. Two-level parallelism budget on the shared executor: independent
  // trials (including the expensive reconstruction step) fan out first,
  // and whatever budget is left over caps each trial's nested shard
  // accumulation. Results depend on neither level's schedule — trial
  // streams are fixed by (seed, t), shard streams by (trial_seed, i), and
  // all outputs are keyed by trial index — so any (threads, trials)
  // combination and any work-stealing schedule reproduces the
  // single-threaded metrics exactly.
  const size_t threads = ResolveThreadCount(opts.threads);
  const size_t trial_workers = std::min(threads, opts.trials);
  ShardOptions shard_opts;
  shard_opts.shard_size = opts.shard_size;
  shard_opts.threads = std::max<size_t>(1, threads / trial_workers);

  std::vector<TrialMetrics> metrics(opts.trials);
  std::vector<Status> failures(opts.trials, Status::OK());
  Executor::Shared().ParallelFor(
      opts.trials, trial_workers, [&](size_t t, size_t /*slot*/) {
        // Independent, reproducible stream family per trial; the shard
        // layer derives one stream per shard below it.
        const uint64_t trial_seed = ShardSeed(opts.seed, t);
        Result<MethodOutput> out =
            RunProtocolSharded(protocol, values, trial_seed, shard_opts);
        if (!out.ok()) {
          failures[t] = out.status();
          return;
        }
        Rng query_rng(SplitMix64(opts.seed + 0x51ed2701 + t));
        metrics[t] = EvaluateTrial(out.value(), truth, opts, query_rng);
      });

  for (const Status& st : failures) {
    if (!st.ok()) return st;
  }

  AggregateMetrics agg;
  agg.trials = opts.trials;
  for (const TrialMetrics& m : metrics) {
    ForEachField(agg.mean, m, [](double& a, double b) { a += b; });
  }
  const double inv = 1.0 / static_cast<double>(opts.trials);
  ForEachField(agg.mean, agg.mean, [&](double& a, double) { a *= inv; });
  for (const TrialMetrics& m : metrics) {
    TrialMetrics diff = m;
    ForEachField(diff, agg.mean, [](double& a, double b) {
      const double delta = a - b;
      a = delta * delta;
    });
    ForEachField(agg.stddev, diff, [](double& a, double b) { a += b; });
  }
  ForEachField(agg.stddev, agg.stddev,
               [&](double& a, double) { a = std::sqrt(a * inv); });
  return agg;
}

}  // namespace numdist
