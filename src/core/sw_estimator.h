// End-to-end Square Wave distribution estimator — the library's primary
// public API. Wires together: SW reporting (continuous R-B or discrete B-R),
// report bucketization, the analytic O(d) transition operator, and EM/EMS
// reconstruction (paper §5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/em.h"
#include "core/observation_model.h"
#include "core/square_wave.h"

namespace numdist {

/// Configuration of the end-to-end SW estimator.
struct SwEstimatorOptions {
  /// Privacy budget (> 0).
  double epsilon = 1.0;
  /// Number of input histogram buckets.
  size_t d = 1024;
  /// Number of output (report) buckets; 0 means equal to d (paper default).
  size_t d_out = 0;
  /// Wave half-width; < 0 selects the mutual-information-optimal b*(eps).
  double b = -1.0;
  /// Post-processing: EMS (recommended) or plain EM.
  enum class Post { kEms, kEm } post = Post::kEms;
  /// Report pipeline: continuous "randomize before bucketize" (paper's
  /// experimental default) or discrete "bucketize before randomize".
  enum class Pipeline { kRandomizeBeforeBucketize, kBucketizeBeforeRandomize }
      pipeline = Pipeline::kRandomizeBeforeBucketize;
  /// EM iteration controls. `tol` <= 0 selects the paper defaults
  /// (1e-3 for EMS, 1e-3 * e^eps for EM).
  double tol = -1.0;
  size_t max_iterations = 10000;
};

/// \brief One-stop SW + EM/EMS distribution estimator.
///
/// Typical usage (aggregator side owns the estimator; each client calls
/// PerturbOne with its own value and sends the report):
/// \code
///   auto est = SwEstimator::Make({.epsilon = 1.0, .d = 256}).ValueOrDie();
///   std::vector<double> reports;  // collected from clients
///   for (double v : private_values) reports.push_back(est.PerturbOne(v, rng));
///   auto dist = est.Reconstruct(est.Aggregate(reports)).ValueOrDie();
/// \endcode
class SwEstimator {
 public:
  /// Validates options and builds the estimator. O(1): the transition is
  /// the analytic operator, never a materialized matrix.
  static Result<SwEstimator> Make(const SwEstimatorOptions& options);

  /// Client-side report for one private value v in [0, 1]. For the
  /// continuous pipeline the report is a real in [-b, 1+b]; for the discrete
  /// pipeline it is an output bucket index (stored in the double).
  double PerturbOne(double v, Rng& rng) const;

  /// Bulk client encode: perturbs values[i] into (*out)[i] (resized to
  /// values.size()). The continuous pipeline is bit-identical to a
  /// PerturbOne loop on the same stream (SquareWave::PerturbBatch); the
  /// discrete pipeline uses the single-draw bulk path
  /// (DiscreteSquareWave::PerturbBatch), whose draw order differs from the
  /// per-value loop while the report channel is unchanged.
  void PerturbBatch(std::span<const double> values, Rng& rng,
                    std::vector<double>* out) const;

  /// Bulk client encode straight to output buckets: out[i] is
  /// OutputBucketOf the report PerturbBatch draws for values[i] from the
  /// same stream, so counting `out` equals Aggregate over PerturbBatch's
  /// reports. Bucketizing an eps-LDP report is post-processing; this is
  /// what SW report frames carry. `out` holds values.size() entries.
  void PerturbBatchToBuckets(std::span<const double> values, Rng& rng,
                             uint32_t* out) const;

  /// Server-side: histogram of raw reports over the output buckets.
  std::vector<uint64_t> Aggregate(const std::vector<double>& reports) const;

  /// Output bucket index of a single report — the O(1) per-report
  /// primitive behind Aggregate and PerturbBatchToBuckets, used by the
  /// scenario engine's shard counts so one report never allocates a
  /// histogram.
  size_t OutputBucketOf(double report) const;

  /// Server-side: reconstructs the d-bucket input distribution from
  /// aggregated output counts via EM or EMS.
  Result<EmResult> Reconstruct(const std::vector<uint64_t>& counts) const;

  /// Convenience one-shot pipeline: perturb every value, aggregate,
  /// reconstruct. Returns the reconstructed distribution.
  Result<std::vector<double>> EstimateDistribution(
      const std::vector<double>& values, Rng& rng) const;

  /// The analytic sliding-window transition operator EM iterates with
  /// (output_buckets() x d).
  const ObservationModel& model() const { return model_; }
  const SwEstimatorOptions& options() const { return options_; }
  /// The resolved EM iteration controls (paper-default tolerances applied).
  /// IncrementalReconstructor budgets its per-update runs from these.
  const EmOptions& em_options() const { return em_options_; }
  /// Resolved wave half-width (continuous scale).
  double b() const;
  /// Number of output buckets actually used: options().d_out for the
  /// continuous pipeline, d + 2b for the discrete one.
  size_t output_buckets() const { return model_.rows(); }

 private:
  SwEstimator(SwEstimatorOptions options, SquareWave sw,
              DiscreteSquareWave dsw, SlidingWindowObservationModel model,
              EmOptions em_options);

  /// The discrete pipeline's bulk encode: bucketizes each input into one
  /// of d buckets and randomizes it; the report is its output bucket.
  void PerturbDiscrete(std::span<const double> values, Rng& rng,
                       uint32_t* out) const;

  SwEstimatorOptions options_;
  SquareWave sw_;           // used by the continuous pipeline
  DiscreteSquareWave dsw_;  // used by the discrete pipeline
  // Analytic q-background + box-kernel view of the transition used by EM:
  // O(d + d_out) per product, bandwidth-independent, never materialized
  // (see observation_model.h).
  SlidingWindowObservationModel model_;
  EmOptions em_options_;
};

}  // namespace numdist
