#include "eval/incremental.h"

#include <cmath>
#include <utility>

namespace numdist {

double ForgettingFactor(uint64_t delta_n, double half_life) {
  if (half_life == 0.0) return 1.0;
  return std::exp2(-static_cast<double>(delta_n) / half_life);
}

IncrementalReconstructor::IncrementalReconstructor(
    std::shared_ptr<const SwEstimator> estimator,
    const IncrementalOptions& options)
    : estimator_(std::move(estimator)),
      options_(options),
      em_options_(estimator_->em_options()) {
  if (options_.max_iterations_per_update > 0) {
    em_options_.max_iterations = options_.max_iterations_per_update;
  }
}

Result<IncrementalReconstructor> IncrementalReconstructor::Make(
    std::shared_ptr<const SwEstimator> estimator,
    const IncrementalOptions& options) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("IncrementalReconstructor: null estimator");
  }
  if (!(options.half_life >= 0.0) || !std::isfinite(options.half_life)) {
    return Status::InvalidArgument(
        "IncrementalReconstructor: half_life must be finite and >= 0");
  }
  return IncrementalReconstructor(std::move(estimator), options);
}

Result<EmResult> IncrementalReconstructor::UpdateFromTotals(
    const std::vector<uint64_t>& totals, uint64_t n) {
  const size_t buckets = estimator_->output_buckets();
  if (totals.size() != buckets) {
    return Status::InvalidArgument(
        "IncrementalReconstructor: totals size does not match the "
        "estimator's output buckets");
  }
  if (n < reports_seen_) {
    return Status::InvalidArgument(
        "IncrementalReconstructor: cumulative report count went backwards");
  }
  if (!prev_totals_.empty()) {
    for (size_t j = 0; j < buckets; ++j) {
      if (totals[j] < prev_totals_[j]) {
        return Status::InvalidArgument(
            "IncrementalReconstructor: cumulative totals went backwards");
      }
    }
  }

  // Decay the window by the number of reports that arrived since the
  // last update, then absorb the new delta at full weight. The first
  // update seeds the window with the whole history (an empty window),
  // matching a collector that starts estimating late. With no half-life
  // lambda is 1 and every delta is an exact integer below 2^53, so the
  // window equals the cumulative totals bit for bit.
  const double lambda = ForgettingFactor(n - reports_seen_, options_.half_life);
  window_.resize(buckets, 0.0);
  for (size_t j = 0; j < buckets; ++j) {
    const uint64_t prev = prev_totals_.empty() ? 0 : prev_totals_[j];
    window_[j] = lambda * window_[j] + static_cast<double>(totals[j] - prev);
  }
  // The window has absorbed these totals whether or not EM succeeds, so
  // the rolling state advances with it: a failed run leaves only the
  // checkpoint as it was, and the next update adds just its own delta.
  prev_totals_ = totals;
  reports_seen_ = n;
  Result<EmResult> run = EstimateEmWeighted(estimator_->model(), window_,
                                            em_options_, &checkpoint_);
  if (run.ok()) updates_ += 1;
  return run;
}

}  // namespace numdist
