#include "core/em.h"

#include <cmath>
#include <limits>

#include "common/histogram.h"
#include "kernels/kernels.h"

namespace numdist {

void BinomialSmooth(std::vector<double>* x) {
  const size_t d = x->size();
  if (d < 3) return;
  std::vector<double>& v = *x;
  double prev = v[0];
  const double first = (2.0 * v[0] + v[1]) / 3.0;
  for (size_t i = 1; i + 1 < d; ++i) {
    const double cur = v[i];
    v[i] = 0.25 * prev + 0.5 * cur + 0.25 * v[i + 1];
    prev = cur;
  }
  v[d - 1] = (prev + 2.0 * v[d - 1]) / 3.0;
  v[0] = first;
  hist::Normalize(x);
}

namespace {

// Fills the starting iterate: uniform (cold), or the checkpointed fixed
// point floored at 1e-12 / d and renormalized (warm). The floor keeps a
// coordinate that a previous run drove to an exact zero — an absorbing
// state of the multiplicative update — able to recover mass after the
// snapshot grows; the renormalization makes the warm iterate a proper
// distribution regardless of accumulated rounding. Deterministic: the
// warm iterate is a pure function of the checkpoint.
void InitIterate(size_t d, const std::vector<double>* warm,
                 std::vector<double>* x) {
  if (warm == nullptr || warm->size() != d) {
    x->assign(d, 1.0 / static_cast<double>(d));
    return;
  }
  const double floor = 1e-12 / static_cast<double>(d);
  x->resize(d);
  double total = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double v = (*warm)[i];
    (*x)[i] = (std::isfinite(v) && v > floor) ? v : floor;
    total += (*x)[i];
  }
  kernels::Scale(x->data(), 1.0 / total, d);
}

// The fixed-point iteration (paper Algorithm 1), once the counts are
// validated doubles. Each step runs the model's fused E-step sweep (one
// matrix pass on the dense model), then the M step through the dispatched
// kernels: next = normalized x ⊙ (M^T w), smoothed for EMS. The kernels'
// fixed operation order is identical under scalar and vector dispatch.
// Every workspace is sized here, so the loop performs no heap
// allocations. The warm start is copied out of the checkpoint before the
// loop, and the checkpoint takes the outcome only after it.
Result<EmResult> RunEm(const ObservationModel& model,
                       const std::vector<double>& counts,
                       const EmOptions& opts, EmCheckpoint* checkpoint) {
  const size_t d = model.cols();
  const std::vector<double>* warm =
      (checkpoint != nullptr && checkpoint->warm()) ? &checkpoint->estimate
                                                    : nullptr;
  std::vector<double> y(model.rows(), 0.0);
  std::vector<double> weights(model.rows(), 0.0);
  EmResult result;
  InitIterate(d, warm, &result.estimate);
  std::vector<double> next(d, 0.0);

  double prev_ll = -std::numeric_limits<double>::infinity();
  for (size_t iter = 1; iter <= opts.max_iterations; ++iter) {
    const double ll =
        model.EmSweep(result.estimate, counts, &y, &weights, &next);
    const double total =
        kernels::MulAndSum(next.data(), result.estimate.data(), d);
    if (total <= 0.0) {
      return Status::Internal("EM: estimate collapsed to zero mass");
    }
    kernels::Scale(next.data(), 1.0 / total, next.size());
    if (opts.smoothing) BinomialSmooth(&next);
    std::swap(result.estimate, next);

    result.iterations = iter;
    result.log_likelihood = ll;
    if (iter >= opts.min_iterations && ll - prev_ll < opts.tol &&
        std::isfinite(prev_ll)) {
      result.converged = true;
      break;
    }
    prev_ll = ll;
  }
  if (checkpoint != nullptr) {
    checkpoint->estimate = result.estimate;
    checkpoint->total_iterations += result.iterations;
    checkpoint->runs += 1;
    checkpoint->log_likelihood = result.log_likelihood;
  }
  return result;
}

}  // namespace

Result<EmResult> EstimateEmWeighted(const ObservationModel& model,
                                    const std::vector<double>& counts,
                                    const EmOptions& opts,
                                    EmCheckpoint* checkpoint) {
  const size_t d_out = model.rows();
  const size_t d = model.cols();
  if (d == 0 || d_out == 0) {
    return Status::InvalidArgument("EM: empty observation model");
  }
  if (counts.size() != d_out) {
    return Status::InvalidArgument("EM: counts size != model rows");
  }
  double n = 0.0;
  for (double c : counts) {
    if (!std::isfinite(c) || c < 0.0) {
      return Status::InvalidArgument("EM: counts must be finite and >= 0");
    }
    n += c;
  }
  if (n <= 0.0) {
    return Status::InvalidArgument("EM: no observations");
  }
  if (!(opts.tol >= 0.0)) {
    return Status::InvalidArgument("EM: tol must be >= 0");
  }
  return RunEm(model, counts, opts, checkpoint);
}

Result<EmResult> EstimateEm(const ObservationModel& model,
                            const std::vector<uint64_t>& counts,
                            const EmOptions& opts, EmCheckpoint* checkpoint) {
  // One exact uint64 -> double conversion per call; every count the system
  // produces is far below 2^53, so the converted run is bit-identical to
  // the historical integer path.
  std::vector<double> weighted(counts.size());
  for (size_t j = 0; j < counts.size(); ++j) {
    weighted[j] = static_cast<double>(counts[j]);
  }
  return EstimateEmWeighted(model, weighted, opts, checkpoint);
}

Result<EmResult> EstimateEm(const Matrix& m,
                            const std::vector<uint64_t>& counts,
                            const EmOptions& opts, EmCheckpoint* checkpoint) {
  const DenseObservationModel model(&m);  // borrowed; m outlives the call
  return EstimateEm(model, counts, opts, checkpoint);
}

}  // namespace numdist
