#include "core/sw_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/histogram.h"

namespace numdist {

Result<SwEstimator> SwEstimator::Make(const SwEstimatorOptions& options) {
  if (!(options.epsilon > 0.0) || !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument(
        "SwEstimator: epsilon must be positive and finite");
  }
  if (options.d < 2) {
    return Status::InvalidArgument("SwEstimator: d must be >= 2");
  }
  const size_t d_out = options.d_out == 0 ? options.d : options.d_out;

  Result<SquareWave> sw = SquareWave::Make(options.epsilon);
  if (!sw.ok()) return sw.status();
  // The discrete mechanism's bandwidth is b*(eps) scaled to bucket units,
  // floor(b* d) (paper §5.4).
  Result<DiscreteSquareWave> dsw =
      DiscreteSquareWave::Make(options.epsilon, options.d);
  if (!dsw.ok()) return dsw.status();

  // EM runs through the analytic sliding-window operator, which reproduces
  // the dense transition matrix to ~1e-13 without ever materializing
  // O(d^2) state.
  SlidingWindowObservationModel model =
      options.pipeline == SwEstimatorOptions::Pipeline::kRandomizeBeforeBucketize
          ? SlidingWindowObservationModel::FromContinuous(sw.value(),
                                                          options.d, d_out)
          : SlidingWindowObservationModel::FromDiscrete(dsw.value());

  EmOptions em_options;
  em_options.smoothing = options.post == SwEstimatorOptions::Post::kEms;
  em_options.max_iterations = options.max_iterations;
  if (options.tol > 0.0) {
    em_options.tol = options.tol;
  } else {
    // Paper §6.1: tau = 1e-3 * e^eps for EM, 1e-3 for EMS (thresholds on the
    // total log-likelihood improvement).
    em_options.tol = em_options.smoothing
                         ? 1e-3
                         : 1e-3 * std::exp(options.epsilon);
  }

  SwEstimatorOptions resolved = options;
  resolved.d_out = d_out;
  return SwEstimator(resolved, std::move(sw).value(), std::move(dsw).value(),
                     std::move(model), em_options);
}

SwEstimator::SwEstimator(SwEstimatorOptions options, SquareWave sw,
                         DiscreteSquareWave dsw,
                         SlidingWindowObservationModel model,
                         EmOptions em_options)
    : options_(options),
      sw_(std::move(sw)),
      dsw_(std::move(dsw)),
      model_(std::move(model)),
      em_options_(em_options) {}

double SwEstimator::b() const { return sw_.b(); }

double SwEstimator::PerturbOne(double v, Rng& rng) const {
  assert(v >= 0.0 && v <= 1.0);
  if (options_.pipeline ==
      SwEstimatorOptions::Pipeline::kRandomizeBeforeBucketize) {
    return sw_.Perturb(v, rng);
  }
  const uint32_t bucket = static_cast<uint32_t>(
      std::min<size_t>(static_cast<size_t>(v * static_cast<double>(options_.d)),
                       options_.d - 1));
  return static_cast<double>(dsw_.Perturb(bucket, rng));
}

void SwEstimator::PerturbBatch(std::span<const double> values, Rng& rng,
                               std::vector<double>* out) const {
  out->resize(values.size());
  if (options_.pipeline ==
      SwEstimatorOptions::Pipeline::kRandomizeBeforeBucketize) {
    sw_.PerturbBatch(values, rng, out->data());
    return;
  }
  constexpr size_t kChunk = 512;
  uint32_t reports[kChunk];
  for (size_t i = 0; i < values.size(); i += kChunk) {
    const size_t m = std::min(kChunk, values.size() - i);
    PerturbDiscrete(values.subspan(i, m), rng, reports);
    for (size_t k = 0; k < m; ++k) {
      (*out)[i + k] = static_cast<double>(reports[k]);
    }
  }
}

void SwEstimator::PerturbBatchToBuckets(std::span<const double> values,
                                        Rng& rng, uint32_t* out) const {
  if (options_.pipeline ==
      SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize) {
    PerturbDiscrete(values, rng, out);
    return;
  }
  // The reports of one chunk live on the stack. Uniform draws are
  // sequential, so chunking leaves the stream exactly as one
  // SquareWave::PerturbBatch over the whole span would.
  constexpr size_t kChunk = 512;
  double reports[kChunk];
  for (size_t i = 0; i < values.size(); i += kChunk) {
    const size_t m = std::min(kChunk, values.size() - i);
    sw_.PerturbBatch(values.subspan(i, m), rng, reports);
    for (size_t k = 0; k < m; ++k) {
      out[i + k] = static_cast<uint32_t>(OutputBucketOf(reports[k]));
    }
  }
}

void SwEstimator::PerturbDiscrete(std::span<const double> values, Rng& rng,
                                  uint32_t* out) const {
  constexpr size_t kChunk = 512;
  uint32_t buckets[kChunk];
  const double d_scale = static_cast<double>(options_.d);
  for (size_t i = 0; i < values.size(); i += kChunk) {
    const size_t m = std::min(kChunk, values.size() - i);
    for (size_t k = 0; k < m; ++k) {
      const double v = values[i + k];
      assert(v >= 0.0 && v <= 1.0);
      buckets[k] = static_cast<uint32_t>(
          std::min<size_t>(static_cast<size_t>(v * d_scale), options_.d - 1));
    }
    dsw_.PerturbBatch(std::span<const uint32_t>(buckets, m), rng, out + i);
  }
}

std::vector<uint64_t> SwEstimator::Aggregate(
    const std::vector<double>& reports) const {
  if (options_.pipeline ==
      SwEstimatorOptions::Pipeline::kRandomizeBeforeBucketize) {
    return sw_.BucketizeReports(reports, options_.d_out);
  }
  std::vector<uint64_t> counts(dsw_.output_domain(), 0);
  for (double r : reports) {
    const size_t j = static_cast<size_t>(r);
    assert(j < counts.size());
    ++counts[j];
  }
  return counts;
}

size_t SwEstimator::OutputBucketOf(double report) const {
  if (options_.pipeline ==
      SwEstimatorOptions::Pipeline::kRandomizeBeforeBucketize) {
    return hist::BucketOf(report, options_.d_out, -sw_.b(), 1.0 + sw_.b());
  }
  const size_t j = static_cast<size_t>(report);
  assert(j < dsw_.output_domain());
  return j;
}

Result<EmResult> SwEstimator::Reconstruct(
    const std::vector<uint64_t>& counts) const {
  return EstimateEm(model_, counts, em_options_);
}

Result<std::vector<double>> SwEstimator::EstimateDistribution(
    const std::vector<double>& values, Rng& rng) const {
  if (values.empty()) {
    return Status::InvalidArgument("SwEstimator: no input values");
  }
  for (double v : values) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "SwEstimator: input values must be finite");
    }
  }
  std::vector<double> reports;
  reports.reserve(values.size());
  for (double v : values) reports.push_back(PerturbOne(v, rng));
  Result<EmResult> em = Reconstruct(Aggregate(reports));
  if (!em.ok()) return em.status();
  return std::move(em).value().estimate;
}

}  // namespace numdist
