// Observation-model abstraction for EM/EMS.
//
// EM only needs y = M x and x = M^T z products, so the Square Wave
// transition never has to be materialized: it is a constant background q
// plus a shifted box kernel of height p - q (a Toeplitz convolution), and
// both products collapse to O(d + d_out) running prefix sums independent
// of the wave bandwidth. That is the SlidingWindowObservationModel, the
// operator SwEstimator reconstructs through. The dense model keeps EM
// usable with arbitrary matrices: the general wave shapes of the fig5 /
// fig6 ablations, and tests that build the SW matrix themselves to
// cross-check the analytic operator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "core/square_wave.h"

namespace numdist {

/// Shared E-step epilogue: given the prediction y = M x and the observed
/// counts, fills weights[j] = counts[j] / max(y[j], 1e-300) (0 where
/// counts[j] == 0) and returns the total log-likelihood
/// sum_j counts[j] log max(y[j], 1e-300). One definition used by every
/// EmSweep path so scalar and vector dispatch can never diverge here.
/// Counts are doubles so the incremental path can feed exponentially
/// decayed (fractional) counts; integer histograms convert exactly
/// (uint64 -> double is lossless below 2^53), so the converted path is
/// bit-identical to the historical integer one.
double EmWeightsFromPrediction(const std::vector<double>& counts,
                               const std::vector<double>& y,
                               std::vector<double>* weights);

/// \brief Minimal linear-operator interface consumed by EM.
class ObservationModel {
 public:
  virtual ~ObservationModel() = default;
  /// Output dimension (number of report buckets).
  virtual size_t rows() const = 0;
  /// Input dimension (number of histogram buckets).
  virtual size_t cols() const = 0;
  /// y = M x (y has rows() entries; x has cols() entries).
  virtual void Apply(const std::vector<double>& x,
                     std::vector<double>* y) const = 0;
  /// out = M^T z (out has cols() entries; z has rows() entries).
  virtual void ApplyTranspose(const std::vector<double>& z,
                              std::vector<double>* out) const = 0;

  /// One fused EM E-step sweep: y = M x, weights = counts ⊘ y (per
  /// EmWeightsFromPrediction), mtw = M^T weights; returns the
  /// log-likelihood of x. The default is the straightforward three-pass
  /// composition (right for the O(d) structured operators). The dense
  /// model overrides it with a single pass over the rows: the weight for
  /// output bucket j is pointwise in y_j, so each row can be dotted,
  /// weighted, and folded into mtw while it is still cache-hot — halving
  /// the matrix traffic that bounds dense EM throughput. The override is
  /// bit-identical to the three-pass composition: the same per-row Dot,
  /// the same weight formula in the same order, and the same per-row Axpy
  /// fold skipping zero weights. All three outputs are resized by the sweep;
  /// passing correctly sized buffers keeps it allocation-free.
  virtual double EmSweep(const std::vector<double>& x,
                         const std::vector<double>& counts,
                         std::vector<double>* y, std::vector<double>* weights,
                         std::vector<double>* mtw) const;
};

/// \brief Dense fallback: wraps a Matrix, either owned (moved or copied
/// in) or explicitly borrowed through the pointer constructor (the
/// caller's matrix must outlive the model; this is what keeps
/// EstimateEm-from-Matrix from copying an O(d^2) operand per
/// reconstruction).
class DenseObservationModel final : public ObservationModel {
 public:
  /// Owning: stores its own copy of the matrix (moved in from rvalues).
  explicit DenseObservationModel(Matrix m)
      : owned_(std::move(m)), m_(owned_) {}
  /// Non-owning view of `*m`, which must outlive the model. The pointer
  /// spelling is deliberate: borrowing is visible at the call site, and
  /// an lvalue Matrix never silently switches from copy to borrow.
  explicit DenseObservationModel(const Matrix* m) : m_(*m) {}

  DenseObservationModel(const DenseObservationModel&) = delete;
  DenseObservationModel& operator=(const DenseObservationModel&) = delete;

  size_t rows() const override { return m_.rows(); }
  size_t cols() const override { return m_.cols(); }
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;
  void ApplyTranspose(const std::vector<double>& z,
                      std::vector<double>* out) const override;
  double EmSweep(const std::vector<double>& x,
                 const std::vector<double>& counts, std::vector<double>* y,
                 std::vector<double>* weights,
                 std::vector<double>* mtw) const override;

  const Matrix& matrix() const { return m_; }

 private:
  Matrix owned_;
  const Matrix& m_;
};

/// \brief Analytic SW/DSW transition operator: constant background q plus a
/// shifted box kernel of height p - q (paper §4-5).
///
/// The dense transition matrix is never materialized. Both products run in
/// O(d + d_out) time and O(1) scratch, independent of the wave bandwidth:
///  - discrete pipeline: M(j, i) = q + (p - q) [i <= j <= i + 2b], so
///    y_j = q sum(x) + (p - q) * (sliding window sum over x) via two running
///    prefix accumulators;
///  - continuous pipeline: M(j, i) = q w_out + (p - q) / w_in * overlap(j, i)
///    where overlap is the exact box/rectangle double integral. Summing
///    columns against x turns the overlap sum into interval integrals of the
///    piecewise-linear CDF of x, evaluated by two monotone cursors (the
///    boundary columns come out in closed form — no special-casing).
///
/// Agrees with the dense TransitionMatrix() operator to ~1e-13 (fp
/// regrouping only). Stateless apart from parameters: concurrent Apply
/// calls from reconstruction threads are safe.
class SlidingWindowObservationModel final : public ObservationModel {
 public:
  /// Operator for SquareWave::TransitionMatrix(d_in, d_out) (the
  /// randomize-before-bucketize pipeline).
  static SlidingWindowObservationModel FromContinuous(const SquareWave& sw,
                                                      size_t d_in,
                                                      size_t d_out);
  /// Operator for DiscreteSquareWave::TransitionMatrix() (the
  /// bucketize-before-randomize pipeline).
  static SlidingWindowObservationModel FromDiscrete(
      const DiscreteSquareWave& dsw);

  size_t rows() const override { return rows_; }
  size_t cols() const override { return cols_; }
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;
  void ApplyTranspose(const std::vector<double>& z,
                      std::vector<double>* out) const override;

 private:
  SlidingWindowObservationModel() = default;

  bool discrete_ = false;
  size_t rows_ = 0;
  size_t cols_ = 0;
  double p_ = 0.0;
  double q_ = 0.0;
  // Continuous parameters.
  double b_ = 0.0;      // wave half-width
  double w_in_ = 0.0;   // input bucket width (1 / d)
  double w_out_ = 0.0;  // output bucket width ((1 + 2b) / d_out)
  // Discrete parameter: wave half-width in buckets.
  size_t db_ = 0;
};

}  // namespace numdist
