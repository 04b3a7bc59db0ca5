// Observation-model abstraction for EM/EMS.
//
// EM only needs y = M x and x = M^T z products, so the Square Wave
// transition never has to be materialized: it is a constant background q
// plus a shifted box kernel of height p - q (a Toeplitz convolution), and
// both products collapse to one prefix sum plus O(d + d_out) independent
// rows, whatever the wave bandwidth. That is the
// SlidingWindowObservationModel, the operator SwEstimator reconstructs
// through, for both SW pipelines. The dense model keeps EM usable with
// arbitrary matrices: the general wave shapes of the fig5 ablation, and
// tests that build the SW matrix themselves to cross-check the analytic
// operator.
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
/// counts[j] == 0) and, when `with_log_likelihood`, returns the total
/// log-likelihood sum_j counts[j] log max(y[j], 1e-300) (else 0: the
/// logs are most of the epilogue's cost, and EM reads them only where its
/// stopping rule does). The weights are the same either way. One
/// definition used by every EmSweep path so scalar and vector dispatch
/// can never diverge here. Counts are doubles so the incremental path can
/// feed exponentially decayed (fractional) counts; integer histograms
/// convert exactly (uint64 -> double is lossless below 2^53), so the
/// converted path is bit-identical to the historical integer one.
double EmWeightsFromPrediction(const std::vector<double>& counts,
                               const std::vector<double>& y,
                               std::vector<double>* weights,
                               bool with_log_likelihood);

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
  /// log-likelihood of x when `with_log_likelihood`, else 0 (the other
  /// outputs are the same bits either way). The default is the
  /// straightforward three-pass composition (right for the O(d)
  /// structured operators). The dense
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
                         std::vector<double>* mtw,
                         bool with_log_likelihood) const;
};

/// \brief Dense fallback: a non-owning view of a Matrix, which must
/// outlive the model (this is what keeps EstimateEm-from-Matrix from
/// copying an O(d^2) operand per reconstruction). The pointer spelling
/// makes the borrow visible at the call site.
class DenseObservationModel final : public ObservationModel {
 public:
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
                 std::vector<double>* weights, std::vector<double>* mtw,
                 bool with_log_likelihood) const override;

 private:
  const Matrix& m_;
};

/// \brief Analytic SW/DSW transition operator: constant background q plus a
/// shifted box kernel of height p - q (paper §4-5).
///
/// The dense transition matrix is never materialized. Both pipelines, in
/// both directions, run one form: a fixed-order prefix sum P of the input,
/// then independent banded rows (the dispatched BandRows kernel,
/// bit-identical across ISA tiers), O(d + d_out) in all:
///   y_j = background sum(x) + height (P[hi_j] - P[lo_j])
///         + sum over edge buckets i of c_ji x_i,
/// [lo_j, hi_j) the interior buckets, all at one height.
///  - discrete pipeline: M(j, i) = q + (p - q) [i <= j <= i + 2b], so the
///    background is q, the height p - q, and row j of M is the interior
///    [max(0, j - 2b), min(j + 1, d)), row i of M^T the interior
///    [i, i + 2b + 1). Every bucket of a box is interior: no row has edges.
///  - continuous pipeline: M(j, i) = q w_out + (p - q) / w_in * overlap(j, i),
///    overlap the exact box/rectangle double integral. For output bucket
///    j, overlap(j, i) / w_in is the mean over input bucket i of a
///    trapezoid in the input coordinate (it rises and falls with slope 1
///    over a width h = min(w_out, 2b) each, and is flat at h between), so
///    the background is q w_out, the height (p - q) h, the interior the
///    input buckets inside the plateau, and the edge buckets those the
///    slopes cross (at most ceil(h d) + 1 per side). Which bucket is which
///    follows from the geometry, and each c_ji is integrated in the
///    bucket's own coordinates, so no coefficient is a difference of large
///    terms. The transpose has the same form with the two grids swapped
///    (the overlap integral is symmetric).
///
/// State: the band tables (per row lo, hi, edge-block starts and edge
/// coefficients: 16 bytes a row for the discrete pipeline, about 130 KB
/// in all at d = d_out = 1024, eps = 1 for the continuous one) are built
/// by the first product, once, and shared by every live model of the same
/// shape (pipeline, d, d_out, p, q, b), copies included. Building a model
/// is O(1), and an encode-only estimator never pays for them. The tables
/// are a pure function of the shape, so a product gives the same bits
/// whether or not an earlier call built them. The prefix sums go to a
/// per-thread workspace.
///
/// Agrees with the dense TransitionMatrix() operators to ~1e-12 absolute
/// on unit-scale inputs up to d = 1024 (fp regrouping only; on the
/// continuous side the dense matrix's own antiderivative differences carry
/// most of it). Concurrent products from reconstruction threads are safe:
/// the one-time build is a std::call_once, the shape registry takes a
/// mutex, and a product writes only its output and its thread's workspace.
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

  struct Bands;
  const Bands& BuiltBands() const;
  // Points bands_ at the registry's tables for this model's shape; `b_key`
  // is the wave half-width's bits (continuous) or bucket count (discrete).
  void ShareBands(uint64_t b_key);

  bool discrete_ = false;
  size_t rows_ = 0;
  size_t cols_ = 0;
  double p_ = 0.0;
  double q_ = 0.0;
  double background_ = 0.0;  // per unit of input mass: q w_out, or q
  // Continuous parameters.
  double b_ = 0.0;      // wave half-width
  double w_in_ = 0.0;   // input bucket width (1 / d)
  double w_out_ = 0.0;  // output bucket width ((1 + 2b) / d_out)
  // Discrete parameter: wave half-width in buckets.
  size_t db_ = 0;
  // Shared by every model of this shape; empty tables until the first
  // product builds them.
  std::shared_ptr<Bands> bands_;
};

}  // namespace numdist
