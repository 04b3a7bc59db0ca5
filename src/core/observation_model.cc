#include "core/observation_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "kernels/kernels.h"

namespace numdist {

double EmWeightsFromPrediction(const std::vector<double>& counts,
                               const std::vector<double>& y,
                               std::vector<double>* weights) {
  const size_t d_out = y.size();
  assert(counts.size() == d_out);
  weights->resize(d_out);
  double ll = 0.0;
  for (size_t j = 0; j < d_out; ++j) {
    if (counts[j] == 0.0) {
      (*weights)[j] = 0.0;
      continue;
    }
    // y_j > 0 whenever x has support reaching bucket j; with the SW model
    // every output bucket is reachable (q > 0), so this guard only trips
    // on degenerate custom matrices.
    const double yj = std::max(y[j], 1e-300);
    (*weights)[j] = counts[j] / yj;
    ll += counts[j] * std::log(yj);
  }
  return ll;
}

double ObservationModel::EmSweep(const std::vector<double>& x,
                                 const std::vector<double>& counts,
                                 std::vector<double>* y,
                                 std::vector<double>* weights,
                                 std::vector<double>* mtw) const {
  Apply(x, y);
  const double ll = EmWeightsFromPrediction(counts, *y, weights);
  ApplyTranspose(*weights, mtw);
  return ll;
}

void DenseObservationModel::Apply(const std::vector<double>& x,
                                  std::vector<double>* y) const {
  m_.MultiplyInto(x, y);
}

void DenseObservationModel::ApplyTranspose(const std::vector<double>& z,
                                           std::vector<double>* out) const {
  m_.TransposeMultiplyInto(z, out);
}

namespace {

// One row's E-step epilogue: same formula as EmWeightsFromPrediction,
// applied pointwise (weight 0 when the bucket saw no reports).
inline double RowWeight(double count, double yj_raw, double* ll) {
  if (count == 0.0) return 0.0;
  const double yj = std::max(yj_raw, 1e-300);
  *ll += count * std::log(yj);
  return count / yj;
}

}  // namespace

double DenseObservationModel::EmSweep(const std::vector<double>& x,
                                      const std::vector<double>& counts,
                                      std::vector<double>* y,
                                      std::vector<double>* weights,
                                      std::vector<double>* mtw) const {
  const size_t d_out = m_.rows();
  const size_t d = m_.cols();
  assert(x.size() == d && counts.size() == d_out);
  y->resize(d_out);
  weights->resize(d_out);
  mtw->assign(d, 0.0);
  // Single sweep over the rows: the weight for bucket j depends on y_j
  // alone, so each row can be dotted, weighted, and folded into M^T w
  // while still cache-hot. Dense EM is bound by matrix bandwidth; this
  // touches the matrix once per iteration instead of twice (Apply +
  // ApplyTranspose stream it separately) with the same per-row Dot and
  // Axpy calls they make, so the result is bit-identical to them.
  double ll = 0.0;
  for (size_t j = 0; j < d_out; ++j) {
    const double* row = m_.row(j);
    const double yj = kernels::Dot(row, x.data(), d);
    (*y)[j] = yj;
    const double w = RowWeight(counts[j], yj, &ll);
    (*weights)[j] = w;
    if (w != 0.0) kernels::Axpy(mtw->data(), w, row, d);
  }
  return ll;
}

namespace {

// Monotone cursor over the step density X(v) = h[i] on
// [lo + i w, lo + (i+1) w), zero outside. Advance(t) integrates the CDF
// F(t) = int_lo^t X over [previous position, t] in closed form (F is
// piecewise linear, so the interval integral is piecewise quadratic) and
// moves the cursor; queries must be non-decreasing. The first Advance
// positions the cursor (its return value is discarded by the caller).
// Each full left-to-right sweep costs O(n + #queries) in total.
class PrefixIntegralCursor {
 public:
  PrefixIntegralCursor(const double* h, size_t n, double lo, double w)
      : h_(h), n_(n), lo_(lo), w_(w), t_(lo) {}

  double Advance(double t) {
    if (t <= t_) return 0.0;  // query left of lo, where F == 0
    double acc = 0.0;
    for (;;) {
      const bool inside = idx_ < n_;
      const double h = inside ? h_[idx_] : 0.0;
      const double next = inside
                              ? lo_ + static_cast<double>(idx_ + 1) * w_
                              : std::numeric_limits<double>::infinity();
      const double stop = t < next ? t : next;
      const double dt = stop - t_;
      acc += (f_ + 0.5 * h * dt) * dt;
      f_ += h * dt;
      t_ = stop;
      if (t <= next) return acc;
      ++idx_;
    }
  }

 private:
  const double* h_;
  size_t n_;
  double lo_;
  double w_;
  double t_;       // current position (>= lo)
  double f_ = 0.0; // F(t_)
  size_t idx_ = 0; // bucket containing t_ (n_ once past the support)
};

}  // namespace

SlidingWindowObservationModel SlidingWindowObservationModel::FromContinuous(
    const SquareWave& sw, size_t d_in, size_t d_out) {
  assert(d_in >= 1 && d_out >= 1);
  SlidingWindowObservationModel m;
  m.discrete_ = false;
  m.rows_ = d_out;
  m.cols_ = d_in;
  m.p_ = sw.p();
  m.q_ = sw.q();
  m.b_ = sw.b();
  m.w_in_ = 1.0 / static_cast<double>(d_in);
  m.w_out_ = (1.0 + 2.0 * sw.b()) / static_cast<double>(d_out);
  return m;
}

SlidingWindowObservationModel SlidingWindowObservationModel::FromDiscrete(
    const DiscreteSquareWave& dsw) {
  SlidingWindowObservationModel m;
  m.discrete_ = true;
  m.rows_ = dsw.output_domain();
  m.cols_ = dsw.d();
  m.p_ = dsw.p();
  m.q_ = dsw.q();
  m.db_ = dsw.b();
  return m;
}

void SlidingWindowObservationModel::Apply(const std::vector<double>& x,
                                          std::vector<double>* y) const {
  assert(x.size() == cols_);
  const double total = kernels::Sum(x.data(), x.size());
  y->resize(rows_);

  if (discrete_) {
    // y_j = q sum(x) + (p - q) sum_{i in [j - 2b, j]} x_i. Two passes: a
    // sequential prefix fill P(min(j, d-1)) into y itself, then the
    // dispatched descending window combine y_j = background + height *
    // (P(min(j, d-1)) - P(j - 2b - 1)) — same additions in the same order
    // as the historical running-cursor loop, but the combine vectorizes.
    const double background = q_ * total;
    const double height = p_ - q_;
    const size_t lag = 2 * db_ + 1;
    double prefix = 0.0;
    size_t add = 0;
    for (size_t j = 0; j < rows_; ++j) {
      while (add <= j && add < cols_) prefix += x[add++];
      (*y)[j] = prefix;
    }
    kernels::WindowCombine(y->data(), rows_, lag, background, height);
    return;
  }

  // Continuous: with X(v) the step density of mass x_i on input bucket i and
  // F its CDF,
  //   sum_i overlap(j, i) x_i = int_{l_j}^{r_j} [F(u + b) - F(u - b)] du,
  // i.e. the difference of two interval integrals of F at the shifted output
  // bucket edges — two monotone cursor sweeps.
  const double background = q_ * w_out_ * total;
  const double scale = (p_ - q_) / w_in_;
  PrefixIntegralCursor plus(x.data(), cols_, 0.0, w_in_);
  PrefixIntegralCursor minus(x.data(), cols_, 0.0, w_in_);
  const double out_lo = -b_;
  plus.Advance(out_lo + b_);
  minus.Advance(out_lo - b_);
  for (size_t j = 0; j < rows_; ++j) {
    const double r = out_lo + static_cast<double>(j + 1) * w_out_;
    const double ip = plus.Advance(r + b_);
    const double im = minus.Advance(r - b_);
    (*y)[j] = background + scale * (ip - im);
  }
}

void SlidingWindowObservationModel::ApplyTranspose(
    const std::vector<double>& z, std::vector<double>* out) const {
  assert(z.size() == rows_);
  const double total = kernels::Sum(z.data(), z.size());
  out->resize(cols_);

  if (discrete_) {
    // out_i = q sum(z) + (p - q) sum_{j in [i, i + 2b]} z_j. Same two-pass
    // shape as Apply — prefix fill P(min(i + 2b, rows - 1)) into out, then
    // the descending combine subtracting P(i - 1) = out_prefill[i - lag].
    // The combine's zero-lag head (i < lag, where i - lag underflows) is
    // wrong for the transpose, whose window clips at the TOP, not at 0:
    // the true subtrahend there is P(i - 1), not 0. Rebuilt below with the
    // same fold order, overwriting only those head entries.
    const double background = q_ * total;
    const double height = p_ - q_;
    const size_t window = 2 * db_;
    const size_t lag = window + 1;
    double prefix = 0.0;
    size_t add = 0;
    for (size_t i = 0; i < cols_; ++i) {
      while (add <= i + window && add < rows_) prefix += z[add++];
      (*out)[i] = prefix;
    }
    kernels::WindowCombine(out->data(), cols_, lag, background, height);
    const size_t head = std::min(lag, cols_);
    double p_hi = 0.0;  // P(min(i + 2b, rows - 1))
    double p_lo = 0.0;  // P(i - 1)
    size_t hi = 0;
    for (size_t i = 0; i < head; ++i) {
      while (hi <= i + window && hi < rows_) p_hi += z[hi++];
      (*out)[i] = background + height * (p_hi - p_lo);
      p_lo += z[i];
    }
    return;
  }

  // The overlap integral is symmetric in the two rectangles, so the same
  // cursor construction applies with the roles swapped: Z is the step
  // density of mass z_j on output bucket j of [-b, 1 + b], H its CDF, and
  //   sum_j overlap(j, i) z_j = int_{a_i}^{c_i} [H(v + b) - H(v - b)] dv.
  const double background = q_ * w_out_ * total;
  const double scale = (p_ - q_) / w_in_;
  PrefixIntegralCursor plus(z.data(), rows_, -b_, w_out_);
  PrefixIntegralCursor minus(z.data(), rows_, -b_, w_out_);
  plus.Advance(0.0 + b_);
  minus.Advance(0.0 - b_);
  for (size_t i = 0; i < cols_; ++i) {
    const double c = static_cast<double>(i + 1) * w_in_;
    const double hp = plus.Advance(c + b_);
    const double hm = minus.Advance(c - b_);
    (*out)[i] = background + scale * (hp - hm);
  }
}

}  // namespace numdist
