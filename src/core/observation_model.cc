#include "core/observation_model.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "kernels/kernels.h"

namespace numdist {

namespace {

// One bucket's E-step epilogue, the formula EmWeightsFromPrediction
// documents: weight 0 when the bucket saw no reports, and the log term
// only when `ll` is non-null.
inline double RowWeight(double count, double yj_raw, double* ll) {
  if (count == 0.0) return 0.0;
  const double yj = std::max(yj_raw, 1e-300);
  if (ll != nullptr) *ll += count * std::log(yj);
  return count / yj;
}

}  // namespace

double EmWeightsFromPrediction(const std::vector<double>& counts,
                               const std::vector<double>& y,
                               std::vector<double>* weights,
                               bool with_log_likelihood) {
  const size_t d_out = y.size();
  assert(counts.size() == d_out);
  weights->resize(d_out);
  double ll = 0.0;
  double* const ll_sink = with_log_likelihood ? &ll : nullptr;
  for (size_t j = 0; j < d_out; ++j) {
    // y_j > 0 whenever x has support reaching bucket j; with the SW model
    // every output bucket is reachable (q > 0), so the 1e-300 floor only
    // trips on degenerate custom matrices.
    (*weights)[j] = RowWeight(counts[j], y[j], ll_sink);
  }
  return ll;
}

double ObservationModel::EmSweep(const std::vector<double>& x,
                                 const std::vector<double>& counts,
                                 std::vector<double>* y,
                                 std::vector<double>* weights,
                                 std::vector<double>* mtw,
                                 bool with_log_likelihood) const {
  Apply(x, y);
  const double ll =
      EmWeightsFromPrediction(counts, *y, weights, with_log_likelihood);
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

double DenseObservationModel::EmSweep(const std::vector<double>& x,
                                      const std::vector<double>& counts,
                                      std::vector<double>* y,
                                      std::vector<double>* weights,
                                      std::vector<double>* mtw,
                                      bool with_log_likelihood) const {
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
  double* const ll_sink = with_log_likelihood ? &ll : nullptr;
  for (size_t j = 0; j < d_out; ++j) {
    const double* row = m_.row(j);
    const double yj = kernels::Dot(row, x.data(), d);
    (*y)[j] = yj;
    const double w = RowWeight(counts[j], yj, ll_sink);
    (*weights)[j] = w;
    if (w != 0.0) kernels::Axpy(mtw->data(), w, row, d);
  }
  return ll;
}

namespace {

// One direction of either operator in kernels::BandRows layout (see the
// class comment).
struct BandTable {
  std::vector<kernels::BandRow> rows;
  std::vector<double> coef;
  size_t k = 0;  // edge positions per side
  double height = 0.0;
};

struct Trapezoid {
  double s0, s1, s2, s3;
};

// Integral of the trapezoid over the column [a, a + w], in the column's
// own coordinates: every term is a local length, so the result carries
// no cancellation from the global position of the column.
double ColumnArea(const Trapezoid& t, double h, double a, double w) {
  const double s0 = t.s0 - a;
  const double s1 = t.s1 - a;
  const double s2 = t.s2 - a;
  const double s3 = t.s3 - a;
  double area = 0.0;
  double from = std::max(0.0, s0);  // rising slope: g = v - s0
  double to = std::min(w, s1);
  if (to > from) area += (to - from) * (0.5 * ((from - s0) + (to - s0)));
  from = std::max(0.0, s1);  // plateau: g = h
  to = std::min(w, s2);
  if (to > from) area += (to - from) * h;
  from = std::max(0.0, s2);  // falling slope: g = s3 - v
  to = std::min(w, s3);
  if (to > from) area += (to - from) * (0.5 * ((s3 - from) + (s3 - to)));
  return area;
}

// One direction of the continuous operator. Row r is the interval
// [row_lo + r row_w, + row_w), column c the interval [col_lo + c col_w,
// + col_w), and the row's entry at column c is scale * (integral over
// column c of g_r), where
//   g_r(v) = |[rl, rr] ∩ [v - b, v + b]|
// is a trapezoid in v: it rises with slope 1 over [s0, s1], stays at
// h = min(row_w, 2b) over [s1, s2] and falls over [s2, s3]. The columns
// inside [s1, s2] all carry height = scale * h * col_w and are summed
// through the prefix sum as [lo, hi); the columns the slopes cross are the
// row's edges.
BandTable BuildBandTable(double row_lo, double row_w, size_t n_rows,
                         double col_lo, double col_w, size_t n_cols, double b,
                         double scale) {
  assert(n_cols < (uint64_t{1} << 32));
  const double h = std::min(row_w, 2.0 * b);
  // Column position of a point, floored or ceiled and clamped to
  // [0, n_cols]. A breakpoint within rounding of a column boundary may land
  // on either side: the column then counts as an edge whose exact
  // coefficient is the plateau's, or as interior missing a sliver of slope
  // a rounding error wide.
  const auto column = [&](double s, bool up) -> uint32_t {
    const double pos = (s - col_lo) / col_w;
    const double c = up ? std::ceil(pos) : std::floor(pos);
    if (!(c > 0.0)) return 0;
    if (c >= static_cast<double>(n_cols)) return static_cast<uint32_t>(n_cols);
    return static_cast<uint32_t>(c);
  };
  // Row r's trapezoid, and its columns: the interior [lo, hi) and the
  // edge spans [i0, lo) and [hi, i3).
  struct RowSpan {
    Trapezoid t;
    uint32_t i0, lo, hi, i3;
  };
  const auto row_span = [&](size_t r) {
    const double rl = row_lo + static_cast<double>(r) * row_w;
    const double rr = rl + row_w;
    const Trapezoid t{rl - b, std::min(rr - b, rl + b),
                      std::max(rr - b, rl + b), rr + b};
    const uint32_t i0 = column(t.s0, false);
    const uint32_t i3 = column(t.s3, true);
    const uint32_t lo = std::clamp(column(t.s1, true), i0, i3);
    return RowSpan{t, i0, lo, std::clamp(column(t.s2, false), lo, i3), i3};
  };
  BandTable table;
  table.height = scale * h * col_w;
  for (size_t r = 0; r < n_rows; ++r) {
    const RowSpan s = row_span(r);
    table.k = std::max<size_t>({table.k, s.lo - s.i0, s.i3 - s.hi});
  }
  // Each side's block of k columns covers the side's edge span and stays
  // in bounds (k <= n_cols); its other positions keep coefficient 0.
  const size_t groups = (table.k + 1) / 2;
  const uint32_t last_start = static_cast<uint32_t>(n_cols - table.k);
  table.rows.resize(n_rows);
  table.coef.assign(n_rows * 4 * groups, 0.0);
  for (size_t r = 0; r < n_rows; ++r) {
    const RowSpan s = row_span(r);
    const kernels::BandRow row = {s.lo, s.hi, std::min(s.i0, last_start),
                                  std::min(s.hi, last_start)};
    table.rows[r] = row;
    double* c = table.coef.data() + r * 4 * groups;
    const auto set = [&](uint32_t col, uint32_t start, size_t side) {
      const size_t pos = col - start;
      const double a = col_lo + static_cast<double>(col) * col_w;
      c[4 * (pos / 2) + side + pos % 2] = scale * ColumnArea(s.t, h, a, col_w);
    };
    for (uint32_t col = s.i0; col < s.lo; ++col) set(col, row.left, 0);
    for (uint32_t col = s.hi; col < s.i3; ++col) set(col, row.right, 2);
  }
  return table;
}

// One direction of the discrete operator: row r is the box of columns
// [r - before, r + after] clipped to [0, n_cols), all at `height`, so every
// column is interior and there are no edges (k = 0).
BandTable BuildBoxTable(size_t n_rows, size_t n_cols, size_t before,
                        size_t after, double height) {
  assert(n_cols < (uint64_t{1} << 32));
  BandTable table;
  table.height = height;
  table.rows.resize(n_rows);
  for (size_t r = 0; r < n_rows; ++r) {
    const size_t lo = std::min(r - std::min(r, before), n_cols);
    const size_t hi = std::min(r + after + 1, n_cols);
    table.rows[r] = {static_cast<uint32_t>(lo), static_cast<uint32_t>(hi), 0,
                     0};
  }
  return table;
}

// Per-thread workspace for the prefix sums: products are const and run
// concurrently on one shared model, so it cannot live in the model. It
// grows to the largest product the thread has run and is then reused, so
// EM iterations do not allocate.
double* PrefixWorkspace(size_t n) {
  thread_local std::vector<double> workspace;
  if (workspace.size() < n) workspace.resize(n);
  return workspace.data();
}

// y = background + banded rows of `table` over x (n entries).
void ApplyBands(const BandTable& table, double background_per_mass,
                const std::vector<double>& x, std::vector<double>* y) {
  double* prefix = PrefixWorkspace(x.size() + 1);
  kernels::PrefixSum(x.data(), x.size(), prefix);
  y->resize(table.rows.size());
  kernels::BandRows(table.rows.data(), table.coef.data(), table.rows.size(),
                    table.k, prefix, x.data(),
                    background_per_mass * prefix[x.size()], table.height,
                    y->data());
}

}  // namespace

struct SlidingWindowObservationModel::Bands {
  std::once_flag built;
  BandTable apply;      // rows_ rows over cols_ inputs
  BandTable transpose;  // cols_ rows over rows_ inputs
};

const SlidingWindowObservationModel::Bands&
SlidingWindowObservationModel::BuiltBands() const {
  std::call_once(bands_->built, [this] {
    if (discrete_) {
      bands_->apply = BuildBoxTable(rows_, cols_, 2 * db_, 0, p_ - q_);
      bands_->transpose = BuildBoxTable(cols_, rows_, 0, 2 * db_, p_ - q_);
      return;
    }
    const double scale = (p_ - q_) / w_in_;
    bands_->apply = BuildBandTable(-b_, w_out_, rows_, 0.0, w_in_, cols_, b_,
                                   scale);
    bands_->transpose = BuildBandTable(0.0, w_in_, cols_, -b_, w_out_, rows_,
                                       b_, scale);
  });
  return *bands_;
}

void SlidingWindowObservationModel::ShareBands(uint64_t b_key) {
  // The tables are a pure function of this shape, and a process often
  // holds several models of one shape (a collector's protocol and its live
  // estimator are built from one spec), so every model of a shape shares
  // one set while any of them is alive. Never destroyed: a model may be
  // built during static destruction.
  using Shape = std::tuple<bool, size_t, size_t, uint64_t, uint64_t, uint64_t>;
  static std::mutex& mu = *new std::mutex;
  static auto& shared = *new std::map<Shape, std::weak_ptr<Bands>>;
  const Shape shape{discrete_,
                    rows_,
                    cols_,
                    std::bit_cast<uint64_t>(p_),
                    std::bit_cast<uint64_t>(q_),
                    b_key};
  const std::lock_guard<std::mutex> lock(mu);
  std::erase_if(shared,
                [](const auto& entry) { return entry.second.expired(); });
  std::weak_ptr<Bands>& slot = shared[shape];
  bands_ = slot.lock();
  if (bands_ == nullptr) {
    bands_ = std::make_shared<Bands>();
    slot = bands_;
  }
}

SlidingWindowObservationModel SlidingWindowObservationModel::FromContinuous(
    const SquareWave& sw, size_t d_in, size_t d_out) {
  assert(d_in >= 1 && d_out >= 1);
  SlidingWindowObservationModel m;
  m.rows_ = d_out;
  m.cols_ = d_in;
  m.p_ = sw.p();
  m.q_ = sw.q();
  m.b_ = sw.b();
  m.w_in_ = 1.0 / static_cast<double>(d_in);
  m.w_out_ = (1.0 + 2.0 * sw.b()) / static_cast<double>(d_out);
  m.background_ = m.q_ * m.w_out_;
  m.ShareBands(std::bit_cast<uint64_t>(m.b_));
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
  m.background_ = m.q_;
  m.ShareBands(m.db_);
  return m;
}

void SlidingWindowObservationModel::Apply(const std::vector<double>& x,
                                          std::vector<double>* y) const {
  assert(x.size() == cols_);
  ApplyBands(BuiltBands().apply, background_, x, y);
}

void SlidingWindowObservationModel::ApplyTranspose(
    const std::vector<double>& z, std::vector<double>* out) const {
  assert(z.size() == rows_);
  ApplyBands(BuiltBands().transpose, background_, z, out);
}

}  // namespace numdist
