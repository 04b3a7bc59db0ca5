#include "mean/sr.h"

#include <cassert>
#include <cmath>

namespace numdist {

Result<StochasticRounding> StochasticRounding::Make(double epsilon) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("SR: epsilon must be positive and finite");
  }
  return StochasticRounding(epsilon);
}

StochasticRounding::StochasticRounding(double epsilon) : epsilon_(epsilon) {
  const double e = std::exp(epsilon);
  p_ = e / (e + 1.0);
  magnitude_ = 1.0 / (2.0 * p_ - 1.0);  // == (e+1)/(e-1)
}

double StochasticRounding::Perturb(double v, Rng& rng) const {
  assert(v >= -1.0 && v <= 1.0);
  // Pr[+1] = q + (p - q)(1 + v)/2, linear in v; E[v'] = (p - q) v.
  const double q = 1.0 - p_;
  const double prob_plus = q + (p_ - q) * (1.0 + v) / 2.0;
  const double vprime = rng.Bernoulli(prob_plus) ? 1.0 : -1.0;
  return vprime * magnitude_;
}

double StochasticRounding::MeanOfReports(const std::vector<double>& reports) {
  if (reports.empty()) return 0.0;
  double acc = 0.0;
  for (double r : reports) acc += r;
  return acc / static_cast<double>(reports.size());
}

}  // namespace numdist
