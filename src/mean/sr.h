// Stochastic Rounding (SR), Duchi et al. [9] (paper §2.2): every user
// reports one of the two extremes {-1, +1} with probabilities linear in the
// input, then de-biases by 1/(p - q). The report mean is an unbiased
// estimate of the population mean.
#pragma once

#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace numdist {

/// \brief SR mean-estimation mechanism on the input domain [-1, 1].
class StochasticRounding {
 public:
  /// Creates the mechanism. Requires epsilon > 0.
  static Result<StochasticRounding> Make(double epsilon);

  /// Randomizes one value v in [-1, 1]; the returned de-biased report is
  /// +-1/(p - q) and satisfies E[report] = v.
  double Perturb(double v, Rng& rng) const;

  /// Mean of de-biased reports (the unbiased mean estimate).
  static double MeanOfReports(const std::vector<double>& reports);

  double epsilon() const { return epsilon_; }
  /// The de-biased report magnitude 1/(p - q) = (e^eps + 1)/(e^eps - 1).
  double report_magnitude() const { return magnitude_; }

 private:
  explicit StochasticRounding(double epsilon);

  double epsilon_;
  double p_;          // e^eps / (e^eps + 1)
  double magnitude_;  // 1 / (2p - 1)
};

}  // namespace numdist
