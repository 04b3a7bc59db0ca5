// Income survey: the paper's motivating scenario — an organization collects
// salaries under LDP and publishes distribution statistics (deciles, mean,
// share below a threshold) without ever seeing a single true salary.
//
//   ./income_survey [epsilon] [num_users]
//
// Compares the paper's SW+EMS estimator against the CFO-binning baseline on
// the spiky income distribution, and prints an analyst-facing summary.
#include <cstdio>
#include <cstdlib>

#include "common/histogram.h"
#include "common/rng.h"
#include "core/sw_estimator.h"
#include "data/datasets.h"
#include "metrics/distance.h"
#include "metrics/queries.h"
#include "wire/wire.h"

namespace {

constexpr double kClipDollars = 524288.0;  // domain [0, 2^19) dollars

double ToDollars(double unit) { return unit * kClipDollars; }

}  // namespace

int main(int argc, char** argv) {
  const double epsilon = argc > 1 ? std::atof(argv[1]) : 1.0;
  const size_t n = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 200000;
  const size_t d = 1024;

  numdist::Rng rng(7);
  const std::vector<double> salaries =
      numdist::GenerateDataset(numdist::DatasetId::kIncome, n, rng);
  const std::vector<double> truth = numdist::hist::FromSamples(salaries, d);

  printf("Income survey under %.2f-LDP, %zu respondents, %zu buckets\n\n",
         epsilon, n, d);

  // SW + EMS (this paper).
  const numdist::ProtocolPtr sw_protocol =
      numdist::wire::MakeProtocolForSpec(
          numdist::wire::ParseMethodSpec("sw-ems", epsilon, d).ValueOrDie())
          .ValueOrDie();
  numdist::Rng sw_rng(11);
  const numdist::MethodOutput sw =
      numdist::RunProtocol(*sw_protocol, salaries, sw_rng).ValueOrDie();

  // CFO binning baseline (32 bins).
  const numdist::ProtocolPtr cfo_protocol =
      numdist::wire::MakeProtocolForSpec(
          numdist::wire::ParseMethodSpec("cfo-32", epsilon, d).ValueOrDie())
          .ValueOrDie();
  numdist::Rng cfo_rng(11);
  const numdist::MethodOutput cfo =
      numdist::RunProtocol(*cfo_protocol, salaries, cfo_rng).ValueOrDie();

  printf("reconstruction quality (lower is better)\n");
  printf("  %-12s %-12s %-12s\n", "method", "Wasserstein", "KS");
  printf("  %-12s %-12.5f %-12.5f\n", "SW-EMS",
         numdist::WassersteinDistance(truth, sw.distribution),
         numdist::KsDistance(truth, sw.distribution));
  printf("  %-12s %-12.5f %-12.5f\n\n", "CFO-bin-32",
         numdist::WassersteinDistance(truth, cfo.distribution),
         numdist::KsDistance(truth, cfo.distribution));

  printf("analyst view (SW-EMS estimate vs ground truth)\n");
  printf("  mean salary        : $%8.0f vs $%8.0f\n",
         ToDollars(numdist::HistMean(sw.distribution)),
         ToDollars(numdist::HistMean(truth)));
  for (double beta : {0.25, 0.5, 0.75, 0.9}) {
    printf("  %2.0f%% quantile       : $%8.0f vs $%8.0f\n", beta * 100,
           ToDollars(numdist::Quantile(sw.distribution, beta)),
           ToDollars(numdist::Quantile(truth, beta)));
  }
  const double below_50k_est =
      numdist::RangeQuery(sw.distribution, 0.0, 50000.0 / kClipDollars);
  const double below_50k_true =
      numdist::RangeQuery(truth, 0.0, 50000.0 / kClipDollars);
  printf("  share below $50k   : %6.2f%% vs %6.2f%%\n", 100 * below_50k_est,
         100 * below_50k_true);
  return 0;
}
