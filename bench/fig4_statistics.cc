// Figure 4: MAE of mean (row 1), variance (row 2) and quantile (row 3)
// estimates, varying epsilon. Distribution methods derive the statistics
// from the reconstructed histogram; SR and PM are the dedicated scalar
// protocols (mean on the full population; variance via the two-phase
// half/half protocol), evaluated over the same trial/seed schedule.
//
// Expected shape (paper): SW-EMS matches the best of SR/PM on the mean
// despite reconstructing the whole distribution; SR/PM lose on variance
// (half the budget); SW-EMS leads quantiles except on spiky Income where
// HH-ADMM wins.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "eval/table.h"
#include "mean/moments.h"

using namespace numdist;

namespace {

struct ScalarPoint {
  std::string dataset;
  std::string method;
  double epsilon;
  double mean_err;
  double variance_err;
};

// Runs SR/PM mean+variance trials matching the distribution-method schedule.
std::vector<ScalarPoint> RunScalarSweep(const bench::BenchFlags& flags) {
  std::vector<ScalarPoint> points;
  for (DatasetId id : bench::DatasetsFor(flags)) {
    const DatasetSpec& spec = GetDatasetSpec(id);
    Rng rng(flags.seed);
    const std::vector<double> values =
        GenerateDataset(id, bench::UsersFor(flags), rng);
    double mean = 0.0;
    for (double v : values) mean += v;
    mean /= values.size();
    double var = 0.0;
    for (double v : values) var += (v - mean) * (v - mean);
    var /= values.size();

    for (auto [mech, name] :
         {std::pair{MeanMechanism::kStochasticRounding, "SR"},
          std::pair{MeanMechanism::kPiecewiseMechanism, "PM"}}) {
      for (double eps : flags.epsilons) {
        double mean_err = 0.0;
        double var_err = 0.0;
        const size_t trials = bench::TrialsFor(flags);
        for (size_t t = 0; t < trials; ++t) {
          Rng trial_rng(SplitMix64(flags.seed ^ (0x9e3779b97f4a7c15ULL *
                                                 (t + 1))));
          const MomentsEstimate est =
              EstimateMoments(values, mech, eps, trial_rng).ValueOrDie();
          // Mean error from a full-population run (SR/PM devote everything
          // to the mean in the paper's Figure 4 row 1).
          Rng mean_rng(SplitMix64(flags.seed + 77 + t));
          const double mean_est =
              EstimateMean(values, mech, eps, mean_rng).ValueOrDie();
          mean_err += std::fabs(mean_est - mean);
          var_err += std::fabs(est.variance - var);
        }
        points.push_back({spec.name, name, eps, mean_err / trials,
                          var_err / trials});
      }
    }
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);

  const bench::Sweep sweep =
      bench::RunStandardSweep(flags, /*distributions_only=*/true);
  const auto scalar_points = RunScalarSweep(flags);

  printf("=== Figure 4: mean / variance / quantile MAE, varying epsilon ===\n");
  printf("(n=%zu, trials=%zu per point)\n\n", bench::UsersFor(flags),
         bench::TrialsFor(flags));

  const auto print_metric = [&](const char* title, int which) {
    printf("--- %s ---\n", title);
    TablePrinter table([&] {
      std::vector<std::string> headers = {"dataset", "method"};
      for (double eps : flags.epsilons) {
        headers.push_back("eps=" + FormatG(eps, 3));
      }
      return headers;
    }());
    for (const auto& dataset : flags.datasets) {
      for (const std::string& method : sweep.methods) {
        std::vector<std::string> row = {dataset, method};
        for (double eps : flags.epsilons) {
          for (const auto& p : sweep.points) {
            if (p.dataset == dataset && p.method == method &&
                p.epsilon == eps) {
              const double v = which == 0   ? p.agg.mean.mean_err
                               : which == 1 ? p.agg.mean.variance_err
                                            : p.agg.mean.quantile_err;
              row.push_back(FormatSci(v));
            }
          }
        }
        table.AddRow(std::move(row));
      }
      if (which <= 1) {  // SR/PM rows for mean and variance only
        for (const char* scalar : {"SR", "PM"}) {
          std::vector<std::string> row = {dataset, scalar};
          for (double eps : flags.epsilons) {
            for (const auto& p : scalar_points) {
              if (p.dataset == dataset && p.method == scalar &&
                  p.epsilon == eps) {
                row.push_back(
                    FormatSci(which == 0 ? p.mean_err : p.variance_err));
              }
            }
          }
          table.AddRow(std::move(row));
        }
      }
    }
    if (flags.csv) {
      table.PrintCsv(std::cout);
    } else {
      table.Print(std::cout);
    }
    printf("\n");
  };

  print_metric("mean MAE", 0);
  print_metric("variance MAE", 1);
  print_metric("quantile MAE", 2);
  return 0;
}
