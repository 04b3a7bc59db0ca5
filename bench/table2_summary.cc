// Table 2: which method supports which utility metric, plus a one-epsilon
// summary run showing every supported (method, metric) value side by side.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "eval/table.h"
#include "mean/moments.h"

using namespace numdist;

int main(int argc, char** argv) {
  bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  if (flags.epsilons.size() > 1) flags.epsilons = {1.0};
  const double eps = flags.epsilons[0];

  printf("=== Table 2: methods and evaluated metrics ===\n\n");
  TablePrinter coverage({"method", "W1+KS", "RangeQuery", "Mean+Var",
                         "Quantile"});
  coverage.AddRow({"SW-EMS / SW-EM (this paper)", "x", "x", "x", "x"});
  coverage.AddRow({"HH-ADMM (this paper)", "x", "x", "x", "x"});
  coverage.AddRow({"CFO binning", "x", "x", "x", "x"});
  coverage.AddRow({"HH / HaarHRR [18]", "", "x", "", ""});
  coverage.AddRow({"PM [30] / SR [9]", "", "", "x", ""});
  coverage.Print(std::cout);

  printf("\n=== summary run at eps=%.2f ===\n", eps);
  printf("(n=%zu, trials=%zu)\n\n", bench::UsersFor(flags),
         bench::TrialsFor(flags));
  const bench::Sweep sweep =
      bench::RunStandardSweep(flags, /*distributions_only=*/false);

  for (const auto& dataset : flags.datasets) {
    printf("--- %s ---\n", dataset.c_str());
    TablePrinter table({"method", "W1", "KS", "range(0.1)", "range(0.4)",
                        "mean", "variance", "quantile"});
    for (const auto& p : sweep.points) {
      if (p.dataset != dataset) continue;
      table.AddRow({p.method, FormatSci(p.agg.mean.wasserstein),
                    FormatSci(p.agg.mean.ks), FormatSci(p.agg.mean.range_small),
                    FormatSci(p.agg.mean.range_large),
                    FormatSci(p.agg.mean.mean_err),
                    FormatSci(p.agg.mean.variance_err),
                    FormatSci(p.agg.mean.quantile_err)});
    }
    if (flags.csv) {
      table.PrintCsv(std::cout);
    } else {
      table.Print(std::cout);
    }
    printf("\n");
  }
  return 0;
}
