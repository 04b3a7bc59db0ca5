// Figure 3: MAE of random range queries with range size alpha = 0.1 (row 1)
// and alpha = 0.4 (row 2), varying epsilon, for every dataset and method —
// including the hierarchy methods HH and HaarHRR, which answer range
// queries directly from their (possibly negative) tree estimates.
//
// Expected shape (paper): SW-EMS best in most cases; competitive with
// CFO-bin-64 at alpha=0.1 on Taxi; HH-ADMM strongest on Income at low
// privacy (large eps).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "eval/table.h"

using namespace numdist;

int main(int argc, char** argv) {
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  const bench::Sweep sweep =
      bench::RunStandardSweep(flags, /*distributions_only=*/false);

  printf("=== Figure 3: range query MAE, varying epsilon ===\n");
  printf("(n=%zu, trials=%zu, 200 random queries per trial)\n\n",
         bench::UsersFor(flags), bench::TrialsFor(flags));
  for (double alpha : {0.1, 0.4}) {
    printf("--- alpha = %.1f ---\n", alpha);
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
              row.push_back(FormatSci(alpha < 0.25 ? p.agg.mean.range_small
                                                   : p.agg.mean.range_large));
            }
          }
        }
        table.AddRow(std::move(row));
      }
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
