// Figure 2: Wasserstein distance (row 1) and KS distance (row 2) between
// the reconstructed and true distributions, varying epsilon, for every
// dataset and method. HH/HaarHRR are excluded (no valid distribution),
// exactly as in the paper.
//
// Expected shape (paper): SW-EMS lowest nearly everywhere; HH-ADMM second
// and best-in-class on the spiky Income dataset under KS; CFO-binning
// curves flatten as eps grows (binning bias dominates).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "eval/table.h"

using namespace numdist;

int main(int argc, char** argv) {
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);

  const bench::Sweep sweep =
      bench::RunStandardSweep(flags, /*distributions_only=*/true);

  printf("=== Figure 2: distribution distances, varying epsilon ===\n");
  printf("(n=%zu, trials=%zu per point)\n\n", bench::UsersFor(flags),
         bench::TrialsFor(flags));
  for (const char* metric : {"wasserstein", "ks"}) {
    printf("--- %s distance ---\n", metric);
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
              row.push_back(FormatSci(metric[0] == 'w' ? p.agg.mean.wasserstein
                                                       : p.agg.mean.ks));
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
