// Figure 6: Wasserstein distance of SW+EMS, varying b from 0.01 to 0.38,
// at eps in {1, 2, 3, 4}. The vertical reference in the paper is the
// closed-form b_SW from §5.3 (0.256 / 0.129 / 0.064 / 0.030); the bench
// prints it next to the sweep so the near-optimality is visible.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/histogram.h"
#include "core/bandwidth.h"
#include "core/em.h"
#include "core/observation_model.h"
#include "core/square_wave.h"
#include "eval/table.h"
#include "metrics/distance.h"

using namespace numdist;

namespace {

double SwW1(double eps, double b, const std::vector<double>& values,
            const std::vector<double>& truth, size_t d, size_t trials,
            uint64_t seed) {
  double acc = 0.0;
  for (size_t t = 0; t < trials; ++t) {
    Rng rng(SplitMix64(seed ^ (0xabcdef12ULL * (t + 1))));
    const SquareWave sw = SquareWave::Make(eps, b).ValueOrDie();
    std::vector<double> reports;
    reports.reserve(values.size());
    for (double v : values) reports.push_back(sw.Perturb(v, rng));
    const std::vector<uint64_t> counts = sw.BucketizeReports(reports, d);
    EmOptions ems;
    ems.smoothing = true;
    const EmResult res =
        EstimateEm(SlidingWindowObservationModel::FromContinuous(sw, d, d),
                   counts, ems)
            .ValueOrDie();
    acc += WassersteinDistance(truth, res.estimate);
  }
  return acc / static_cast<double>(trials);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  // The paper's Figure 6 uses the Taxi dataset family; default to taxi but
  // honor --datasets.
  if (flags.datasets.size() == 4) flags.datasets = {"taxi"};
  const std::vector<double> eps_grid = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> bs = {0.01, 0.03, 0.06, 0.10, 0.13, 0.17,
                                  0.22, 0.26, 0.30, 0.34, 0.38};

  printf("=== Figure 6: SW+EMS accuracy vs bandwidth b ===\n\n");
  for (DatasetId id : bench::DatasetsFor(flags)) {
    const DatasetSpec& spec = GetDatasetSpec(id);
    const size_t d = bench::GranularityFor(flags, id);
    Rng rng(flags.seed);
    const std::vector<double> values =
        GenerateDataset(id, bench::UsersFor(flags), rng);
    const std::vector<double> truth = hist::FromSamples(values, d);

    printf("--- %s ---\n", spec.name.c_str());
    TablePrinter table([&] {
      std::vector<std::string> headers = {"eps", "b_SW(eps)"};
      for (double b : bs) headers.push_back("b=" + FormatG(b, 2));
      headers.push_back("W1(b_SW)");
      return headers;
    }());
    for (double eps : eps_grid) {
      fprintf(stderr, "[fig6] %s eps=%.1f ...\n", spec.name.c_str(), eps);
      const double b_sw = OptimalBandwidth(eps);
      std::vector<std::string> row = {FormatG(eps, 2), FormatG(b_sw, 3)};
      double best = 1e300;
      for (double b : bs) {
        const double w1 = SwW1(eps, b, values, truth, d,
                               bench::TrialsFor(flags), flags.seed);
        best = std::min(best, w1);
        row.push_back(FormatSci(w1));
      }
      const double at_bsw = SwW1(eps, b_sw, values, truth, d,
                                 bench::TrialsFor(flags), flags.seed);
      row.push_back(FormatSci(at_bsw));
      table.AddRow(std::move(row));
      printf("  eps=%.1f: W1 at closed-form b_SW=%.3f is %s (grid best %s)\n",
             eps, b_sw, FormatSci(at_bsw).c_str(), FormatSci(best).c_str());
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
