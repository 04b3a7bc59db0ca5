// Ablation: which part of the paper's design carries the utility?
//
//  (a) SW reconstruction: EMS vs plain EM vs smoothing-only vs raw
//      (truncated observed frequencies) — shows EM is load-bearing and
//      smoothing stabilizes it (§5.5).
//  (b) HH post-processing: raw tree vs constrained inference (Hay) vs
//      ADMM (non-negativity + normalization) — shows each added constraint
//      pays (§4.3).
//  (c) Norm-Sub vs Norm-Cut for CFO binning cleanup (§4.1).
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/histogram.h"
#include "core/ems.h"
#include "core/observation_model.h"
#include "core/square_wave.h"
#include "eval/table.h"
#include "fo/adaptive.h"
#include "hierarchy/admm.h"
#include "hierarchy/constrained.h"
#include "hierarchy/hh.h"
#include "metrics/distance.h"
#include "postprocess/norm_sub.h"
#include "postprocess/norm_variants.h"

using namespace numdist;

int main(int argc, char** argv) {
  bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  if (flags.datasets.size() == 4) flags.datasets = {"beta", "income"};
  const size_t trials = bench::TrialsFor(flags);

  for (DatasetId id : bench::DatasetsFor(flags)) {
    const DatasetSpec& spec = GetDatasetSpec(id);
    const size_t d = bench::GranularityFor(flags, id);
    Rng rng(flags.seed);
    const std::vector<double> values =
        GenerateDataset(id, bench::UsersFor(flags), rng);
    const std::vector<double> truth = hist::FromSamples(values, d);

    printf("=== Ablations on %s (n=%zu, d=%zu, trials=%zu) ===\n\n",
           spec.name.c_str(), values.size(), d, trials);

    // ---------------- (a) SW reconstruction ablation ----------------
    printf("--- (a) SW reconstruction: W1 by post-processing ---\n");
    TablePrinter sw_table([&] {
      std::vector<std::string> headers = {"post-processing"};
      for (double eps : flags.epsilons) {
        headers.push_back("eps=" + FormatG(eps, 3));
      }
      return headers;
    }());
    std::vector<std::vector<double>> sw_rows(4,
                                             std::vector<double>(
                                                 flags.epsilons.size(), 0.0));
    for (size_t e = 0; e < flags.epsilons.size(); ++e) {
      const double eps = flags.epsilons[e];
      fprintf(stderr, "[ablation-a] %s eps=%.2f ...\n", spec.name.c_str(),
              eps);
      for (size_t t = 0; t < trials; ++t) {
        const SquareWave sw = SquareWave::Make(eps).ValueOrDie();
        Rng trial_rng(SplitMix64(flags.seed ^ (31ULL * (t + 1))));
        std::vector<double> reports;
        reports.reserve(values.size());
        for (double v : values) reports.push_back(sw.Perturb(v, trial_rng));
        const std::vector<uint64_t> counts = sw.BucketizeReports(reports, d);
        const SlidingWindowObservationModel model =
            SlidingWindowObservationModel::FromContinuous(sw, d, d);

        EmOptions ems_opts;
        ems_opts.smoothing = true;
        const EmResult ems = EstimateEm(model, counts, ems_opts).ValueOrDie();
        sw_rows[0][e] += WassersteinDistance(truth, ems.estimate) / trials;

        EmOptions em_opts;
        em_opts.tol = 1e-3 * std::exp(eps);
        const EmResult em = EstimateEm(model, counts, em_opts).ValueOrDie();
        sw_rows[1][e] += WassersteinDistance(truth, em.estimate) / trials;

        const std::vector<double> smooth_only =
            SmoothingOnlyEstimate(counts, d);
        sw_rows[2][e] += WassersteinDistance(truth, smooth_only) / trials;

        // Raw: observed output frequencies folded onto the input domain.
        const std::vector<double> raw = SmoothingOnlyEstimate(counts, d, 0);
        sw_rows[3][e] += WassersteinDistance(truth, raw) / trials;
      }
    }
    const char* sw_names[] = {"EMS (paper)", "EM", "smoothing-only",
                              "raw observed"};
    for (int r = 0; r < 4; ++r) {
      std::vector<std::string> row = {sw_names[r]};
      for (double v : sw_rows[r]) row.push_back(FormatSci(v));
      sw_table.AddRow(std::move(row));
    }
    sw_table.Print(std::cout);
    printf("\n");

    // ---------------- (b) HH post-processing ablation ----------------
    printf("--- (b) HH tree post-processing: leaf-level W1 ---\n");
    const size_t hh_d = 256;  // beta=4 tree wants a power of 4
    const std::vector<double> hh_truth = hist::FromSamples(values, hh_d);
    TablePrinter hh_table([&] {
      std::vector<std::string> headers = {"post-processing"};
      for (double eps : flags.epsilons) {
        headers.push_back("eps=" + FormatG(eps, 3));
      }
      return headers;
    }());
    std::vector<std::vector<double>> hh_rows(3,
                                             std::vector<double>(
                                                 flags.epsilons.size(), 0.0));
    for (size_t e = 0; e < flags.epsilons.size(); ++e) {
      const double eps = flags.epsilons[e];
      fprintf(stderr, "[ablation-b] %s eps=%.2f ...\n", spec.name.c_str(),
              eps);
      const HhProtocol hh = HhProtocol::Make(eps, hh_d, 4).ValueOrDie();
      std::vector<uint32_t> leaves;
      leaves.reserve(values.size());
      for (double v : values) {
        leaves.push_back(static_cast<uint32_t>(hist::BucketOf(v, hh_d)));
      }
      for (size_t t = 0; t < trials; ++t) {
        Rng trial_rng(SplitMix64(flags.seed ^ (57ULL * (t + 1))));
        const std::vector<double> nodes =
            hh.CollectNodeEstimates(leaves, trial_rng);
        const size_t off = hh.tree().LevelOffset(hh.tree().height());

        // Raw leaves, cleaned up by Norm-Sub only.
        const std::vector<double> raw_leaves =
            NormSub(std::vector<double>(nodes.begin() + off, nodes.end()));
        hh_rows[0][e] += WassersteinDistance(hh_truth, raw_leaves) / trials;

        // Constrained inference, then Norm-Sub on the leaves.
        const std::vector<double> ci =
            ConstrainedInference(hh.tree(), nodes, /*fix_root=*/true);
        const std::vector<double> ci_leaves =
            NormSub(std::vector<double>(ci.begin() + off, ci.end()));
        hh_rows[1][e] += WassersteinDistance(hh_truth, ci_leaves) / trials;

        // Full ADMM.
        const AdmmResult admm = HhAdmm(hh.tree(), nodes).ValueOrDie();
        hh_rows[2][e] +=
            WassersteinDistance(hh_truth, admm.distribution) / trials;
      }
    }
    const char* hh_names[] = {"leaves + NormSub", "Hay CI + NormSub",
                              "ADMM (paper)"};
    for (int r = 0; r < 3; ++r) {
      std::vector<std::string> row = {hh_names[r]};
      for (double v : hh_rows[r]) row.push_back(FormatSci(v));
      hh_table.AddRow(std::move(row));
    }
    hh_table.Print(std::cout);
    printf("\n");

    // -------- (c) CFO binning cleanup: the §7 post-processing family -----
    printf("--- (c) CFO binning cleanup: W1 by post-processor ---\n");
    const size_t bins = 32;
    TablePrinter ns_table([&] {
      std::vector<std::string> headers = {"cleanup"};
      for (double eps : flags.epsilons) {
        headers.push_back("eps=" + FormatG(eps, 3));
      }
      return headers;
    }());
    std::vector<std::vector<double>> ns_rows(4,
                                             std::vector<double>(
                                                 flags.epsilons.size(), 0.0));
    for (size_t e = 0; e < flags.epsilons.size(); ++e) {
      const double eps = flags.epsilons[e];
      const AdaptiveFo fo = AdaptiveFo::Make(eps, bins).ValueOrDie();
      std::vector<uint32_t> binned;
      binned.reserve(values.size());
      for (double v : values) {
        binned.push_back(static_cast<uint32_t>(hist::BucketOf(v, bins)));
      }
      const std::vector<double> bin_truth = hist::FromSamples(values, bins);
      for (size_t t = 0; t < trials; ++t) {
        Rng trial_rng(SplitMix64(flags.seed ^ (91ULL * (t + 1))));
        const std::vector<double> noisy = fo.Run(binned, trial_rng);
        ns_rows[0][e] +=
            WassersteinDistance(bin_truth, NormSub(noisy)) / trials;
        ns_rows[1][e] +=
            WassersteinDistance(bin_truth, NormCut(noisy)) / trials;
        ns_rows[2][e] +=
            WassersteinDistance(bin_truth, NormShift(noisy)) / trials;
        ns_rows[3][e] +=
            WassersteinDistance(bin_truth, BasePos(noisy)) / trials;
      }
    }
    const char* ns_names[] = {"NormSub (paper)", "NormCut/NormMul",
                              "Norm (shift only)", "Base-Pos (clamp only)"};
    for (int r = 0; r < 4; ++r) {
      std::vector<std::string> row = {ns_names[r]};
      for (double v : ns_rows[r]) row.push_back(FormatSci(v));
      ns_table.AddRow(std::move(row));
    }
    ns_table.Print(std::cout);
    printf("\n");
  }
  return 0;
}
