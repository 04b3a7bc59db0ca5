// Shared scaffolding for the per-figure bench binaries: the flag table
// (common/flags.h; a malformed value exits 2) and the quick/full presets.
//
// Default scale ("quick") finishes the whole suite in minutes on a laptop:
// fewer users, 256-bucket histograms, few trials. --full switches to the
// paper's granularities (256/1024 buckets), larger n and more trials; the
// qualitative shapes are already stable at quick scale because every
// estimator's noise term scales identically in n.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "eval/runner.h"
#include "wire/wire.h"

namespace numdist {
namespace bench {

struct BenchFlags {
  size_t n = 0;          // users; 0 -> scale preset
  size_t trials = 0;     // 0 -> scale preset
  size_t threads = 0;    // shard workers per trial; 0 -> hardware concurrency
  std::vector<double> epsilons = {0.5, 1.0, 1.5, 2.0, 2.5};
  std::vector<std::string> datasets = {"beta", "taxi", "income", "retirement"};
  bool csv = false;      // machine-readable output only
  bool full = false;     // paper-scale granularity and trials
  uint64_t seed = 2026;
};

inline void PrintUsage(const char* binary) {
  fprintf(stderr,
          "usage: %s [--n=N] [--trials=T] [--threads=W]\n"
          "          [--epsilons=0.5,1.0,...] [--datasets=beta,taxi,...]\n"
          "          [--seed=S] [--csv] [--full]\n",
          binary);
}

inline BenchFlags ParseFlags(int argc, char** argv) {
  BenchFlags flags;
  bool help = false;
  const Status parsed = numdist::ParseFlags(
      argc, argv,
      {{"--n", &flags.n},
       {"--trials", &flags.trials},
       {"--threads", &flags.threads},
       {"--seed", &flags.seed},
       {"--epsilons",
        [&flags](std::string_view v) -> Status {
          flags.epsilons.clear();
          for (const std::string_view item : SplitList(v)) {
            NUMDIST_ASSIGN_OR_RETURN(const double eps, ParseFinite(item));
            if (eps <= 0.0) {
              return Status::InvalidArgument(
                  "every epsilon must be positive, got '" +
                  std::string(item) + "'");
            }
            flags.epsilons.push_back(eps);
          }
          return Status::OK();
        }},
       {"--datasets",
        [&flags](std::string_view v) {
          const std::vector<std::string_view> names = SplitList(v);
          flags.datasets.assign(names.begin(), names.end());
          return Status::OK();
        }},
       {"--csv", &flags.csv},
       {"--full", &flags.full},
       {"--help", &help},
       {"-h", &help}});
  if (!parsed.ok()) {
    fprintf(stderr, "error: %s\n", parsed.ToString().c_str());
    PrintUsage(argv[0]);
    exit(2);
  }
  if (help) {
    PrintUsage(argv[0]);
    exit(0);
  }
  return flags;
}

/// Users per experiment at the current scale.
inline size_t UsersFor(const BenchFlags& flags) {
  if (flags.n > 0) return flags.n;
  return flags.full ? 200000 : 40000;
}

/// Trials per (method, epsilon) point at the current scale.
inline size_t TrialsFor(const BenchFlags& flags) {
  if (flags.trials > 0) return flags.trials;
  return flags.full ? 10 : 3;
}

/// Histogram granularity: paper values under --full (256 for Beta, 1024
/// otherwise), 256 everywhere at quick scale.
inline size_t GranularityFor(const BenchFlags& flags, DatasetId id) {
  if (flags.full) return GetDatasetSpec(id).default_buckets;
  return 256;
}

/// Resolves the --datasets flag to ids (exits on unknown names).
inline std::vector<DatasetId> DatasetsFor(const BenchFlags& flags) {
  std::vector<DatasetId> ids;
  for (const std::string& name : flags.datasets) {
    DatasetId id;
    if (!ParseDatasetId(name, &id)) {
      fprintf(stderr, "unknown dataset: %s\n", name.c_str());
      exit(2);
    }
    ids.push_back(id);
  }
  return ids;
}

/// One point of a (dataset x method x epsilon) sweep.
struct SweepPoint {
  std::string dataset;
  std::string method;
  double epsilon;
  AggregateMetrics agg;
};

/// A sweep's results: the display name (Protocol::name()) of every method
/// it ran, in kTable2Suite order, and one point per (dataset, method,
/// epsilon).
struct Sweep {
  std::vector<std::string> methods;
  std::vector<SweepPoint> points;
};

/// Builds the protocol a kTable2Suite name describes at (epsilon, d).
inline Result<ProtocolPtr> MakeSuiteProtocol(const std::string& name,
                                             double epsilon, size_t d) {
  NUMDIST_ASSIGN_OR_RETURN(const wire::MethodSpec spec,
                           wire::ParseMethodSpec(name, epsilon, d));
  return wire::MakeProtocolForSpec(spec);
}

/// Runs every kTable2Suite method on every configured dataset and epsilon,
/// printing progress to stderr. With `distributions_only`, methods whose
/// protocol yields no distribution (HH, HaarHRR) are left out. The
/// workhorse behind Table 2 and Figures 2-4.
inline Sweep RunStandardSweep(const BenchFlags& flags,
                              bool distributions_only) {
  Sweep sweep;
  std::vector<std::string> names(kTable2Suite.size());
  RunnerOptions opts;
  opts.trials = TrialsFor(flags);
  opts.seed = flags.seed;
  opts.threads = flags.threads;
  for (DatasetId id : DatasetsFor(flags)) {
    const DatasetSpec& spec = GetDatasetSpec(id);
    const size_t d = GranularityFor(flags, id);
    const size_t n = UsersFor(flags);
    Rng rng(flags.seed);
    const std::vector<double> values = GenerateDataset(id, n, rng);
    const GroundTruth truth = ComputeGroundTruth(values, d);
    for (size_t m = 0; m < kTable2Suite.size(); ++m) {
      for (double eps : flags.epsilons) {
        Result<ProtocolPtr> protocol =
            MakeSuiteProtocol(kTable2Suite[m], eps, d);
        if (!protocol.ok()) {
          fprintf(stderr, "[sweep] %s %s eps=%.2f failed: %s\n",
                  spec.name.c_str(), kTable2Suite[m], eps,
                  protocol.status().ToString().c_str());
          continue;
        }
        if (distributions_only && !protocol.value()->yields_distribution()) {
          continue;
        }
        names[m] = protocol.value()->name();
        fprintf(stderr, "[sweep] %s %s eps=%.2f ...\n", spec.name.c_str(),
                names[m].c_str(), eps);
        Result<AggregateMetrics> agg =
            RunTrials(*protocol.value(), values, truth, opts);
        if (!agg.ok()) {
          fprintf(stderr, "  failed: %s\n", agg.status().ToString().c_str());
          continue;
        }
        sweep.points.push_back(
            {spec.name, names[m], eps, std::move(agg).value()});
      }
    }
  }
  for (std::string& name : names) {
    if (!name.empty()) sweep.methods.push_back(std::move(name));
  }
  return sweep;
}

}  // namespace bench
}  // namespace numdist
