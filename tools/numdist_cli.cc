// numdist — command-line distribution estimation under LDP.
//
// Reads a numeric column from a file, simulates the client-side LDP
// randomization for every row, reconstructs the distribution server-side
// with the chosen method, and prints the histogram plus summary statistics.
//
//   numdist --input=salaries.csv --column=2 --min=0 --max=524288
//           --epsilon=1.0 --buckets=1024 --method=sw-ems [--csv] [--seed=S]
//           [--threads=W]
//
// Methods are named as for collector_cli and report_client
// (wire::ParseMethodSpec): sw-ems (default), sw-em, hh-admm, cfo-<bins>,
// cfo-grr-<bins>, cfo-olh-<bins>, cfo-oue-<bins>. hh and haar-hrr answer
// range queries only, so they are refused (exit 2): numdist prints a
// distribution. --buckets must lie in [2, 2^20]. Every flag value is
// parsed whole (common/flags.h): a malformed one exits 2 naming the flag.
// Aggregation shards the report stream across worker threads
// (protocol/sharded.h); the result is identical for any thread count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "cli_common.h"
#include "common/flags.h"
#include "common/rng.h"
#include "data/loader.h"
#include "metrics/queries.h"
#include "protocol/sharded.h"
#include "wire/wire.h"

using namespace numdist;
using numdist::tools::Fail;

namespace {

struct CliFlags {
  std::string input;
  size_t column = 0;
  char delimiter = ',';
  bool skip_header = false;
  double min_value = 0.0;
  double max_value = 1.0;
  double epsilon = 1.0;
  size_t buckets = 256;
  std::string method = "sw-ems";
  bool csv = false;
  uint64_t seed = 1;
  size_t threads = 0;  // shard workers; 0 = hardware concurrency
};

void Usage() {
  fprintf(stderr,
          "usage: numdist --input=FILE [--column=C] [--delimiter=,]\n"
          "               [--skip-header] [--min=LO] [--max=HI]\n"
          "               [--epsilon=E] [--buckets=D]\n"
          "               [--method=sw-ems|sw-em|hh-admm|cfo-<bins>|\n"
          "                 cfo-grr-<bins>|cfo-olh-<bins>|cfo-oue-<bins>]\n"
          "               [--csv] [--seed=S] [--threads=W]\n");
}

bool ParseCli(int argc, char** argv, CliFlags* flags) {
  const Status parsed = ParseFlags(
      argc, argv,
      {{"--input", &flags->input},
       {"--column", &flags->column},
       {"--delimiter",
        [flags](std::string_view v) {
          if (v.size() != 1) return Status::InvalidArgument("must be one byte");
          flags->delimiter = v[0];
          return Status::OK();
        }},
       {"--skip-header", &flags->skip_header},
       {"--min", &flags->min_value},
       {"--max", &flags->max_value},
       {"--epsilon", &flags->epsilon},
       {"--buckets", &flags->buckets},
       {"--method", &flags->method},
       {"--csv", &flags->csv},
       {"--seed", &flags->seed},
       {"--threads", &flags->threads}});
  if (!parsed.ok()) {
    Fail(parsed);
    return false;
  }
  return !flags->input.empty();
}

// A usage error: the typed message, then the usage text; exit 2.
int UsageError(const Status& status) {
  fprintf(stderr, "error: %s\n", status.ToString().c_str());
  Usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  if (!ParseCli(argc, argv, &flags)) {
    Usage();
    return 2;
  }
  Result<wire::MethodSpec> spec =
      wire::ParseMethodSpec(flags.method, flags.epsilon, flags.buckets);
  if (!spec.ok()) return UsageError(spec.status());
  Result<ProtocolPtr> protocol = wire::MakeProtocolForSpec(spec.value());
  if (!protocol.ok()) return Fail(protocol.status());
  if (!protocol.value()->yields_distribution()) {
    return UsageError(Status::InvalidArgument(
        "numdist: method " + flags.method + " (" + protocol.value()->name() +
        ") answers range queries only and yields no distribution"));
  }

  LoadOptions load;
  load.column = flags.column;
  load.delimiter = flags.delimiter;
  load.skip_header = flags.skip_header;
  load.min_value = flags.min_value;
  load.max_value = flags.max_value;
  Result<std::vector<double>> values = LoadNumericFile(flags.input, load);
  if (!values.ok()) return Fail(values.status());
  fprintf(stderr, "loaded %zu values from %s\n", values.value().size(),
          flags.input.c_str());

  ShardOptions shard_opts;
  shard_opts.threads = flags.threads;
  Result<MethodOutput> output = RunProtocolSharded(
      *protocol.value(), values.value(), flags.seed, shard_opts);
  if (!output.ok()) return Fail(output.status());
  const std::vector<double>& dist = output->distribution;

  const double span = flags.max_value - flags.min_value;
  if (flags.csv) {
    printf("bucket_lo,bucket_hi,probability\n");
    for (size_t i = 0; i < dist.size(); ++i) {
      const double lo = flags.min_value + span * i / dist.size();
      const double hi = flags.min_value + span * (i + 1) / dist.size();
      printf("%.6g,%.6g,%.8e\n", lo, hi, dist[i]);
    }
    return 0;
  }

  printf("method=%s epsilon=%.3f buckets=%zu n=%zu\n", flags.method.c_str(),
         flags.epsilon, flags.buckets, values.value().size());
  printf("estimated mean     : %.6g\n",
         flags.min_value + span * HistMean(dist));
  printf("estimated stddev   : %.6g\n",
         span * std::sqrt(HistVariance(dist)));
  for (double beta : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    printf("estimated q%-4.0f    : %.6g\n", beta * 100,
           flags.min_value + span * Quantile(dist, beta));
  }
  // Compact sketch of the estimated distribution: min(16, d) bins, bucket
  // i in bin i * bins / d, so every bucket lands in exactly one bin.
  const size_t sketch_bins = std::min<size_t>(16, dist.size());
  printf("\ndistribution sketch (%zu bins):\n", sketch_bins);
  double peak = 0.0;
  std::vector<double> coarse(sketch_bins, 0.0);
  for (size_t i = 0; i < dist.size(); ++i) {
    coarse[i * sketch_bins / dist.size()] += dist[i];
  }
  for (double c : coarse) peak = std::max(peak, c);
  for (size_t b = 0; b < sketch_bins; ++b) {
    const double lo = flags.min_value + span * b / sketch_bins;
    const int bars =
        peak > 0 ? static_cast<int>(40.0 * coarse[b] / peak) : 0;
    printf("  %10.4g | %-40.*s %.3f%%\n", lo, bars,
           "########################################", 100.0 * coarse[b]);
  }
  return 0;
}
