// Taxi telemetry: a fleet operator collects pickup times-of-day under LDP
// and answers range queries ("what fraction of pickups fall between 5pm and
// 8pm?") from the privately reconstructed distribution — the paper's
// range-query workload (Figure 3) as an application.
//
//   ./taxi_telemetry [epsilon] [num_users]
#include <cstdio>
#include <cstdlib>

#include "common/histogram.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "metrics/queries.h"
#include "wire/wire.h"

namespace {

double HourToUnit(double hour) { return hour / 24.0; }

void PrintWindow(const char* label, double lo_hour, double hi_hour,
                 const numdist::MethodOutput& sw,
                 const numdist::MethodOutput& hh,
                 const std::vector<double>& truth) {
  const double lo = HourToUnit(lo_hour);
  const double alpha = HourToUnit(hi_hour - lo_hour);
  printf("  %-14s %8.2f%% %10.2f%% %10.2f%%\n", label,
         100 * numdist::RangeQuery(truth, lo, alpha),
         100 * sw.range_query(lo, alpha), 100 * hh.range_query(lo, alpha));
}

}  // namespace

int main(int argc, char** argv) {
  const double epsilon = argc > 1 ? std::atof(argv[1]) : 1.0;
  const size_t n = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 200000;
  const size_t d = 1024;

  numdist::Rng rng(3);
  const std::vector<double> pickups =
      numdist::GenerateDataset(numdist::DatasetId::kTaxi, n, rng);
  const std::vector<double> truth = numdist::hist::FromSamples(pickups, d);

  printf("Taxi pickup telemetry under %.2f-LDP, %zu trips\n\n", epsilon, n);

  const numdist::ProtocolPtr sw_protocol =
      numdist::wire::MakeProtocolForSpec(
          numdist::wire::ParseMethodSpec("sw-ems", epsilon, d).ValueOrDie())
          .ValueOrDie();
  numdist::Rng sw_rng(17);
  const numdist::MethodOutput sw =
      numdist::RunProtocol(*sw_protocol, pickups, sw_rng).ValueOrDie();

  const numdist::ProtocolPtr hh_protocol =
      numdist::wire::MakeProtocolForSpec(
          numdist::wire::ParseMethodSpec("hh", epsilon, d).ValueOrDie())
          .ValueOrDie();
  numdist::Rng hh_rng(17);
  const numdist::MethodOutput hh =
      numdist::RunProtocol(*hh_protocol, pickups, hh_rng).ValueOrDie();

  printf("  %-14s %9s %11s %11s\n", "window", "true", "SW-EMS", "HH");
  PrintWindow("0am-5am", 0, 5, sw, hh, truth);
  PrintWindow("5am-9am", 5, 9, sw, hh, truth);
  PrintWindow("9am-12pm", 9, 12, sw, hh, truth);
  PrintWindow("12pm-5pm", 12, 17, sw, hh, truth);
  PrintWindow("5pm-8pm", 17, 20, sw, hh, truth);
  PrintWindow("8pm-12am", 20, 24, sw, hh, truth);

  // Busiest hour according to the private estimate.
  int best_hour = 0;
  double best_mass = 0.0;
  for (int hour = 0; hour < 24; ++hour) {
    const double mass =
        sw.range_query(HourToUnit(hour), HourToUnit(1.0));
    if (mass > best_mass) {
      best_mass = mass;
      best_hour = hour;
    }
  }
  printf("\n  busiest hour (estimated privately): %02d:00-%02d:00 (%.2f%%)\n",
         best_hour, best_hour + 1, 100 * best_mass);
  return 0;
}
