// Collector benchmark: one workload per process against an in-process
// net::CollectorServer, end-to-end figures with tracing off, per-layer
// figures from a separate traced run.
//
//   numdist_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The run repeats fixed-work rounds (fresh collector, load, drain, checks)
// until --seconds are used, after one untimed warm-up round; timings and
// rates are medians over the rounds. --trace 0 prints the end-to-end metrics.
// --trace 1 spends half the time on untraced rounds, then runs three
// traced rounds (the ratio of their throughputs is the tracing overhead),
// replays one pass of frames stage by stage, and prints the per-layer
// metrics. Every figure is read from one Recorder, which is also written
// to .bench_work/<workload>-trace<0|1>.jsonl (spans with self times, and
// every sample series). The last stdout line is the result JSON.
#include <signal.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernels.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kTracedRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

/// CPU model, core count, kernel release and the active kernel ISA tier,
/// so results from different machines are never compared silently.
std::string MachineJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  utsname uts{};
  const std::string kernel = uname(&uts) == 0 ? uts.release : "unknown";
  return "{\"cpu\":" + JsonString(cpu) + ",\"cores\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"kernel\":" + JsonString(kernel) + ",\"isa\":" +
         JsonString(numdist::kernels::IsaName(numdist::kernels::ActiveIsa())) +
         "}";
}

/// "p99", "p99.9": the display name of quantile q.
std::string PercentName(double q) {
  char buf[32];
  snprintf(buf, sizeof(buf), "p%g", q * 100);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  size_t samples = 0;
  std::string note;
};

/// Builds metrics from the recorder's series.
class MetricTable {
 public:
  explicit MetricTable(const Recorder& rec) : rec_(rec) {}

  void Median(const std::string& name, const std::string& unit,
              const std::string& series, std::string note = "") {
    const std::vector<double> s = rec_.Series(series);
    rows_.push_back({name, unit, perfbench::Median(s), s.size(),
                     std::move(note)});
  }
  void Mean(const std::string& name, const std::string& unit,
            const std::string& series) {
    const std::vector<double> s = rec_.Series(series);
    double sum = 0.0;
    for (const double v : s) sum += v;
    rows_.push_back({name, unit, s.empty() ? 0.0 : sum / s.size(), s.size(),
                     ""});
  }
  void Sum(const std::string& name, const std::string& unit,
           const std::string& series) {
    const std::vector<double> s = rec_.Series(series);
    double sum = 0.0;
    for (const double v : s) sum += v;
    rows_.push_back({name, unit, sum, s.size(), ""});
  }
  void Pct(const std::string& name, const std::string& unit,
           const std::string& series, double q, std::string note = "") {
    const std::vector<double> s = rec_.Series(series);
    rows_.push_back({name, unit, Percentile(s, q), s.size(),
                     note.empty() ? PercentName(q)
                                  : PercentName(q) + " " + note});
  }
  void Ratio(const std::string& name, const std::string& num,
             const std::string& den) {
    const double d = perfbench::Median(rec_.Series(den));
    rows_.push_back({name, "ratio",
                     d == 0.0 ? 0.0 : perfbench::Median(rec_.Series(num)) / d,
                     rec_.Series(num).size(), num + " / " + den});
  }

  const std::vector<Metric>& rows() const { return rows_; }

 private:
  const Recorder& rec_;
  std::vector<Metric> rows_;
};

std::vector<Metric> EndToEnd(const Recorder& rec, const WorkloadConfig& cfg) {
  MetricTable t(rec);
  t.Median("setup_s", "s", "e2e.setup_s");
  t.Median("peak_rss_mb", "MB", "e2e.peak_rss_mb");
  t.Median("reports_per_s", "reports/s", "e2e.reports_per_s");
  t.Median("latency_p50_ms", "ms", "e2e.latency_p50_ms",
           std::string("p50 per round, ") + cfg.latency_what);
  return t.rows();
}

std::vector<Metric> PerLayer(const Recorder& rec, const WorkloadConfig& cfg) {
  MetricTable t(rec);
  // A tail over a few thousand samples is mostly the reading of the shared
  // host's worst moments (fsync stalls on its disk, stolen cores), too
  // unsteady for a bounded end-to-end figure; it is reported here, from the
  // untraced rounds.
  t.Median("latency_tail_ms", "ms", "e2e.latency_tail_ms",
           PercentName(perfbench::Median(rec.Series("e2e.latency_tail_q"))) +
               " per round, " + cfg.latency_what);
  for (const char* counter :
       {"frames_absorbed", "bytes_received", "pauses", "connection_errors",
        "duplicates", "acks_queued", "frames_replicated", "estimate_ticks"}) {
    t.Sum(std::string("net.") + counter, "count",
          std::string("traced.net.") + counter);
  }
  t.Pct("net.decoded_to_absorbed_p50_us", "us",
        "traced.net.decoded_to_absorbed_us", 0.5);
  t.Pct("net.decoded_to_absorbed_p99_us", "us",
        "traced.net.decoded_to_absorbed_us", 0.99);
  t.Median("net.replica_write_us", "us", "replay.replica_write_us");
  t.Median("serve.framing.feed_ns_per_byte", "ns/B", "replay.feed_ns_per_byte");
  t.Median("serve.collector.handle_frame_us", "us", "replay.handle_frame_us");
  t.Median("serve.collector.make_ms", "ms", "replay.collector_make_ms");
  t.Median("serve.wal.append_us", "us", "replay.wal_append_us");
  t.Median("serve.wal.sync_us", "us", "replay.wal_sync_us");
  t.Median("serve.wal.compact_ms", "ms", "replay.wal_compact_ms");
  t.Median("serve.wal.bytes_per_report", "B/report",
           "replay.wal_bytes_per_report");
  t.Median("wire.decode_us_per_frame", "us", "replay.decode_us_per_frame");
  t.Median("wire.frame_bytes_per_report", "B/report",
           "replay.frame_bytes_per_report");
  t.Median("wire.make_protocol_ms", "ms", "replay.make_protocol_ms");
  t.Median("protocol.absorb_ns_per_report", "ns", "replay.absorb_ns_per_report");
  t.Median("core.sw_estimator_make_ms", "ms", "replay.sw_estimator_make_ms");
  t.Median("core.reconstruct_ms", "ms", "replay.reconstruct_ms");
  t.Median("core.em_iterations", "count", "replay.em_iterations");
  t.Pct("eval.tick_ms_p50", "ms", "replay.tick_ms", 0.5);
  t.Pct("eval.tick_ms_p90", "ms", "replay.tick_ms", 0.9);
  t.Mean("eval.tick_iterations", "count", "replay.tick_iterations");
  t.Median("eval.estimate_w1", "1", "traced.estimate_w1");
  // Single-threaded EM wall time follows the shared host's per-core speed,
  // which drifts by up to 30% over a minute: too unsteady for a bounded
  // end-to-end figure, so it is reported here, from the untraced rounds.
  t.Median("final_estimate_s", "s", "e2e.final_estimate_s",
           "CollectorServer::Reconstruct after Run");
  t.Pct("bench.gen_late_p90_ms", "ms", "traced.gen_late_ms", 0.9,
        "open loop: behind schedule; closed loop: one send call");
  t.Ratio("bench.tracing_overhead", "traced.reports_per_s",
          "e2e.reports_per_s");
  return t.rows();
}

/// Per span name: count, total and self time, from the traced rounds.
void PrintSpanSummary(const Recorder& rec) {
  const std::vector<Span> spans = rec.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  struct Row {
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    Row& row = rows[rec.SpanName(spans[i].name)];
    ++row.count;
    row.total_ms += (spans[i].end_ns - spans[i].start_ns) / 1e6;
    row.self_ms += self[i] / 1e6;
  }
  printf("# %-26s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, row] : rows) {
    printf("# %-26s %10zu %14.3f %14.3f\n", name.c_str(), row.count,
           row.total_ms, row.self_ms);
  }
}

/// Repeats rounds until `seconds` would be exceeded (at least one round).
bool RunRounds(const RunContext& ctx, const std::string& prefix,
               double seconds, uint64_t* round) {
  const Clock::time_point begin = Clock::now();
  double last = 0.0;
  uint64_t rounds = 0;
  bool ok = true;
  do {
    const Clock::time_point r0 = Clock::now();
    ok = RunRound(ctx, prefix, (*round)++);
    last = SecondsBetween(r0, Clock::now());
    ++rounds;
  } while (ok && SecondsBetween(begin, Clock::now()) + last <= seconds);
  ctx.rec->Add(prefix + "rounds", static_cast<double>(rounds));
  return ok;
}

int Main(int argc, char** argv) {
  Args args;
  const WorkloadConfig* cfg = nullptr;
  if (ParseArgs(argc, argv, &args)) cfg = FindWorkload(args.workload);
  if (cfg == nullptr) {
    fprintf(stderr,
            "usage: numdist_perfbench --workload "
            "ingest_raw|durable_acked|estimate_live --seed N --seconds S "
            "--trace 0|1\n");
    return 2;
  }
  // A collector that drops a connection must surface as a write error,
  // not kill the benchmark.
  signal(SIGPIPE, SIG_IGN);

  const std::string work_root = ".bench_work";
  const std::string work_dir =
      work_root + "/" + cfg->name + "-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    fprintf(stderr, "cannot create %s: %s\n", work_dir.c_str(),
            ec.message().c_str());
    return 1;
  }

  numdist::Result<Pool> pool = MakePool(*cfg, args.seed);
  if (!pool.ok()) {
    fprintf(stderr, "frame pool: %s\n", pool.status().ToString().c_str());
    return 1;
  }
  StartExecutor();
  Recorder rec(/*tracing=*/false);
  Tally tally;
  const RunContext ctx{*cfg, pool.value(), work_dir, &rec, &tally};
  uint64_t round = 0;
  // One untimed round first: the first collector of a process pays for
  // page faults and thread start-up that later rounds do not.
  const Clock::time_point begin = Clock::now();
  const bool warm = RunRound(ctx, "warmup.", round++);
  const double left =
      std::max(0.0, args.seconds - SecondsBetween(begin, Clock::now()));
  if (warm && !args.trace) {
    RunRounds(ctx, "e2e.", left, &round);
  } else if (warm && RunRounds(ctx, "e2e.", left / 2, &round)) {
    // A fixed number of traced rounds bounds the span count (a traced
    // ingest_raw round alone keeps 80000 send spans).
    rec.set_tracing(true);
    bool ok = true;
    for (int i = 0; ok && i < kTracedRounds; ++i) {
      ok = RunRound(ctx, "traced.", round++);
    }
    if (ok) Replay(ctx);
    rec.set_tracing(false);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  rec.Add("e2e.peak_rss_mb", usage.ru_maxrss / 1024.0);  // ru_maxrss is KiB
  std::filesystem::remove_all(work_dir, ec);

  const std::vector<Metric> metrics =
      args.trace ? PerLayer(rec, *cfg) : EndToEnd(rec, *cfg);
  const std::string context =
      "{\"workload\":" + JsonString(cfg->name) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"seconds\":" + FormatNumber(args.seconds) +
      ",\"trace\":" + (args.trace ? "1" : "0") +
      ",\"rounds\":" + std::to_string(round) + ",\"machine\":" + MachineJson() +
      "}";
  const std::string dump = work_root + "/" + cfg->name + "-trace" +
                           (args.trace ? "1" : "0") + ".jsonl";
  if (!rec.WriteJsonl(dump, context)) {
    fprintf(stderr, "cannot write %s\n", dump.c_str());
  }

  for (const std::string& error : tally.errors) {
    fprintf(stderr, "FAILED: %s\n", error.c_str());
  }
  printf("# context %s\n", context.c_str());
  if (args.trace) PrintSpanSummary(rec);
  printf("# %-32s %16s %-10s %9s  %s\n", "metric", "value", "unit", "samples",
         "note");
  std::string json;
  for (const Metric& m : metrics) {
    printf("# %-32s %16.6g %-10s %9zu  %s\n", m.name.c_str(), m.value,
           m.unit.c_str(), m.samples, m.note.c_str());
    json += std::string(json.empty() ? "" : ", ") + JsonString(m.name) +
            ": {\"value\": " + FormatNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const bool correct = tally.failed == 0;
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         correct ? "true" : "false",
         static_cast<unsigned long long>(tally.attempted),
         static_cast<unsigned long long>(tally.failed), json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
