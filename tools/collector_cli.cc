// collector_cli — one aggregator process of the distributed collector.
// Every mode (collector, listen, file and network coordinator) serves
// through one engine, net::CollectorServer, and so every mode can run live
// estimation.
//
// Collector mode (default): read length-prefixed wire frames (report
// chunks from clients and/or sketch frames from other collectors) from
// stdin or --in until EOF, then emit this process's aggregate as
// length-prefixed sketch frames (one per tenant; exactly one for untagged
// input) on stdout or --out. Acks for sequence-stamped frames go to
// stdout as they become durable, ahead of any sketch written there. The
// input is the server's one connection, so it exits once the input ends;
// a stream that ends mid-frame (or stalls past --read-timeout-ms) exits
// non-zero with the typed error and writes no sketch:
//
//   report_client ... | collector_cli --method=sw-ems --epsilon=1.0
//       --buckets=64 --out=shard0.sketch
//
// Listen mode (--listen): the same collector as a network server — an
// epoll event loop multiplexing any number of concurrent client
// connections (report_client --connect --connections=N) into one
// aggregate. SIGTERM/SIGINT trigger a graceful drain: stop accepting,
// serve every open connection to EOF (or, with --read-timeout-ms, until it
// stalls mid-frame that long), flush, emit the sketch. The result
// is byte-identical to the stdio pipeline over the same frames, for any
// connection interleaving:
//
//   collector_cli --method=sw-ems --epsilon=1.0 --buckets=64
//       --listen=tcp:0 --port-file=port.txt --out=shard0.sketch
//
// --out may itself be an endpoint (tcp:HOST:PORT or unix:PATH): the
// sketch frames are dialed upstream to a coordinator instead of written
// to a file, which is how a collector tree is assembled without shared
// filesystems.
//
// Coordinator mode (--merge): merge sketches, reconstruct, and print the
// estimated distribution (or a range-query grid for range-only methods).
// Sketches come either from files, each one more stream like --in (a torn
// file fails the run; merges wider than the descriptor limit use a tree):
//
//   collector_cli --method=sw-ems --epsilon=1.0 --buckets=64
//       --merge=shard0.sketch,shard1.sketch --csv
//
// or over the network (bare --merge with --listen): the coordinator
// accepts sketch frames on its listener and reconstructs after draining —
// --expect-frames=N stops it after N sketches, SIGTERM at any point:
//
//   collector_cli --method=sw-ems --epsilon=1.0 --buckets=64
//       --merge --listen=tcp:7070 --expect-frames=4 --csv
//
// --merge=FILES with --emit-sketch re-emits the merged state as sketch
// frames instead of reconstructing: an interior node of a merge TREE whose
// output feeds another --merge level. Any tree shape over the same shards
// yields a byte-identical root sketch (tests/merge_tree_test.cc).
//
// --wal=DIR makes collector and listen modes durable: the write-ahead log
// (serve/wal.h), a directory of segment files, is replayed before serving
// and every accepted frame is appended, so a collector SIGKILLed at any
// byte offset restarts with the exact pre-crash state
// (tests/wal_process_test.cc).
//
// All endpoints must agree on (--method, --epsilon, --buckets): frames
// carrying any other configuration are rejected with a typed error
// (docs/WIRE_FORMAT.md). Merging is exact integer addition, so the
// coordinator's output is bit-identical to a single-process run over the
// same report chunks, in any merge order.
#include <csignal>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/collector.h"
#include "serve/framing.h"
#include "wire/wire.h"

using namespace numdist;
using numdist::tools::Fail;
using numdist::tools::FlagValue;

namespace {

struct CliFlags {
  std::string method = "sw-ems";
  double epsilon = 1.0;
  size_t buckets = 64;
  std::string in_path;   // empty = stdin
  std::string out_path;  // empty = stdout; tcp:/unix: = dial a coordinator
  std::vector<std::string> merge_files;  // --merge=FILES -> coordinator mode
  bool merge_listen = false;  // bare --merge: coordinate over --listen
  std::string listen;    // tcp:PORT / unix:PATH -> event-loop server mode
  std::string port_file; // write the bound endpoint here (tcp:0 discovery)
  uint64_t expect_frames = 0;
  int read_timeout_ms = 0;
  bool csv = false;
  // Live estimation (any serving mode; eval/incremental.h). A cadence of 0
  // on both knobs leaves estimation off entirely.
  uint64_t estimate_every_frames = 0;  // tick after N newly absorbed frames
  int64_t estimate_every_ms = 0;       // ...and/or every T milliseconds
  double estimate_half_life = 0.0;     // > 0: forgetting half-life (reports)
  size_t estimate_max_iterations = 0;  // per-tick EM budget (0 = default)
  std::string estimate_out;            // sketch-frame stream per tick
  // Durability (serve/wal.h): replay the log before serving, append every
  // accepted frame, compact to a checkpoint at clean exit.
  std::string wal_path;
  uint64_t wal_checkpoint_every = 0;  // compact after N appended frames
  bool wal_sync = false;              // fsync once per reactor batch
  uint64_t wal_segment_bytes = 0;     // seal segments at N bytes (0 = never)
  // Fault tolerance (net/server.h): stream absorbed frames to a hot
  // standby, or BE that standby (serve the replication stream; on primary
  // death, drain and emit the sketch; it serves no clients).
  std::string replicate_to;
  bool standby = false;
  // Per-tenant budgets: ID:MAX_REPORTS[:MAX_EPSILON],... (0 = unlimited).
  std::string tenant_budgets;
  // Coordinator file-merge: emit the merged per-tenant sketch frames to
  // --out instead of reconstructing — the composable merge-tree mode.
  bool emit_sketch = false;
};

void Usage() {
  fprintf(stderr,
          "usage: collector_cli --method=M --epsilon=E --buckets=D\n"
          "                     [--in=FILE] [--read-timeout-ms=T]\n"
          "                     [--out=FILE|tcp:HOST:PORT|unix:PATH]\n"
          "       collector_cli ... --listen=tcp:PORT|unix:PATH\n"
          "                     [--port-file=FILE] [--expect-frames=N]\n"
          "                     [--read-timeout-ms=T]\n"
          "       collector_cli ... --merge=a.sketch,b.sketch[,...] [--csv]\n"
          "       collector_cli ... --merge=... --emit-sketch [--out=FILE]\n"
          "       collector_cli ... --merge --listen=tcp:PORT\n"
          "                     --expect-frames=N [--csv]\n"
          "durability (collector + listen modes; serve/wal.h):\n"
          "       --wal=DIR [--wal-checkpoint-every=N] [--wal-sync]\n"
          "       [--wal-segment-bytes=N]   (seal each DIR/wal-*.ndwl at N)\n"
          "replication (listen mode; net/server.h):\n"
          "       primary: --replicate-to=tcp:HOST:PORT|unix:PATH\n"
          "       standby: --standby --listen=...   (on primary death it\n"
          "                drains and emits its sketch; serves no clients)\n"
          "multi-tenancy:\n"
          "       --tenant-budget=ID:MAX_REPORTS[:MAX_EPSILON][,...]\n"
          "live estimation (every mode, sw-ems/sw-em only):\n"
          "       --estimate-every-frames=N and/or --estimate-every-ms=T\n"
          "       [--estimate-half-life=R]   (R > 0: forgetting window)\n"
          "       [--estimate-max-iterations=K]\n"
          "       [--estimate-out=FILE]   (cumulative sketch frame per\n"
          "                                tick; not collector input)\n"
          "methods: sw-ems sw-em cfo-<bins> cfo-grr-<bins> cfo-olh-<bins>\n"
          "         cfo-oue-<bins> hh hh-admm haar-hrr\n");
}

bool ParseCli(int argc, char** argv, CliFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const char* v = FlagValue(arg, "--method=")) {
      flags->method = v;
    } else if (const char* v = FlagValue(arg, "--epsilon=")) {
      flags->epsilon = atof(v);
    } else if (const char* v = FlagValue(arg, "--buckets=")) {
      flags->buckets = static_cast<size_t>(atoll(v));
    } else if (const char* v = FlagValue(arg, "--in=")) {
      flags->in_path = v;
    } else if (const char* v = FlagValue(arg, "--out=")) {
      flags->out_path = v;
    } else if (const char* v = FlagValue(arg, "--merge=")) {
      flags->merge_files.clear();
      std::stringstream paths(v);
      for (std::string path; std::getline(paths, path, ',');) {
        if (!path.empty()) flags->merge_files.push_back(path);
      }
      if (flags->merge_files.empty()) {
        fprintf(stderr, "--merge needs at least one sketch file\n");
        return false;
      }
    } else if (arg == "--merge") {
      flags->merge_listen = true;
    } else if (const char* v = FlagValue(arg, "--listen=")) {
      flags->listen = v;
    } else if (const char* v = FlagValue(arg, "--port-file=")) {
      flags->port_file = v;
    } else if (const char* v = FlagValue(arg, "--expect-frames=")) {
      flags->expect_frames = static_cast<uint64_t>(atoll(v));
    } else if (const char* v = FlagValue(arg, "--read-timeout-ms=")) {
      flags->read_timeout_ms = atoi(v);
    } else if (const char* v = FlagValue(arg, "--estimate-every-frames=")) {
      flags->estimate_every_frames = static_cast<uint64_t>(atoll(v));
    } else if (const char* v = FlagValue(arg, "--estimate-every-ms=")) {
      flags->estimate_every_ms = atoll(v);
    } else if (const char* v = FlagValue(arg, "--estimate-half-life=")) {
      flags->estimate_half_life = atof(v);
    } else if (const char* v = FlagValue(arg, "--estimate-max-iterations=")) {
      flags->estimate_max_iterations = static_cast<size_t>(atoll(v));
    } else if (const char* v = FlagValue(arg, "--estimate-out=")) {
      flags->estimate_out = v;
    } else if (const char* v = FlagValue(arg, "--wal=")) {
      flags->wal_path = v;
    } else if (const char* v = FlagValue(arg, "--wal-checkpoint-every=")) {
      flags->wal_checkpoint_every = static_cast<uint64_t>(atoll(v));
    } else if (arg == "--wal-sync") {
      flags->wal_sync = true;
    } else if (const char* v = FlagValue(arg, "--wal-segment-bytes=")) {
      flags->wal_segment_bytes = static_cast<uint64_t>(atoll(v));
    } else if (const char* v = FlagValue(arg, "--replicate-to=")) {
      flags->replicate_to = v;
    } else if (arg == "--standby") {
      flags->standby = true;
    } else if (const char* v = FlagValue(arg, "--tenant-budget=")) {
      flags->tenant_budgets = v;
    } else if (arg == "--emit-sketch") {
      flags->emit_sketch = true;
    } else if (arg == "--csv") {
      flags->csv = true;
    } else {
      fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->merge_listen && flags->listen.empty()) {
    fprintf(stderr, "bare --merge needs --listen (or use --merge=FILES)\n");
    return false;
  }
  if (flags->emit_sketch && flags->merge_files.empty()) {
    fprintf(stderr, "--emit-sketch needs --merge=FILES\n");
    return false;
  }
  if (!flags->merge_files.empty() &&
      (!flags->listen.empty() || !flags->in_path.empty() ||
       !flags->wal_path.empty())) {
    fprintf(stderr, "--merge=FILES is the input: it takes no --in, "
            "--listen or --wal\n");
    return false;
  }
  if (flags->wal_path.empty() &&
      (flags->wal_checkpoint_every > 0 || flags->wal_sync ||
       flags->wal_segment_bytes > 0)) {
    fprintf(stderr,
            "--wal-checkpoint-every/--wal-sync/--wal-segment-bytes "
            "need --wal=DIR\n");
    return false;
  }
  if (!flags->replicate_to.empty() && flags->listen.empty()) {
    fprintf(stderr, "--replicate-to needs --listen (the primary serves "
            "clients while it replicates)\n");
    return false;
  }
  if (flags->standby && flags->listen.empty()) {
    fprintf(stderr, "--standby needs --listen (the replication endpoint "
            "the primary dials)\n");
    return false;
  }
  if (flags->standby && !flags->replicate_to.empty()) {
    fprintf(stderr, "--standby and --replicate-to are mutually exclusive "
            "(chained standbys are not supported)\n");
    return false;
  }
  const bool estimating =
      flags->estimate_every_frames > 0 || flags->estimate_every_ms > 0;
  if (!estimating &&
      (!flags->estimate_out.empty() || flags->estimate_half_life != 0.0 ||
       flags->estimate_max_iterations > 0)) {
    fprintf(stderr,
            "estimate flags need a cadence (--estimate-every-frames "
            "and/or --estimate-every-ms)\n");
    return false;
  }
  if (!std::isfinite(flags->estimate_half_life) ||
      flags->estimate_half_life < 0.0) {
    fprintf(stderr, "--estimate-half-life must be a finite R >= 0\n");
    return false;
  }
  return true;
}

bool IsEndpointSpec(const std::string& s) {
  return s.rfind("tcp:", 0) == 0 || s.rfind("unix:", 0) == 0;
}

using TenantBudgets = std::vector<std::pair<uint32_t, serve::TenantBudget>>;

// Parses --tenant-budget=ID:MAX_REPORTS[:MAX_EPSILON][,...]. A cap of 0
// means unlimited on that axis (TenantBudget's convention).
bool ParseTenantBudgets(const std::string& spec, TenantBudgets* out) {
  std::stringstream ss(spec);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    if (entry.empty()) continue;
    serve::TenantBudget budget;
    unsigned long long tenant = 0, max_reports = 0;
    double max_epsilon = 0.0;
    const int matched = sscanf(entry.c_str(), "%llu:%llu:%lf", &tenant,
                               &max_reports, &max_epsilon);
    if (matched < 2 || tenant > 0xffffffffull) {
      fprintf(stderr, "bad --tenant-budget entry '%s'\n", entry.c_str());
      return false;
    }
    budget.max_reports = max_reports;
    budget.max_epsilon = matched >= 3 ? max_epsilon : 0.0;
    out->emplace_back(static_cast<uint32_t>(tenant), budget);
  }
  if (out->empty()) {
    fprintf(stderr, "--tenant-budget holds no entries\n");
    return false;
  }
  return true;
}

// One stderr line summarizing what WAL recovery replayed, including the
// typed torn-tail diagnosis when the previous process died mid-record.
void ReportWalRecovery(const serve::WalReplayStats& stats) {
  fprintf(stderr,
          "wal: recovered %llu frame(s), %llu checkpoint(s), "
          "%llu sequence checkpoint(s) from %llu segment(s), "
          "%llu clean byte(s)\n",
          static_cast<unsigned long long>(stats.frames),
          static_cast<unsigned long long>(stats.checkpoints),
          static_cast<unsigned long long>(stats.seq_checkpoints),
          static_cast<unsigned long long>(stats.segments),
          static_cast<unsigned long long>(stats.clean_bytes));
  if (!stats.tail.ok()) {
    fprintf(stderr, "wal: discarded torn tail: %s\n",
            stats.tail.message().c_str());
  }
}

int PrintEstimate(const CliFlags& flags, const wire::MethodSpec& spec,
                  uint64_t num_reports, const MethodOutput& output) {
  if (!output.distribution.empty()) {
    if (flags.csv) {
      // Machine mode: full-precision rows, byte-diffable across merge
      // orders and against the in-process run.
      printf("bucket,probability\n");
      for (size_t i = 0; i < output.distribution.size(); ++i) {
        printf("%zu,%.17g\n", i, output.distribution[i]);
      }
    } else {
      // Human mode: configuration plus summary statistics of the merged
      // estimate (full data via --csv).
      const size_t d = output.distribution.size();
      double mean = 0.0, m2 = 0.0;
      for (size_t i = 0; i < d; ++i) {
        const double mid = (static_cast<double>(i) + 0.5) /
                           static_cast<double>(d);
        mean += output.distribution[i] * mid;
        m2 += output.distribution[i] * mid * mid;
      }
      const double var = std::max(0.0, m2 - mean * mean);
      printf("method=%s reports=%llu buckets=%zu\n",
             wire::MethodSpecName(spec).c_str(),
             static_cast<unsigned long long>(num_reports), d);
      printf("estimated mean=%.6f stddev=%.6f mass[0,0.5)=%.6f\n", mean,
             std::sqrt(var), output.range_query(0.0, 0.5));
    }
  } else {
    // Range-only methods (hh, haar-hrr): a deterministic query grid so
    // coordinator outputs stay diffable.
    const size_t grid = 16;
    if (flags.csv) {
      printf("lo,alpha,mass\n");
      for (size_t i = 0; i < grid; ++i) {
        const double lo = static_cast<double>(i) / grid;
        printf("%.17g,%.17g,%.17g\n", lo, 1.0 / grid,
               output.range_query(lo, 1.0 / grid));
      }
    } else {
      printf("%-8s %-8s %s\n", "lo", "alpha", "mass");
      for (size_t i = 0; i < grid; ++i) {
        const double lo = static_cast<double>(i) / grid;
        printf("%-8.4f %-8.4f %.6f\n", lo, 1.0 / grid,
               output.range_query(lo, 1.0 / grid));
      }
    }
  }
  return 0;
}

// Writes length-prefixed sketch frames either to a local file/stdout or
// upstream over a freshly dialed connection (--out=tcp:/unix:). Multiple
// frames (one per tenant; EncodeSketches) go over one connection / into
// one file, exactly as a serving collector would emit them.
Status EmitSketches(const CliFlags& flags,
                    const std::vector<std::string>& sketches) {
  if (IsEndpointSpec(flags.out_path)) {
    NUMDIST_ASSIGN_OR_RETURN(const net::Endpoint upstream,
                             net::ParseEndpoint(flags.out_path));
    NUMDIST_ASSIGN_OR_RETURN(net::Fd fd, net::Dial(upstream));
    std::string prefixed;
    for (const std::string& sketch : sketches) {
      serve::AppendFramePrefix(sketch.size(), &prefixed);
      prefixed.append(sketch);
    }
    return net::WriteAll(fd.get(), prefixed);
  }
  std::ofstream file_out;
  if (!flags.out_path.empty()) {
    file_out.open(flags.out_path, std::ios::binary);
    if (!file_out) {
      return Status::InvalidArgument("collector: cannot open '" +
                                     flags.out_path + "'");
    }
  }
  std::ostream& out = flags.out_path.empty() ? std::cout : file_out;
  for (const std::string& sketch : sketches) {
    NUMDIST_RETURN_NOT_OK(serve::WriteFrame(out, sketch));
  }
  out.flush();
  if (!out) return Status::Internal("collector: sketch write failed");
  return Status::OK();
}

// Shared between RunServer and the estimate sink closure: the sink is
// handed to CollectorServer::Make before the server exists, so `server` is
// attached right after Make succeeds.
struct EstimateSinkState {
  std::ofstream out;     // open iff --estimate-out was given
  bool out_failed = false;
  const net::CollectorServer* server = nullptr;
};

// Per-tick stderr progress line plus (optionally) the server's sketch frame
// appended to --estimate-out. The sink runs between rounds, when that
// sketch holds exactly the counts the estimate was computed from. A write
// failure disables the file stream but never the server: live estimation
// is observability, not the aggregate.
void HandleEstimateTick(EstimateSinkState* est, const net::EstimateTick& tick) {
  fprintf(stderr,
          "estimate tick %llu: reports=%llu frames=%llu iterations=%zu "
          "(%zu total over %zu run(s)) log-likelihood=%.6f\n",
          static_cast<unsigned long long>(tick.tick),
          static_cast<unsigned long long>(tick.reports),
          static_cast<unsigned long long>(tick.frames), tick.em.iterations,
          tick.checkpoint.total_iterations, tick.checkpoint.runs,
          tick.em.log_likelihood);
  if (!est->out.is_open() || est->out_failed || est->server == nullptr) {
    return;
  }
  const Result<std::string> sketch = est->server->EncodeSketch();
  Status st = sketch.status();
  if (st.ok()) {
    st = serve::WriteFrame(est->out, sketch.value());
    est->out.flush();
    if (st.ok() && !est->out) {
      st = Status::Internal("collector: estimate frame write failed");
    }
  }
  if (!st.ok()) {
    fprintf(stderr, "warning: --estimate-out disabled: %s\n",
            st.message().c_str());
    est->out_failed = true;
  }
}

net::CollectorServer* g_server = nullptr;

void OnDrainSignal(int) {
  // RequestDrain is async-signal-safe: an atomic store + one eventfd
  // write. The event loop notices on its next wakeup.
  if (g_server != nullptr) g_server->RequestDrain();
}

// Descriptors left free past the --merge files for transient library use:
// a sanitizer runtime probes memory through a pipe, and with no descriptor
// free its checks misfire.
constexpr rlim_t kSpareDescriptors = 16;

// Opens one --merge file, `files_left` counting it; the server holds every
// file open until it ends. EMFILE means every descriptor below the soft
// limit is taken, so the limit rises by the files left plus the spares,
// never past the hard limit (wider merges use a tree).
int OpenMergeFile(const std::string& path, size_t files_left) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct rlimit limit;
  if (fd >= 0 || errno != EMFILE || getrlimit(RLIMIT_NOFILE, &limit) != 0 ||
      limit.rlim_cur >= limit.rlim_max) {
    return fd;
  }
  limit.rlim_cur = std::min<rlim_t>(
      limit.rlim_max, limit.rlim_cur + files_left + kSpareDescriptors);
  if (setrlimit(RLIMIT_NOFILE, &limit) != 0) return -1;
  return open(path.c_str(), O_RDONLY | O_CLOEXEC);
}

// Opens the collector's input as connections of `server`: each --merge
// file with no ack sink (send_acks is off), refusing a zero-byte regular
// file, the empty --out a failed collector leaves (a pipe is served like
// --in, empty or not); else stdin or --in, with stdout as the ack sink.
// The server owns duplicates, so closing them never closes stdio.
Status AttachStreams(const CliFlags& flags, net::CollectorServer* server) {
  for (size_t i = 0; i < flags.merge_files.size(); ++i) {
    const std::string& path = flags.merge_files[i];
    net::Fd in(OpenMergeFile(path, flags.merge_files.size() - i));
    if (!in.valid()) {
      const int err = errno;
      return Status::InvalidArgument("collector: cannot open '" + path +
                                     "': " + strerror(err));
    }
    struct stat st;
    if (fstat(in.get(), &st) == 0 && S_ISREG(st.st_mode) && st.st_size == 0) {
      return Status::InvalidArgument("collector: '" + path +
                                     "' holds no sketch frame");
    }
    NUMDIST_RETURN_NOT_OK(server->AddStream(std::move(in), net::Fd()));
  }
  if (!flags.merge_files.empty()) return Status::OK();
  net::Fd in(flags.in_path.empty()
                 ? fcntl(STDIN_FILENO, F_DUPFD_CLOEXEC, 0)
                 : open(flags.in_path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!in.valid()) {
    return Status::InvalidArgument(
        "collector: cannot open '" +
        (flags.in_path.empty() ? std::string("stdin") : flags.in_path) + "'");
  }
  net::Fd out(fcntl(STDOUT_FILENO, F_DUPFD_CLOEXEC, 0));
  if (!out.valid()) {
    return Status::InvalidArgument("collector: cannot open stdout");
  }
  return server->AddStream(std::move(in), std::move(out));
}

// Opens --listen, publishes the bound endpoint, and wires SIGTERM/SIGINT
// to a graceful drain.
Status AttachListener(const CliFlags& flags, net::CollectorServer* server) {
  NUMDIST_ASSIGN_OR_RETURN(const net::Endpoint listen_at,
                           net::ParseEndpoint(flags.listen));
  NUMDIST_ASSIGN_OR_RETURN(const net::Endpoint bound,
                           server->AddListener(listen_at));
  const std::string bound_name = net::EndpointName(bound);
  if (!flags.port_file.empty()) {
    std::ofstream pf(flags.port_file, std::ios::trunc);
    pf << bound_name << "\n";
    if (!pf) {
      return Status::InvalidArgument("collector: cannot write '" +
                                     flags.port_file + "'");
    }
  }
  fprintf(stderr, "collector listening on %s\n", bound_name.c_str());
  g_server = server;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnDrainSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  return Status::OK();
}

int RunServer(const CliFlags& flags, const wire::MethodSpec& spec,
              const TenantBudgets& budgets) {
  // Stdin, --in or the --merge files: streams that end, not a listener.
  const bool streams = flags.listen.empty();
  const bool file_merge = !flags.merge_files.empty();
  // Coordinators print the estimate; every other mode emits its sketch.
  const bool reconstruct =
      flags.merge_listen || (file_merge && !flags.emit_sketch);
  net::ServerOptions options;
  options.expect_frames = flags.expect_frames;
  options.read_timeout_ms = flags.read_timeout_ms;
  options.wal_path = flags.wal_path;
  options.wal.checkpoint_every_frames = flags.wal_checkpoint_every;
  options.wal.sync_each_record = flags.wal_sync;
  options.wal.segment_bytes = flags.wal_segment_bytes;
  options.replicate_to = flags.replicate_to;
  // A standby serves the primary's replication stream like any other
  // client stream, but never writes back into it (acks from a standby
  // would sit unread in the dying primary's receive queue and turn its
  // final close into an RST that discards the tail), and it drains and
  // emits its sketch the moment the stream ends. A --merge file has no ack
  // sink at all.
  options.send_acks = !flags.standby && !file_merge;
  // Stdin, --in and the --merge files likewise finish when the last ends.
  options.drain_on_disconnect = flags.standby || streams;
  options.estimate_every_frames = flags.estimate_every_frames;
  options.estimate_every_ms = flags.estimate_every_ms;
  options.estimate_half_life = flags.estimate_half_life;
  options.estimate_max_iterations = flags.estimate_max_iterations;
  auto est = std::make_shared<EstimateSinkState>();
  const bool estimating =
      flags.estimate_every_frames > 0 || flags.estimate_every_ms > 0;
  if (estimating) {
    if (!flags.estimate_out.empty()) {
      est->out.open(flags.estimate_out, std::ios::binary);
      if (!est->out) {
        fprintf(stderr, "error: cannot open '%s'\n",
                flags.estimate_out.c_str());
        return 1;
      }
    }
    options.estimate_sink = [est](const net::EstimateTick& tick) {
      HandleEstimateTick(est.get(), tick);
    };
  }
  // A file --out is truncated before serving: a bad path fails before any
  // input is consumed, and a failed run leaves it empty instead of holding
  // an older sketch.
  if (!reconstruct && !flags.out_path.empty() &&
      !IsEndpointSpec(flags.out_path) &&
      !std::ofstream(flags.out_path, std::ios::binary | std::ios::trunc)) {
    fprintf(stderr, "error: cannot open '%s'\n", flags.out_path.c_str());
    return 1;
  }
  Result<std::unique_ptr<net::CollectorServer>> made =
      net::CollectorServer::Make(spec, options);
  if (!made.ok()) return Fail(made.status());
  net::CollectorServer* server = made.value().get();
  if (!flags.wal_path.empty()) ReportWalRecovery(server->wal_recovery());
  for (const auto& [tenant, budget] : budgets) {
    server->SetTenantBudget(tenant, budget);
  }
  est->server = server;
  // SIGTERM keeps its default action on streams; with --listen it drains.
  const Status attached = streams ? AttachStreams(flags, server)
                                  : AttachListener(flags, server);
  if (!attached.ok()) return Fail(attached);

  const Status run = server->Run();
  g_server = nullptr;
  if (!run.ok()) return Fail(run);

  const net::ServerStats& stats = server->stats();
  fprintf(stderr,
          "collector drained: %llu connection(s), %llu frame(s), "
          "%llu report(s) (%s)\n",
          static_cast<unsigned long long>(stats.connections_accepted),
          static_cast<unsigned long long>(stats.frames_absorbed),
          static_cast<unsigned long long>(server->num_reports()),
          wire::MethodSpecName(spec).c_str());
  // A stream that failed is not a completed shard: no sketch.
  if (streams && stats.connection_errors > 0) return Fail(stats.first_error);
  if (stats.connection_errors > 0) {
    fprintf(stderr,
            "warning: %llu connection(s) dropped on error; first: %s\n",
            static_cast<unsigned long long>(stats.connection_errors),
            stats.first_error.message().c_str());
  }
  if (stats.acks_queued > 0 || stats.duplicates > 0 ||
      stats.frames_replicated > 0) {
    fprintf(stderr,
            "fault tolerance: %llu ack(s), %llu duplicate(s) dropped, "
            "%llu frame(s) replicated\n",
            static_cast<unsigned long long>(stats.acks_queued),
            static_cast<unsigned long long>(stats.duplicates),
            static_cast<unsigned long long>(stats.frames_replicated));
  }
  if (estimating) {
    fprintf(stderr, "live estimation: %llu tick(s) (%s mode)\n",
            static_cast<unsigned long long>(stats.estimate_ticks),
            flags.estimate_half_life > 0.0 ? "minibatch" : "warm");
  }

  const auto reports = static_cast<unsigned long long>(server->num_reports());
  if (reconstruct) {
    // Coordinator: the listener or the files fed us sketch frames;
    // reconstruct and print instead of re-encoding a sketch.
    Result<MethodOutput> output = server->Reconstruct();
    if (!output.ok()) return Fail(output.status());
    if (file_merge) {
      fprintf(stderr, "merged %zu sketch(es), %llu reports\n",
              flags.merge_files.size(), reports);
    }
    return PrintEstimate(flags, spec, reports, output.value());
  }
  // A collector or merge-tree node: the drained state leaves as per-tenant
  // sketch frames, which feed another --merge level or a coordinator.
  Result<std::vector<std::string>> sketches = server->EncodeSketches();
  if (!sketches.ok()) return Fail(sketches.status());
  const Status emitted = EmitSketches(flags, sketches.value());
  if (!emitted.ok()) return Fail(emitted);
  if (file_merge) {
    fprintf(stderr, "merged %zu sketch file(s) into %zu frame(s), "
            "%llu reports\n",
            flags.merge_files.size(), sketches.value().size(), reports);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  if (!ParseCli(argc, argv, &flags)) {
    Usage();
    return 2;
  }
  // A coordinator that exits mid-handshake must surface as a typed write
  // error on this end, not a SIGPIPE kill.
  std::signal(SIGPIPE, SIG_IGN);
  Result<wire::MethodSpec> spec = wire::ParseMethodSpec(
      flags.method, flags.epsilon, flags.buckets);
  if (!spec.ok()) return Fail(spec.status());

  TenantBudgets budgets;
  if (!flags.tenant_budgets.empty() &&
      !ParseTenantBudgets(flags.tenant_budgets, &budgets)) {
    return 2;
  }
  return RunServer(flags, spec.value(), budgets);
}
