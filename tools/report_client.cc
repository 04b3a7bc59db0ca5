// report_client — deterministic client-side load generator for the
// cross-process collector (tools/collector_cli).
//
// Plays the role of a fleet of LDP clients: loads (or synthesizes) private
// values in [0,1], cuts them into fixed-size shards, perturbs each shard
// with its own seeded RNG stream, and writes one length-prefixed wire
// report frame per shard to stdout (or --out):
//
//   report_client --method=sw-ems --epsilon=1.0 --buckets=64
//       --input=values.csv --seed=7   (pipe into collector_cli)
//
// Shard i is always encoded with Rng(ShardSeed(seed, i)) — exactly the
// stream layout of the in-process sharded path (protocol/sharded.h). The
// --offset/--stride flags partition the shard set across client processes
// (process k of P runs --offset=k --stride=P), so the union of frames from
// P processes is byte-for-byte the chunk set a single-process
// AccumulateSharded run would have produced, and the merged estimate is
// bit-identical (tests/wire_process_test.cc).
//
// Network mode (--connect=tcp:HOST:PORT|unix:PATH): instead of writing to
// a stream, frames are round-robined across --connections=N multiplexed
// TCP/Unix connections to a collector_cli --listen server — one process
// emulating a fleet of N concurrent clients. --pace-us=T sleeps T
// microseconds between frames (keeps a stream mid-flight long enough for
// drain/shutdown tests to SIGTERM the collector mid-run). Every flag value
// is parsed whole (common/flags.h): a malformed one, or a --tenant past
// 2^32 - 1, exits 2 naming the flag, before any output is opened.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli_common.h"
#include "common/flags.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/retry.h"
#include "net/socket.h"
#include "data/loader.h"
#include "protocol/sharded.h"
#include "serve/framing.h"
#include "wire/wire.h"

using namespace numdist;
using numdist::tools::Fail;

namespace {

struct CliFlags {
  std::string method = "sw-ems";
  double epsilon = 1.0;
  size_t buckets = 64;
  std::string input;    // numeric file; empty = synthesize --uniform values
  size_t uniform = 0;   // synthesize N grid values in (0,1)
  // Preprocessing window, as in numdist_cli: keep [min, max), map onto
  // [0, 1). Rows outside the window are dropped by the loader.
  double min_value = 0.0;
  double max_value = 1.0;
  uint64_t seed = 42;
  size_t shard_size = 8192;
  size_t offset = 0;    // first shard index this process encodes
  size_t stride = 1;    // total client processes (shard index step)
  std::string out_path; // empty = stdout
  std::string connect;  // tcp:/unix: endpoint -> network mode
  size_t connections = 1;  // concurrent connections in network mode
  uint64_t pace_us = 0;    // sleep between frames (drain-test pacing)
  // Tenant context stamped on every frame (wire::kFlagTenantContext).
  // 0 = the default tenant; such frames stay byte-identical to a client
  // without the flag.
  uint32_t tenant = wire::kDefaultTenant;
  // Fault-tolerant delivery (net/retry.h): sequence-stamped frames, acks,
  // idempotent retransmit with exponential backoff. Needs --connect.
  bool retry = false;
  std::string failover;          // extra endpoints, comma-separated
  uint64_t epoch = 1;            // dedup epoch (reuse across a restart)
  uint32_t retry_max = 0;        // max connection attempts (0 = deadline)
  uint32_t retry_backoff_ms = 5;
  uint32_t retry_deadline_ms = 30000;
  size_t retry_window = 32;      // unacked frames before Send blocks
  // Deterministic fault injection (net/fault.h): --fault-resets=K RSTs
  // the first K connection attempts at Rng(--fault-seed)-drawn offsets
  // in [1, --fault-max-byte).
  uint32_t fault_resets = 0;
  uint64_t fault_seed = 1;
  uint64_t fault_max_byte = 4096;
};

void Usage() {
  fprintf(stderr,
          "usage: report_client --method=M --epsilon=E --buckets=D\n"
          "                     (--input=FILE | --uniform=N) [--seed=S]\n"
          "                     [--min=LO] [--max=HI] [--shard-size=K]\n"
          "                     [--offset=I] [--stride=P] [--out=FILE]\n"
          "                     [--connect=tcp:HOST:PORT|unix:PATH]\n"
          "                     [--connections=N] [--pace-us=T]\n"
          "                     [--tenant=ID]\n"
          "fault-tolerant delivery (needs --connect; net/retry.h):\n"
          "       --retry [--failover=EP[,EP...]] [--epoch=N]\n"
          "       [--retry-window=N] [--retry-max=K]\n"
          "       [--retry-backoff-ms=T] [--retry-deadline-ms=T]\n"
          "fault injection (needs --retry; net/fault.h):\n"
          "       --fault-resets=K [--fault-seed=S] [--fault-max-byte=N]\n"
          "process k of P client processes runs --offset=k --stride=P\n");
}

bool ParseCli(int argc, char** argv, CliFlags* flags) {
  const Status parsed = ParseFlags(
      argc, argv,
      {{"--method", &flags->method},
       {"--epsilon", &flags->epsilon},
       {"--buckets", &flags->buckets},
       {"--input", &flags->input},
       {"--uniform", &flags->uniform},
       {"--min", &flags->min_value},
       {"--max", &flags->max_value},
       {"--seed", &flags->seed},
       {"--shard-size", &flags->shard_size},
       {"--offset", &flags->offset},
       {"--stride", &flags->stride},
       {"--out", &flags->out_path},
       {"--connect", &flags->connect},
       {"--connections", &flags->connections},
       {"--pace-us", &flags->pace_us},
       {"--tenant", &flags->tenant},
       {"--retry", &flags->retry},
       {"--failover", &flags->failover},
       {"--epoch", &flags->epoch},
       {"--retry-window", &flags->retry_window},
       {"--retry-max", &flags->retry_max},
       {"--retry-backoff-ms", &flags->retry_backoff_ms},
       {"--retry-deadline-ms", &flags->retry_deadline_ms},
       {"--fault-resets", &flags->fault_resets},
       {"--fault-seed", &flags->fault_seed},
       {"--fault-max-byte", &flags->fault_max_byte}});
  if (!parsed.ok()) {
    Fail(parsed);
    return false;
  }
  if (flags->input.empty() == (flags->uniform == 0)) {
    fprintf(stderr, "exactly one of --input / --uniform is required\n");
    return false;
  }
  if (flags->stride == 0 || flags->offset >= flags->stride) {
    fprintf(stderr, "--offset must be < --stride (and --stride > 0)\n");
    return false;
  }
  if (flags->shard_size == 0) {
    fprintf(stderr, "--shard-size must be > 0\n");
    return false;
  }
  if (flags->connections == 0) {
    fprintf(stderr, "--connections must be > 0\n");
    return false;
  }
  if (flags->connections > 1 && flags->connect.empty()) {
    fprintf(stderr, "--connections needs --connect\n");
    return false;
  }
  if (flags->retry && flags->connect.empty()) {
    fprintf(stderr, "--retry needs --connect\n");
    return false;
  }
  if (flags->retry && flags->connections > 1) {
    fprintf(stderr,
            "--retry uses one sequenced connection; drop --connections\n");
    return false;
  }
  if (!flags->retry &&
      (!flags->failover.empty() || flags->fault_resets > 0)) {
    fprintf(stderr, "--failover/--fault-resets need --retry\n");
    return false;
  }
  if (flags->retry && (flags->epoch == 0 || flags->retry_window == 0)) {
    fprintf(stderr, "--epoch and --retry-window must be > 0\n");
    return false;
  }
  return true;
}

}  // namespace

// A collector that closes (or dies) mid-send must surface as a typed
// error and a nonzero exit, never as a silent partial run: the operator
// needs to know which frames may be missing from the aggregate.
int FailMidStream(const Status& status) {
  fprintf(stderr, "error: collector closed the stream mid-send: %s\n",
          status.message().c_str());
  return 1;
}

int main(int argc, char** argv) {
  CliFlags flags;
  if (!ParseCli(argc, argv, &flags)) {
    Usage();
    return 2;
  }
  // A dying collector must produce a typed write error (EPIPE) on this
  // end, not a SIGPIPE kill with no diagnostic.
  std::signal(SIGPIPE, SIG_IGN);
  Result<wire::MethodSpec> spec = wire::ParseMethodSpec(
      flags.method, flags.epsilon, flags.buckets);
  if (!spec.ok()) return Fail(spec.status());
  Result<ProtocolPtr> protocol = wire::MakeProtocolForSpec(spec.value());
  if (!protocol.ok()) return Fail(protocol.status());

  std::vector<double> values;
  if (!flags.input.empty()) {
    LoadOptions load;
    load.min_value = flags.min_value;
    load.max_value = flags.max_value;
    Result<std::vector<double>> loaded = LoadNumericFile(flags.input, load);
    if (!loaded.ok()) return Fail(loaded.status());
    values = std::move(loaded).value();
    // Rows outside [--min, --max) were dropped by the loader; surface the
    // surviving count so a mis-windowed dataset is visible, not silent.
    fprintf(stderr, "loaded %zu value(s) from %s (window [%g, %g))\n",
            values.size(), flags.input.c_str(), flags.min_value,
            flags.max_value);
  } else {
    values.reserve(flags.uniform);
    for (size_t i = 0; i < flags.uniform; ++i) {
      values.push_back((static_cast<double>(i) + 0.5) /
                       static_cast<double>(flags.uniform));
    }
  }

  std::ofstream file_out;
  if (flags.connect.empty() && !flags.out_path.empty()) {
    file_out.open(flags.out_path, std::ios::binary);
    if (!file_out) {
      fprintf(stderr, "error: cannot open '%s'\n", flags.out_path.c_str());
      return 1;
    }
  }
  std::ostream& out = flags.out_path.empty() ? std::cout : file_out;

  std::unique_ptr<net::MultiSender> sender;
  std::unique_ptr<net::RetrySender> retry;
  net::FaultPlan faults;  // must outlive the sender that reads it
  if (flags.retry) {
    std::vector<net::Endpoint> endpoints;
    const std::string targets = flags.connect + "," + flags.failover;
    for (const std::string_view target : SplitList(targets)) {
      if (target.empty()) continue;
      Result<net::Endpoint> endpoint = net::ParseEndpoint(target);
      if (!endpoint.ok()) return Fail(endpoint.status());
      endpoints.push_back(endpoint.value());
    }
    net::RetryOptions retry_options;
    retry_options.epoch = flags.epoch;
    retry_options.max_attempts = flags.retry_max;
    retry_options.base_backoff_ms = flags.retry_backoff_ms;
    retry_options.total_deadline_ms = flags.retry_deadline_ms;
    retry_options.window = flags.retry_window;
    retry_options.jitter_seed = flags.seed;
    if (flags.fault_resets > 0) {
      faults = net::FaultPlan::Resets(flags.fault_seed, flags.fault_resets,
                                      flags.fault_max_byte);
      retry_options.faults = &faults;
    }
    Result<net::RetrySender> made =
        net::RetrySender::Make(std::move(endpoints), retry_options);
    if (!made.ok()) return Fail(made.status());
    retry = std::make_unique<net::RetrySender>(std::move(made).value());
  } else if (!flags.connect.empty()) {
    Result<net::Endpoint> endpoint = net::ParseEndpoint(flags.connect);
    if (!endpoint.ok()) return Fail(endpoint.status());
    Result<net::MultiSender> made =
        net::MultiSender::Make(endpoint.value(), flags.connections);
    if (!made.ok()) return Fail(made.status());
    sender = std::make_unique<net::MultiSender>(std::move(made).value());
  }

  const size_t num_shards =
      (values.size() + flags.shard_size - 1) / flags.shard_size;
  size_t frames = 0;
  uint64_t reports = 0;
  std::string frame;
  for (size_t i = flags.offset; i < num_shards; i += flags.stride) {
    const size_t begin = i * flags.shard_size;
    const size_t len = std::min(flags.shard_size, values.size() - begin);
    Rng rng(ShardSeed(flags.seed, i));
    Result<std::unique_ptr<ReportChunk>> chunk =
        protocol.value()->EncodePerturbBatch(
            std::span<const double>(values).subspan(begin, len), rng);
    if (!chunk.ok()) return Fail(chunk.status());
    frame.clear();
    const Status enc =
        wire::EncodeReportFrame(spec.value(), flags.tenant, *protocol.value(),
                                *chunk.value(), &frame);
    if (!enc.ok()) return Fail(enc);
    const Status wr = retry    ? retry->Send(frame)
                      : sender ? sender->Send(frame)
                               : serve::WriteFrame(out, frame);
    if (!wr.ok()) return FailMidStream(wr);
    ++frames;
    reports += chunk.value()->num_reports();
    if (flags.pace_us > 0) usleep(static_cast<useconds_t>(flags.pace_us));
  }
  if (retry) {
    const Status fin = retry->Finish();
    if (!fin.ok()) return FailMidStream(fin);
    const net::RetryStats& rs = retry->stats();
    fprintf(stderr,
            "retry: %llu frame(s) acked, %llu retransmit(s), "
            "%llu reconnect(s), %llu injected fault(s)\n",
            static_cast<unsigned long long>(rs.acks),
            static_cast<unsigned long long>(rs.retransmits),
            static_cast<unsigned long long>(rs.reconnects),
            static_cast<unsigned long long>(rs.injected_faults));
  }
  if (sender) {
    const Status fin = sender->Finish();
    if (!fin.ok()) return FailMidStream(fin);
  }
  out.flush();
  if (flags.offset < num_shards) {
    fprintf(stderr,
            "report_client sent %zu frame(s), %llu report(s) "
            "(%s, shards %zu..%zu step %zu of %zu)\n",
            frames, static_cast<unsigned long long>(reports),
            wire::MethodSpecName(spec.value()).c_str(), flags.offset,
            num_shards - 1, flags.stride, num_shards);
  } else {
    fprintf(stderr,
            "report_client sent 0 frames: --offset=%zu is past the last "
            "shard (%zu shard(s) at --shard-size=%zu)\n",
            flags.offset, num_shards, flags.shard_size);
  }
  return 0;
}
