// The live rounds: each builds a fresh collector (a primary plus, in
// durable_acked, a WAL and a standby), drives it from one generator thread
// through public client and wire calls, drains it, and checks what it
// absorbed against a single-session fold of the frames sent.
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/executor.h"
#include "data/datasets.h"
#include "eval/runner.h"
#include "metrics/distance.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "protocol/sharded.h"
#include "serve/collector.h"
#include "serve/framing.h"
#include "workloads.h"

namespace perfbench {

using numdist::Result;
using numdist::Status;
namespace net = numdist::net;
namespace serve = numdist::serve;
namespace wire = numdist::wire;

namespace {

// Why each workload exists is recorded in BENCHMARK.json.
constexpr WorkloadConfig kWorkloads[] = {
    {"ingest_raw", Kind::kIngestRaw, 256, /*passes_per_round=*/40,
     /*tail_q=*/0.99, "frame decoded -> absorbed (ServerStats::latency_ns)"},
    {"durable_acked", Kind::kDurableAcked, 256, /*passes_per_round=*/3,
     /*tail_q=*/0.99, "ack_p50_ms / ack_p99_ms: frame send -> its ack"},
    {"estimate_live", Kind::kEstimateLive, 1024, /*passes_per_round=*/12,
     /*tail_q=*/0.9,
     "estimate_lag_p50_ms / _p90_ms: tick sink time - due time of the last "
     "frame it covers"},
};

/// Absorb parallelism of the saturated collector: the generator thread
/// keeps the fourth core.
constexpr size_t kAbsorbThreads = 3;
/// Client-side buffering of the closed-loop generator; the kernel socket
/// buffers already keep the collector fed.
constexpr size_t kSenderBufferBytes = 1u << 20;
/// Frames in flight per connection of the durable generator.
constexpr size_t kAckWindow = 8;
/// Durable collector's WAL: segment size and checkpoint cadence. A segment
/// holds a whole round, so no round rotates: a rotation seals its segment
/// with an fsync of many MB, whose time on a shared disk is the reading of
/// the neighbours' I/O.
constexpr uint64_t kWalSegmentBytes = 256u << 20;
constexpr uint64_t kWalCheckpointFrames = 5000;
/// Open-loop rate of estimate_live.
constexpr double kLiveFramesPerSecond = 10000.0;
/// A generator that sees no progress for this long gives up.
constexpr int kStallMs = 30000;
/// Accuracy floor every final estimate must meet. The Taxi stand-in at
/// epsilon = 1 and 1M reports lands near 0.002-0.005; a change that loses
/// accuracy on the ingest or estimate path shows up far above that.
constexpr double kMaxEstimateW1 = 0.02;

/// Keeps the generator and the collectors' serving threads on different
/// cores: the last CPU the process may use is the generator's, the others
/// the servers'. Left alone, the scheduler often puts the two chatty
/// threads on one core, and which rounds that happens in decides their
/// latency.
class CpuSplit {
 public:
  CpuSplit() {
    cpu_set_t all;
    CPU_ZERO(&all);
    CPU_ZERO(&generator_);
    CPU_ZERO(&servers_);
    if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) last = c;
    }
    if (last < 0 || CPU_COUNT(&all) < 2) return;
    servers_ = all;
    CPU_CLR(last, &servers_);
    CPU_SET(last, &generator_);
    split_ = true;
  }
  void PinGenerator() const { Pin(generator_); }
  void PinServer() const { Pin(servers_); }

 private:
  void Pin(const cpu_set_t& set) const {
    if (split_) (void)sched_setaffinity(0, sizeof(set), &set);
  }

  cpu_set_t generator_;
  cpu_set_t servers_;
  bool split_ = false;
};

const CpuSplit& Cpus() {
  static const CpuSplit split;
  return split;
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// The serving thread of one CollectorServer. Stop (or destruction)
/// requests a drain and joins, so every exit path from a round waits for
/// Run to return. Clients must close their connections first: a drain
/// serves open connections to EOF.
class Serving {
 public:
  /// `run_span` receives the id of the span around Run (set on the serving
  /// thread before Run starts, read there by the estimate sink).
  Serving(net::CollectorServer* server, Recorder* rec, uint32_t parent,
          uint32_t* run_span)
      : server_(server), thread_([this, rec, parent, run_span] {
          Cpus().PinServer();
          ScopedSpan span(rec, "run", parent);
          if (run_span != nullptr) *run_span = span.id();
          status_ = server_->Run();
        }) {}
  ~Serving() { (void)Stop(); }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  Status Stop() {
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
    return status_;
  }

 private:
  net::CollectorServer* server_;
  Status status_;
  std::thread thread_;  // last: starts after the members it uses
};

/// What the primary of one round produced, for the common checks.
struct Drained {
  uint64_t passes = 0;
  uint64_t frames_sent = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Adds one round's latency percentiles to the run's series: the run
/// reports the median over its rounds, so a burst of load from elsewhere
/// on the host moves one round's figure, not the run's. The tail is the
/// highest percentile up to the workload's tail_q that the round's sample
/// count supports (TailQuantile).
void RecordLatency(const RunContext& ctx, const std::string& p,
                   const std::vector<double>& samples) {
  if (samples.empty()) return;
  const double tail_q = TailQuantile(samples.size(), ctx.cfg.tail_q);
  ctx.rec->Add(p + "latency_p50_ms", Percentile(samples, 0.5));
  ctx.rec->Add(p + "latency_tail_ms", Percentile(samples, tail_q));
  ctx.rec->Add(p + "latency_tail_q", tail_q);
}

std::string Msg(const char* what, const Status& st) {
  return std::string(what) + ": " + st.ToString();
}

/// `passes` passes over the pool folded into one CollectorSession: each
/// pass is Pool::pass_sketch, itself a frame-by-frame HandleFrame fold,
/// merged back in through HandleFrame (accumulator merges are exact
/// integer adds, so this is the fold of every frame sent).
Result<std::string> ReferenceSketch(const Pool& pool, uint64_t passes,
                                    std::vector<double>* estimate) {
  NUMDIST_ASSIGN_OR_RETURN(serve::CollectorSession session,
                           serve::CollectorSession::Make(pool.spec));
  for (uint64_t p = 0; p < passes; ++p) {
    NUMDIST_RETURN_NOT_OK(session.HandleFrame(pool.pass_sketch));
  }
  if (estimate != nullptr) {
    NUMDIST_ASSIGN_OR_RETURN(numdist::MethodOutput out,
                             session.Reconstruct());
    *estimate = std::move(out.distribution);
  }
  return session.EncodeSketch();
}

/// The figures and checks every workload shares, after Run returned OK:
/// throughput, the final analyst estimate and its accuracy, the server's
/// counters, and the drained sketch against the reference fold.
void FinishRound(const RunContext& ctx, const std::string& p,
                 net::CollectorServer* server, const Drained& drained,
                 uint32_t round_span, uint64_t reports_done) {
  Recorder* rec = ctx.rec;
  Tally* tally = ctx.tally;
  const Pool& pool = ctx.pool;
  const net::ServerStats& stats = server->stats();
  const uint64_t frames = drained.passes * pool.frames.size();
  tally->Ops(frames, stats.frames_absorbed, "frames absorbed");
  if (stats.connection_errors > 0) {
    tally->failed += stats.connection_errors;
    tally->errors.push_back("connection errors: " +
                            stats.first_error.ToString());
  }
  rec->Add(p + "reports_per_s",
           static_cast<double>(reports_done) /
               SecondsBetween(drained.start, drained.end));

  const Clock::time_point r0 = Clock::now();
  Result<numdist::MethodOutput> out = [&] {
    ScopedSpan span(rec, "reconstruct", round_span);
    return server->Reconstruct();
  }();
  rec->Add(p + "final_estimate_s", SecondsBetween(r0, Clock::now()));
  tally->Check(out.ok(), Msg("reconstruct", out.status()));
  if (!out.ok()) return;
  const double w1 =
      numdist::WassersteinDistance(out.value().distribution, pool.truth);
  rec->Add(p + "estimate_w1", w1);
  tally->Check(w1 <= kMaxEstimateW1,
               "estimate_w1 " + FormatNumber(w1) + " above the accuracy floor");

  rec->Add(p + "net.frames_absorbed", static_cast<double>(stats.frames_absorbed));
  rec->Add(p + "net.bytes_received", static_cast<double>(stats.bytes_received));
  rec->Add(p + "net.pauses", static_cast<double>(stats.pauses));
  rec->Add(p + "net.connection_errors",
           static_cast<double>(stats.connection_errors));
  rec->Add(p + "net.duplicates", static_cast<double>(stats.duplicates));
  rec->Add(p + "net.acks_queued", static_cast<double>(stats.acks_queued));
  rec->Add(p + "net.frames_replicated",
           static_cast<double>(stats.frames_replicated));
  rec->Add(p + "net.estimate_ticks", static_cast<double>(stats.estimate_ticks));
  if (rec->tracing()) {
    std::vector<double> latency_us;
    latency_us.reserve(stats.latency_ns.size());
    for (const uint64_t ns : stats.latency_ns) latency_us.push_back(ns / 1e3);
    rec->AddAll(p + "net.decoded_to_absorbed_us", latency_us);
  }

  std::vector<double> reference_estimate;
  const Result<std::string> want = ReferenceSketch(
      pool, drained.passes,
      ctx.cfg.kind == Kind::kEstimateLive ? &reference_estimate : nullptr);
  const Result<std::string> got = server->EncodeSketch();
  tally->Check(want.ok() && got.ok() && want.value() == got.value(),
               "drained sketch differs from the single-session fold");
  if (ctx.cfg.kind == Kind::kEstimateLive) {
    tally->Check(
        !reference_estimate.empty() &&
            numdist::WassersteinDistance(reference_estimate, pool.truth) ==
                w1,
        "estimate_w1 differs from the reference fold's Reconstruct");
  }
}

bool IngestRawRound(const RunContext& ctx, const std::string& p,
                    uint32_t round_span) {
  Recorder* rec = ctx.rec;
  Tally* tally = ctx.tally;
  const Pool& pool = ctx.pool;
  net::ServerOptions options;
  options.record_latency = true;  // latency_*_ms of this workload
  options.max_parallelism = kAbsorbThreads;

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<net::CollectorServer> server;
  net::Endpoint bound;
  {
    ScopedSpan span(rec, "make", round_span);
    auto made = net::CollectorServer::Make(pool.spec, options);
    if (!made.ok()) return tally->Fail(Msg("make", made.status()));
    server = std::move(made).value();
    auto listened =
        server->AddListener(net::ParseEndpoint("tcp:127.0.0.1:0").value());
    if (!listened.ok()) return tally->Fail(Msg("listen", listened.status()));
    bound = listened.value();
  }
  rec->Add(p + "setup_s", SecondsBetween(t0, Clock::now()));

  Drained drained;
  drained.passes = ctx.cfg.passes_per_round;
  const uint64_t frames = drained.passes * pool.frames.size();
  std::vector<double> send_ms;
  if (rec->tracing()) send_ms.reserve(frames);
  Status load;
  Status run;
  {
    Serving serving(server.get(), rec, round_span, nullptr);
    load = [&]() -> Status {
      NUMDIST_ASSIGN_OR_RETURN(
          net::MultiSender sender,
          net::MultiSender::Make(bound, kConnections, kSenderBufferBytes));
      drained.start = Clock::now();
      for (uint64_t i = 0; i < frames; ++i) {
        ScopedSpan span(rec, "send", round_span, i);
        const Clock::time_point s0 =
            rec->tracing() ? Clock::now() : Clock::time_point();
        NUMDIST_RETURN_NOT_OK(sender.Send(pool.frames[i % pool.frames.size()]));
        if (rec->tracing()) send_ms.push_back(Ms(Clock::now() - s0));
        ++drained.frames_sent;
      }
      return sender.Finish();
    }();
    run = serving.Stop();
    drained.end = Clock::now();
  }
  tally->Ops(frames, drained.frames_sent, "frames sent");
  tally->Check(load.ok(), Msg("generator", load));
  tally->Check(run.ok(), Msg("server", run));
  if (!load.ok() || !run.ok()) return false;
  // Closed loop: no schedule to fall behind; what the generator waits for
  // is the send call itself (MultiSender blocks on a full buffer).
  rec->AddAll(p + "gen_late_ms", send_ms);
  std::vector<double> latency_ms;
  for (const uint64_t ns : server->stats().latency_ns) {
    latency_ms.push_back(ns / 1e6);
  }
  RecordLatency(ctx, p, latency_ms);
  FinishRound(ctx, p, server.get(), drained, round_span,
              server->num_reports());
  return true;
}

/// One acked connection of the durable generator.
struct AckConn {
  net::Fd fd;
  uint64_t epoch = 0;
  uint64_t next_seq = 1;  ///< next sequence number to send
  size_t inflight = 0;
  std::vector<Clock::time_point> sent_at;  ///< by seq - 1
  std::vector<uint8_t> acked;              ///< by seq - 1
  std::string out;
  size_t out_off = 0;
  serve::FrameDecoder decoder;
};

/// Writes what the kernel accepts of conn's queued bytes.
Status FlushAckConn(AckConn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t wrote =
        send(conn->fd.get(), conn->out.data() + conn->out_off,
             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      return Status::Internal("send: " + std::string(strerror(errno)));
    }
    conn->out_off += static_cast<size_t>(wrote);
  }
  conn->out.clear();
  conn->out_off = 0;
  return Status::OK();
}

/// The durable generator: kConnections connections, each with its own
/// epoch and a window of kAckWindow stamped frames in flight; the next
/// frame goes out when an ack frees a slot. Records send->ack latency.
Status RunAckGenerator(const RunContext& ctx, const std::string& p,
                       const net::Endpoint& bound, uint64_t frames,
                       uint32_t round_span, Drained* drained,
                       uint64_t* acked_total) {
  Recorder* rec = ctx.rec;
  Tally* tally = ctx.tally;
  const Pool& pool = ctx.pool;
  const uint64_t per_conn = frames / kConnections;
  std::vector<AckConn> conns(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    NUMDIST_ASSIGN_OR_RETURN(conns[c].fd, net::Dial(bound));
    NUMDIST_RETURN_NOT_OK(net::SetNonBlocking(conns[c].fd.get()));
    conns[c].epoch = c + 1;
    conns[c].sent_at.resize(per_conn);
    conns[c].acked.assign(per_conn, 0);
  }
  std::vector<double> latency_ms;
  latency_ms.reserve(frames);
  std::vector<double> send_ms;
  std::vector<pollfd> pfds(kConnections);
  std::string frame;
  std::string ack;
  char buf[64 * 1024];
  drained->start = Clock::now();
  Clock::time_point last_progress = drained->start;
  while (*acked_total < per_conn * kConnections) {
    for (size_t c = 0; c < kConnections; ++c) {
      AckConn& conn = conns[c];
      while (conn.inflight < kAckWindow && conn.next_seq <= per_conn) {
        const uint64_t seq = conn.next_seq++;
        const uint64_t global = (seq - 1) * kConnections + c;
        ScopedSpan span(rec, "send", round_span, global);
        const Clock::time_point s0 = Clock::now();
        NUMDIST_RETURN_NOT_OK(StampFrame(
            pool.frames[global % pool.frames.size()], conn.epoch, seq, &frame));
        serve::AppendFramePrefix(frame.size(), &conn.out);
        conn.out.append(frame);
        conn.sent_at[seq - 1] = s0;
        ++conn.inflight;
        ++drained->frames_sent;
        NUMDIST_RETURN_NOT_OK(FlushAckConn(&conn));
        if (rec->tracing()) send_ms.push_back(Ms(Clock::now() - s0));
      }
      pfds[c] = {conn.fd.get(),
                 static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)),
                 0};
    }
    const int ready = poll(pfds.data(), pfds.size(), 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("poll: " + std::string(strerror(errno)));
    }
    if (ready == 0) {
      if (Clock::now() - last_progress > std::chrono::milliseconds(kStallMs)) {
        return Status::Internal("no ack progress for 30 s");
      }
      continue;
    }
    for (size_t c = 0; c < kConnections; ++c) {
      AckConn& conn = conns[c];
      if ((pfds[c].revents & POLLOUT) != 0) {
        NUMDIST_RETURN_NOT_OK(FlushAckConn(&conn));
      }
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t got = read(conn.fd.get(), buf, sizeof(buf));
        if (got < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          return Status::Internal("read: " + std::string(strerror(errno)));
        }
        if (got == 0) return Status::Internal("collector closed a connection");
        const Clock::time_point now = Clock::now();
        NUMDIST_RETURN_NOT_OK(
            conn.decoder.Feed(std::string_view(buf, static_cast<size_t>(got))));
        while (conn.decoder.Next(&ack)) {
          const Result<wire::FrameSeq> seq = wire::DecodeAckFrame(ack);
          const bool known = seq.ok() && seq.value().epoch == conn.epoch &&
                             seq.value().seq >= 1 &&
                             seq.value().seq < conn.next_seq;
          if (!known || conn.acked[seq.value().seq - 1] != 0) {
            tally->Check(false, "ack for a frame not in flight");
            continue;
          }
          const uint64_t s = seq.value().seq;
          conn.acked[s - 1] = 1;
          --conn.inflight;
          ++*acked_total;
          latency_ms.push_back(Ms(now - conn.sent_at[s - 1]));
          rec->Record("ack", round_span, (s - 1) * kConnections + c,
                      conn.sent_at[s - 1], now);
          last_progress = now;
        }
      }
    }
  }
  RecordLatency(ctx, p, latency_ms);
  rec->AddAll(p + "gen_late_ms", send_ms);
  return Status::OK();  // closing the fds gives the collector clean EOFs
}

bool DurableRound(const RunContext& ctx, const std::string& p, uint64_t round,
                  uint32_t round_span) {
  Recorder* rec = ctx.rec;
  Tally* tally = ctx.tally;
  const Pool& pool = ctx.pool;
  const std::string wal_dir =
      ctx.work_dir + "/wal-" + std::to_string(round);
  const std::string standby_sock =
      ctx.work_dir + "/standby-" + std::to_string(round) + ".sock";
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);

  net::ServerOptions standby_options;
  standby_options.send_acks = false;
  standby_options.drain_on_disconnect = true;
  net::ServerOptions options;
  options.record_latency = rec->tracing();
  options.wal_path = wal_dir;
  // No fsync per record: on a shared disk its time varies by more than a
  // quarter from one run to the next. WalLog::Sync is timed on its own in
  // the replay (serve.wal.sync_us).
  options.wal.sync_each_record = false;
  options.wal.checkpoint_every_frames = kWalCheckpointFrames;
  options.wal.segment_bytes = kWalSegmentBytes;
  options.replicate_to = "unix:" + standby_sock;

  // Set-up covers both collectors: the standby must listen before the
  // primary can dial it, and the primary opens its WAL.
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<net::CollectorServer> standby;
  std::unique_ptr<net::CollectorServer> primary;
  net::Endpoint bound;
  Status made = [&]() -> Status {
    ScopedSpan span(rec, "make", round_span);
    NUMDIST_ASSIGN_OR_RETURN(
        standby, net::CollectorServer::Make(pool.spec, standby_options));
    NUMDIST_ASSIGN_OR_RETURN(const net::Endpoint unix_ep,
                             net::ParseEndpoint("unix:" + standby_sock));
    NUMDIST_RETURN_NOT_OK(standby->AddListener(unix_ep).status());
    NUMDIST_ASSIGN_OR_RETURN(primary,
                             net::CollectorServer::Make(pool.spec, options));
    NUMDIST_ASSIGN_OR_RETURN(
        bound, primary->AddListener(net::ParseEndpoint("tcp:127.0.0.1:0").value()));
    return Status::OK();
  }();
  rec->Add(p + "setup_s", SecondsBetween(t0, Clock::now()));
  if (!made.ok()) return tally->Fail(Msg("make", made));

  Drained drained;
  drained.passes = ctx.cfg.passes_per_round;
  const uint64_t frames = drained.passes * pool.frames.size();
  uint64_t acked = 0;
  Status load;
  Status run;
  Status standby_run;
  std::string primary_sketch;
  {
    Serving standby_serving(standby.get(), rec, round_span, nullptr);
    {
      Serving serving(primary.get(), rec, round_span, nullptr);
      load = RunAckGenerator(ctx, p, bound, frames, round_span, &drained,
                             &acked);
      run = serving.Stop();
      drained.end = Clock::now();
    }
    tally->Ops(frames, drained.frames_sent, "frames sent");
    tally->Ops(frames, acked, "frames acked");
    tally->Check(load.ok(), Msg("generator", load));
    tally->Check(run.ok(), Msg("primary", run));
    if (run.ok()) {
      Result<std::string> sketch = primary->EncodeSketch();
      if (sketch.ok()) primary_sketch = std::move(sketch).value();
    }
    if (!run.ok()) primary.reset();  // its replication socket stays open
    standby_run = standby_serving.Stop();
  }
  std::filesystem::remove_all(wal_dir, ec);
  tally->Check(standby_run.ok(), Msg("standby", standby_run));
  if (!load.ok() || !run.ok() || !standby_run.ok()) return false;
  const Result<std::string> standby_sketch = standby->EncodeSketch();
  tally->Check(standby_sketch.ok() && !primary_sketch.empty() &&
                   standby_sketch.value() == primary_sketch,
               "standby sketch differs from the primary's");
  FinishRound(ctx, p, primary.get(), drained, round_span,
              acked * kReportsPerFrame);
  return true;
}

bool EstimateLiveRound(const RunContext& ctx, const std::string& p,
                       uint32_t round_span) {
  Recorder* rec = ctx.rec;
  Tally* tally = ctx.tally;
  const Pool& pool = ctx.pool;
  const uint64_t frames = ctx.cfg.passes_per_round * pool.frames.size();

  // Written by the estimate sink on the serving thread, read after Run.
  std::vector<std::pair<uint64_t, Clock::time_point>> ticks;
  ticks.reserve(frames / kEstimateEveryFrames + 16);
  uint32_t run_span = 0;
  net::ServerOptions options;
  options.record_latency = rec->tracing();
  options.estimate_every_frames = kEstimateEveryFrames;
  options.estimate_max_iterations = kEstimateMaxIterations;
  options.estimate_sink = [&ticks, &run_span, rec](const net::EstimateTick& t) {
    ScopedSpan span(rec, "tick", run_span, t.frames);
    ticks.emplace_back(t.frames, Clock::now());
  };

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<net::CollectorServer> server;
  net::Endpoint bound;
  {
    ScopedSpan span(rec, "make", round_span);
    auto made = net::CollectorServer::Make(pool.spec, options);
    if (!made.ok()) return tally->Fail(Msg("make", made.status()));
    server = std::move(made).value();
    auto listened =
        server->AddListener(net::ParseEndpoint("tcp:127.0.0.1:0").value());
    if (!listened.ok()) return tally->Fail(Msg("listen", listened.status()));
    bound = listened.value();
  }
  rec->Add(p + "setup_s", SecondsBetween(t0, Clock::now()));

  Drained drained;
  drained.passes = ctx.cfg.passes_per_round;
  OpenLoopSchedule schedule;
  schedule.rate_hz = kLiveFramesPerSecond;
  std::vector<double> late_ms;
  late_ms.reserve(frames);
  Status load;
  Status run;
  {
    Serving serving(server.get(), rec, round_span, &run_span);
    load = [&]() -> Status {
      NUMDIST_ASSIGN_OR_RETURN(net::MultiSender sender,
                               net::MultiSender::Make(bound, 1));
      drained.start = Clock::now();
      schedule.start = drained.start;
      for (uint64_t k = 0; k < frames; ++k) {
        const Clock::time_point due = schedule.Due(k);
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        late_ms.push_back(schedule.LateMs(k, Clock::now()));
        ScopedSpan span(rec, "send", round_span, k);
        NUMDIST_RETURN_NOT_OK(sender.Send(pool.frames[k % pool.frames.size()]));
        ++drained.frames_sent;
      }
      return sender.Finish();
    }();
    run = serving.Stop();
    drained.end = Clock::now();
  }
  tally->Ops(frames, drained.frames_sent, "frames sent");
  tally->Check(load.ok(), Msg("generator", load));
  tally->Check(run.ok(), Msg("server", run));
  if (!load.ok() || !run.ok()) return false;
  tally->Check(!ticks.empty(), "no live estimate ticks");
  std::vector<double> lag_ms;
  lag_ms.reserve(ticks.size());
  for (const auto& [covered, at] : ticks) {
    lag_ms.push_back(schedule.TickLagMs(covered, at));
  }
  RecordLatency(ctx, p, lag_ms);
  if (rec->tracing()) rec->AddAll(p + "gen_late_ms", late_ms);
  FinishRound(ctx, p, server.get(), drained, round_span,
              server->num_reports());
  return true;
}

}  // namespace

void StartExecutor() {
  Cpus().PinServer();
  (void)numdist::Executor::Shared();
}

const WorkloadConfig* FindWorkload(std::string_view name) {
  for (const WorkloadConfig& cfg : kWorkloads) {
    if (name == cfg.name) return &cfg;
  }
  return nullptr;
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void Tally::Ops(uint64_t expected, uint64_t done, const std::string& what) {
  attempted += expected;
  if (done < expected) {
    failed += expected - done;
    errors.push_back(what + ": " + std::to_string(done) + " of " +
                     std::to_string(expected));
  }
}

void Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    errors.push_back(what);
  }
}

bool Tally::Fail(const std::string& what) {
  Check(false, what);
  return false;
}

Status StampFrame(const std::string& frame, uint64_t epoch, uint64_t seq,
                  std::string* out) {
  out->assign(frame);
  return wire::StampSequenceContext(out, wire::FrameSeq{epoch, seq});
}

Result<Pool> MakePool(const WorkloadConfig& cfg, uint64_t seed) {
  Pool pool;
  NUMDIST_ASSIGN_OR_RETURN(pool.spec,
                           wire::ParseMethodSpec("sw-ems", 1.0, cfg.d));
  NUMDIST_ASSIGN_OR_RETURN(const numdist::ProtocolPtr protocol,
                           wire::MakeProtocolForSpec(pool.spec));
  numdist::Rng value_rng(seed);
  pool.values = numdist::GenerateDataset(
      numdist::DatasetId::kTaxi, kPoolFrames * kReportsPerFrame, value_rng);
  pool.frames.reserve(kPoolFrames);
  for (size_t i = 0; i < kPoolFrames; ++i) {
    numdist::Rng rng(numdist::ShardSeed(seed, i));
    NUMDIST_ASSIGN_OR_RETURN(
        const std::unique_ptr<numdist::ReportChunk> chunk,
        protocol->EncodePerturbBatch(
            std::span<const double>(pool.values)
                .subspan(i * kReportsPerFrame, kReportsPerFrame),
            rng));
    pool.reports += chunk->num_reports();
    std::string frame;
    NUMDIST_RETURN_NOT_OK(
        wire::EncodeReportFrame(pool.spec, *protocol, *chunk, &frame));
    pool.frames.push_back(std::move(frame));
  }
  NUMDIST_ASSIGN_OR_RETURN(serve::CollectorSession session,
                           serve::CollectorSession::Make(pool.spec));
  for (const std::string& frame : pool.frames) {
    NUMDIST_RETURN_NOT_OK(session.HandleFrame(frame));
  }
  NUMDIST_ASSIGN_OR_RETURN(pool.pass_sketch, session.EncodeSketch());
  pool.truth = numdist::ComputeGroundTruth(pool.values, cfg.d).histogram;
  return pool;
}

bool RunRound(const RunContext& ctx, const std::string& prefix,
              uint64_t round) {
  Cpus().PinGenerator();
  ScopedSpan span(ctx.rec, "round", 0, round);
  switch (ctx.cfg.kind) {
    case Kind::kIngestRaw:
      return IngestRawRound(ctx, prefix, span.id());
    case Kind::kDurableAcked:
      return DurableRound(ctx, prefix, round, span.id());
    case Kind::kEstimateLive:
      return EstimateLiveRound(ctx, prefix, span.id());
  }
  return false;
}

}  // namespace perfbench
