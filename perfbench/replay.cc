// The traced run's second part: one pass of the workload's own frames
// replayed stage by stage through each layer's public call, each call
// timed on its own, so every stage's cost is read where the work happens
// rather than inferred from the end-to-end figures.
#include <filesystem>
#include <memory>
#include <thread>

#include "core/sw_estimator.h"
#include "eval/incremental.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/collector.h"
#include "serve/framing.h"
#include "serve/wal.h"
#include "wire/wire.h"
#include "workloads.h"

namespace perfbench {

using numdist::Result;
using numdist::Status;
namespace net = numdist::net;
namespace serve = numdist::serve;
namespace wire = numdist::wire;

namespace {

/// Repetitions of the whole-pass stages; the median is reported.
constexpr int kReps = 3;
/// Appends timed with an fsync after each (fsync-bound, so fewer).
constexpr size_t kSyncedAppends = 200;
constexpr int kCompactions = 5;
/// Live-estimate ticks replayed, every kEstimateEveryFrames frames.
constexpr size_t kTicks = 100;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Times `fn` and records the result, scaled, under "replay.<series>".
template <typename Fn>
void Timed(Recorder* rec, const std::string& series, double scale, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  rec->Add("replay." + series, MsSince(t0) * scale);
}

numdist::SwEstimatorOptions EstimatorOptions(const Pool& pool) {
  numdist::SwEstimatorOptions options;
  options.epsilon = pool.spec.epsilon;
  options.d = pool.spec.d;
  options.post = numdist::SwEstimatorOptions::Post::kEms;
  return options;
}

std::vector<uint64_t> Counts(const numdist::Accumulator& acc) {
  const numdist::AccumulatorState state = acc.ExportState();
  std::vector<uint64_t> counts;
  if (state.tables.empty()) return counts;
  for (const int64_t c : state.tables[0].counts) {
    counts.push_back(static_cast<uint64_t>(c));
  }
  return counts;
}

Status ReplayWal(const RunContext& ctx,
                 const std::vector<std::string>& frames,
                 const serve::CollectorSession& checkpoint) {
  Recorder* rec = ctx.rec;
  const std::string dir = ctx.work_dir + "/replay-wal";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  serve::WalOptions options;
  options.segment_bytes = 16u << 20;  // one pass fits one segment
  NUMDIST_ASSIGN_OR_RETURN(serve::WalLog wal,
                           serve::WalLog::Open(dir, options, {}));
  const uint64_t bytes0 = wal.bytes();
  for (const std::string& frame : frames) {
    const Clock::time_point t0 = Clock::now();
    NUMDIST_RETURN_NOT_OK(wal.AppendFrame(frame));
    rec->Add("replay.wal_append_us", MsSince(t0) * 1e3);
  }
  rec->Add("replay.wal_bytes_per_report",
           static_cast<double>(wal.bytes() - bytes0) /
               static_cast<double>(ctx.pool.reports));
  for (size_t i = 0; i < kSyncedAppends && i < frames.size(); ++i) {
    NUMDIST_RETURN_NOT_OK(wal.AppendFrame(frames[i]));
    const Clock::time_point t0 = Clock::now();
    NUMDIST_RETURN_NOT_OK(wal.Sync());
    rec->Add("replay.wal_sync_us", MsSince(t0) * 1e3);
  }
  NUMDIST_ASSIGN_OR_RETURN(const std::vector<std::string> sketches,
                           checkpoint.EncodeSketches());
  const std::vector<serve::WalSeqEntry> seqs =
      checkpoint.sequence_tracker()->Export();
  for (int i = 0; i < kCompactions; ++i) {
    const Clock::time_point t0 = Clock::now();
    NUMDIST_RETURN_NOT_OK(wal.Compact(sketches, seqs));
    rec->Add("replay.wal_compact_ms", MsSince(t0));
  }
  // The compacted log must replay to the checkpointed state.
  NUMDIST_ASSIGN_OR_RETURN(serve::CollectorSession restored,
                           serve::CollectorSession::Make(ctx.pool.spec));
  serve::WalConsumer consumer;
  consumer.on_frame = [&restored](std::string_view f) {
    return restored.HandleFrame(f);
  };
  consumer.on_checkpoint = [&restored](const std::vector<std::string>& s) {
    return restored.ResetToSketches(s);
  };
  consumer.on_seq_checkpoint = [](const std::vector<serve::WalSeqEntry>&) {
    return Status::OK();
  };
  {
    NUMDIST_ASSIGN_OR_RETURN(serve::WalLog reopened,
                             serve::WalLog::Open(dir, options, consumer));
  }
  NUMDIST_ASSIGN_OR_RETURN(const std::string got, restored.EncodeSketch());
  ctx.tally->Check(got == ctx.pool.pass_sketch,
                   "replayed WAL checkpoint differs from the pass fold");
  std::filesystem::remove_all(dir, ec);
  return Status::OK();
}

/// Streams the frames to a real standby collector over a Unix socket,
/// timing each net::WriteAll of one framed frame.
Status ReplayReplica(const RunContext& ctx,
                     const std::vector<std::string>& frames) {
  const std::string sock = ctx.work_dir + "/replay-standby.sock";
  net::ServerOptions options;
  options.send_acks = false;
  options.drain_on_disconnect = true;
  NUMDIST_ASSIGN_OR_RETURN(
      std::unique_ptr<net::CollectorServer> standby,
      net::CollectorServer::Make(ctx.pool.spec, options));
  NUMDIST_ASSIGN_OR_RETURN(const net::Endpoint ep,
                           net::ParseEndpoint("unix:" + sock));
  NUMDIST_RETURN_NOT_OK(standby->AddListener(ep).status());
  Status run;
  Status wrote;
  std::thread serving([&] { run = standby->Run(); });
  {
    Result<net::Fd> fd = net::Dial(ep);
    wrote = fd.status();
    std::string framed;
    for (size_t i = 0; wrote.ok() && i < frames.size(); ++i) {
      framed.clear();
      serve::AppendFramePrefix(frames[i].size(), &framed);
      framed.append(frames[i]);
      const Clock::time_point t0 = Clock::now();
      wrote = net::WriteAll(fd.value().get(), framed);
      ctx.rec->Add("replay.replica_write_us", MsSince(t0) * 1e3);
    }
  }  // closing the socket ends the stream; the standby drains itself
  standby->RequestDrain();
  serving.join();
  NUMDIST_RETURN_NOT_OK(wrote);
  NUMDIST_RETURN_NOT_OK(run);
  NUMDIST_ASSIGN_OR_RETURN(const std::string got, standby->EncodeSketch());
  ctx.tally->Check(got == ctx.pool.pass_sketch,
                   "standby fed by replica writes differs from the pass fold");
  return Status::OK();
}

Status ReplayStages(const RunContext& ctx, uint32_t parent) {
  Recorder* rec = ctx.rec;
  Tally* tally = ctx.tally;
  const Pool& pool = ctx.pool;
  const wire::MethodSpec& spec = pool.spec;

  // The frames exactly as this workload puts them on the wire.
  std::vector<std::string> frames = pool.frames;
  if (ctx.cfg.kind == Kind::kDurableAcked) {
    for (size_t i = 0; i < frames.size(); ++i) {
      NUMDIST_RETURN_NOT_OK(StampFrame(pool.frames[i], 1 + i % kConnections,
                                       1 + i / kConnections, &frames[i]));
    }
  }
  std::string stream;
  size_t frame_bytes = 0;
  for (const std::string& frame : frames) {
    serve::AppendFramePrefix(frame.size(), &stream);
    stream.append(frame);
    frame_bytes += frame.size();
  }
  rec->Add("replay.frame_bytes_per_report",
           static_cast<double>(frame_bytes) / static_cast<double>(pool.reports));

  {
    ScopedSpan span(rec, "replay.setup", parent);
    for (int r = 0; r < kReps; ++r) {
      Result<numdist::ProtocolPtr> protocol = Status::Internal("not made");
      Timed(rec, "make_protocol_ms", 1.0,
            [&] { protocol = wire::MakeProtocolForSpec(spec); });
      NUMDIST_RETURN_NOT_OK(protocol.status());
      Result<serve::CollectorSession> session =
          Status::Internal("not made");
      Timed(rec, "collector_make_ms", 1.0,
            [&] { session = serve::CollectorSession::Make(spec); });
      NUMDIST_RETURN_NOT_OK(session.status());
      Result<numdist::SwEstimator> est = Status::Internal("not made");
      Timed(rec, "sw_estimator_make_ms", 1.0,
            [&] { est = numdist::SwEstimator::Make(EstimatorOptions(pool)); });
      NUMDIST_RETURN_NOT_OK(est.status());
    }
  }

  {
    ScopedSpan span(rec, "replay.framing", parent);
    for (int r = 0; r < kReps; ++r) {
      serve::FrameDecoder decoder;
      std::string frame;
      size_t popped = 0;
      Status fed;
      Timed(rec, "feed_ns_per_byte", 1e6 / static_cast<double>(stream.size()),
            [&] {
              for (size_t off = 0; off < stream.size() && fed.ok();
                   off += 64u << 10) {
                fed = decoder.Feed(
                    std::string_view(stream).substr(off, 64u << 10));
                while (decoder.Next(&frame)) ++popped;
              }
            });
      tally->Check(fed.ok() && popped == frames.size(),
                   "FrameDecoder did not return every frame");
    }
  }

  NUMDIST_ASSIGN_OR_RETURN(const numdist::ProtocolPtr protocol,
                           wire::MakeProtocolForSpec(spec));
  std::vector<std::unique_ptr<numdist::ReportChunk>> chunks(frames.size());
  {
    ScopedSpan span(rec, "replay.wire_decode", parent);
    for (int r = 0; r < kReps; ++r) {
      Status decoded;
      Timed(rec, "decode_us_per_frame",
            1e3 / static_cast<double>(frames.size()), [&] {
              for (size_t i = 0; i < frames.size() && decoded.ok(); ++i) {
                const auto bytes = wire::FrameBytes(frames[i]);
                Result<wire::FrameInfo> info = wire::PeekFrame(bytes);
                if (!info.ok()) {
                  decoded = info.status();
                  break;
                }
                auto chunk = wire::DecodeReportFrame(spec, *protocol, bytes);
                if (!chunk.ok()) {
                  decoded = chunk.status();
                  break;
                }
                chunks[i] = std::move(chunk).value();
              }
            });
      NUMDIST_RETURN_NOT_OK(decoded);
    }
  }

  std::unique_ptr<numdist::Accumulator> acc;
  {
    ScopedSpan span(rec, "replay.absorb", parent);
    for (int r = 0; r < kReps; ++r) {
      acc = protocol->MakeAccumulator();
      Status absorbed;
      Timed(rec, "absorb_ns_per_report",
            1e6 / static_cast<double>(pool.reports), [&] {
              for (const auto& chunk : chunks) {
                absorbed = acc->Absorb(*chunk);
                if (!absorbed.ok()) break;
              }
            });
      NUMDIST_RETURN_NOT_OK(absorbed);
    }
  }

  // Kept for the WAL stage: its sketches and dedup window are what a
  // checkpoint of this pass holds.
  Result<serve::CollectorSession> folded = Status::Internal("not made");
  {
    ScopedSpan span(rec, "replay.handle_frame", parent);
    for (int r = 0; r < kReps; ++r) {
      folded = serve::CollectorSession::Make(spec);
      NUMDIST_RETURN_NOT_OK(folded.status());
      Status handled;
      Timed(rec, "handle_frame_us", 1e3 / static_cast<double>(frames.size()),
            [&] {
              for (const std::string& frame : frames) {
                handled = folded.value().HandleFrame(frame);
                if (!handled.ok()) break;
              }
            });
      NUMDIST_RETURN_NOT_OK(handled);
    }
    NUMDIST_ASSIGN_OR_RETURN(const std::string got,
                             folded.value().EncodeSketch());
    tally->Check(got == pool.pass_sketch,
                 "HandleFrame fold of the replayed frames differs");
  }

  {
    ScopedSpan span(rec, "replay.wal", parent);
    NUMDIST_RETURN_NOT_OK(ReplayWal(ctx, frames, folded.value()));
  }
  {
    ScopedSpan span(rec, "replay.replica", parent);
    NUMDIST_RETURN_NOT_OK(ReplayReplica(ctx, frames));
  }

  NUMDIST_ASSIGN_OR_RETURN(const numdist::SwEstimator est_value,
                           numdist::SwEstimator::Make(EstimatorOptions(pool)));
  const auto est =
      std::make_shared<const numdist::SwEstimator>(std::move(est_value));
  {
    ScopedSpan span(rec, "replay.reconstruct", parent);
    for (int r = 0; r < kReps; ++r) {
      Result<numdist::MethodOutput> out = Status::Internal("not run");
      Timed(rec, "reconstruct_ms", 1.0,
            [&] { out = protocol->Reconstruct(*acc); });
      NUMDIST_RETURN_NOT_OK(out.status());
    }
    NUMDIST_ASSIGN_OR_RETURN(const numdist::EmResult em,
                             est->Reconstruct(Counts(*acc)));
    rec->Add("replay.em_iterations", static_cast<double>(em.iterations));
  }

  {
    ScopedSpan span(rec, "replay.ticks", parent);
    numdist::IncrementalOptions options;
    options.max_iterations_per_update = kEstimateMaxIterations;
    NUMDIST_ASSIGN_OR_RETURN(numdist::IncrementalReconstructor inc,
                             numdist::IncrementalReconstructor::Make(est, options));
    std::unique_ptr<numdist::Accumulator> live = protocol->MakeAccumulator();
    size_t next = 0;
    for (size_t t = 0; t < kTicks; ++t) {
      for (uint64_t f = 0; f < kEstimateEveryFrames; ++f) {
        NUMDIST_RETURN_NOT_OK(live->Absorb(*chunks[next]));
        next = (next + 1) % chunks.size();
      }
      const std::vector<uint64_t> totals = Counts(*live);
      const Clock::time_point t0 = Clock::now();
      NUMDIST_ASSIGN_OR_RETURN(const numdist::EmResult em,
                               inc.UpdateFromTotals(totals, live->num_reports()));
      rec->Add("replay.tick_ms", MsSince(t0));
      rec->Add("replay.tick_iterations", static_cast<double>(em.iterations));
    }
  }
  return Status::OK();
}

}  // namespace

void Replay(const RunContext& ctx) {
  ScopedSpan span(ctx.rec, "replay");
  const Status st = ReplayStages(ctx, span.id());
  ctx.tally->Check(st.ok(), "replay: " + st.ToString());
}

}  // namespace perfbench
