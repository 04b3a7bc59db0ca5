// The collector's one ingest engine: one process, one epoll Reactor,
// thousands of concurrent report_client connections multiplexed into one
// aggregate. An already-open byte stream (stdin, a file) is served the same
// way as one more connection (AddStream), which is how collector_cli
// serves stdin, --in and each --merge file; the WAL, replication, ack and
// checkpoint policy below therefore exists once, here.
//
// Ingestion pipeline, per reactor round:
//
//   epoll_wait ─▶ accept / read ready connections (one read each)
//              ─▶ FrameDecoder reassembles u32-prefixed frames incrementally
//              ─▶ completed frames queue as one batch
//              ─▶ under 64 frames: absorbed in arrival order on the reactor
//                 thread, straight into the main CollectorSession
//                 64+ frames: Executor::Shared().ParallelFor absorbs the
//                 batch into per-slot CollectorSessions (no locks, no
//                 contention), and each slot folds into the main session
//              ─▶ WAL append, standby forward, acks
//
// The round settles all serving state: every frame read in a round is
// absorbed, folded, logged and acked before the next epoll_wait, so no
// queued frame, slot aggregate or pending dedup claim outlives it. Between
// rounds (and after Run) the main session alone holds the aggregate.
//
// Determinism: which connection a frame arrived on, how reads interleave,
// how batches are cut, whether a round absorbs inline or fans out, and
// which executor slot absorbs a frame are all invisible in the result —
// every frame is absorbed exactly once into SOME exact-integer
// accumulator, and accumulator merges are exact and commutative, so the
// final sketch is byte-identical to a single-process sharded run over the
// same frames for ANY interleaving (tests/net_test.cc in-process,
// tests/net_process_test.cc across real TCP connections and processes).
//
// Backpressure: a round makes exactly one read of at most 64 KiB per
// readable connection and absorbs all of it before the next epoll_wait.
// While the round absorbs, the kernel socket buffer fills and TCP flow
// control holds the sender back. Memory is bounded the same way: one
// round holds at most one read, plus one partial frame of at most
// serve::kMaxFrameBytes, per readable connection.
//
// Drain/shutdown: RequestDrain (async-signal-safe — SIGTERM handlers call
// it directly) closes the listeners, lets every open connection finish its
// stream to EOF, flushes the in-flight frames, and returns from Run with
// the aggregate complete. `expect_frames` is the scripted alternative:
// after N absorbed frames the server cuts remaining connections and
// drains itself (how coordinator trees without signal plumbing stop);
// `drain_on_disconnect` drains once the last connection ends (a standby,
// or a stdio collector or file coordinator whose last stream hit EOF).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "eval/incremental.h"
#include "net/reactor.h"
#include "net/socket.h"
#include "serve/collector.h"
#include "serve/framing.h"
#include "wire/wire.h"

namespace numdist::net {

/// One periodic live estimate, handed to ServerOptions::estimate_sink
/// synchronously from the reactor loop. All references point at server
/// state and are valid only for the duration of the call.
struct EstimateTick {
  /// 1-based tick index.
  uint64_t tick = 0;
  /// Cumulative reports / absorbed frames at this tick.
  uint64_t reports = 0;
  uint64_t frames = 0;
  /// This tick's reconstruction (warm-started; see eval/incremental.h).
  const EmResult& em;
  /// Cumulative iteration-budget bookkeeping across all ticks.
  const EmCheckpoint& checkpoint;
  /// Cumulative per-bucket report histogram the estimate was computed
  /// from (exact integers; the counts CollectorServer::EncodeSketch holds
  /// while the sink runs).
  const std::vector<uint64_t>& totals;
};

struct ServerOptions {
  /// Executor parallelism cap for batch absorption (0 = all slots; 1
  /// absorbs every round inline on the reactor thread).
  size_t max_parallelism = 0;
  /// When > 0: initiate drain automatically after this many frames have
  /// been absorbed (remaining connections are cut, not drained — the
  /// scripted coordinator-tree stop condition).
  uint64_t expect_frames = 0;
  /// Record per-frame ingest latency (frame fully decoded -> absorbed)
  /// into ServerStats::latency_ns. Bench-only; off in production serving.
  bool record_latency = false;
  /// Read deadline, armed only while a connection holds a partially
  /// received frame: one that stalls this long MID-FRAME fails with the
  /// typed OutOfRange a mid-frame EOF gives, so a dead client can neither
  /// hang a drain nor pin its buffer forever. A connection idling between
  /// complete frames is legitimate (an open but quiet client) and never
  /// times out. 0 disables the deadline and all of its bookkeeping.
  int read_timeout_ms = 0;

  /// Write-ahead log directory (empty = no durability; created when
  /// missing). Make replays the log into the main session before serving
  /// (crash recovery), every absorbed frame is appended in absorption
  /// order, and the log is compacted to a checkpoint of the final state at
  /// drain. A collector killed at any byte offset restarts byte-identical
  /// to an uninterrupted run over the logged frames (serve/wal.h).
  std::string wal_path;
  /// Checkpoint cadence / sync / segment size policy for wal_path.
  serve::WalOptions wal;

  /// Hot-standby replication endpoint (empty = none). Make dials it once;
  /// every absorbed non-duplicate frame is then streamed there verbatim
  /// (u32-prefixed, sequence context intact — the standby rebuilds the
  /// same dedup window). Each reactor batch's frames go out in one write
  /// (at most 256 frames per write) AFTER the batch's WAL append and
  /// BEFORE any of its acks, so an acked frame is always on the standby
  /// when the primary dies. State recovered from the WAL is synced ahead
  /// of the first frame as untagged/tenant-tagged sketch frames. A
  /// replication failure, a standby that resets or closes the link
  /// included, is fatal to Run and suppresses every ack of its batch —
  /// acks promise the standby has the frame, so serving must not
  /// continue without it.
  std::string replicate_to;

  /// When false, sequenced frames are absorbed and deduplicated but never
  /// acked. Standby mode: a standby must not write into the replication
  /// stream — a primary that dies with unread data in its receive queue
  /// RSTs the connection and may discard its own unsent tail, exactly the
  /// bytes the standby exists to preserve.
  bool send_acks = true;

  /// Promote-on-disconnect: once at least one connection has been
  /// accepted (or a stream attached), the server drains itself when the
  /// last open connection closes (clean EOF or error alike). Standby
  /// mode: the primary's death ends the replication stream, and the
  /// standby finishes with exactly the frames that reached it. Stdio and
  /// file-merge modes: the collector finishes when its last input stream
  /// ends.
  bool drain_on_disconnect = false;

  /// Live estimation cadence: re-reconstruct after this many newly
  /// absorbed frames (0 = off). SW methods only (the estimate is the
  /// paper's EM/EMS reconstruction); Make rejects other specs when a
  /// cadence is set. Estimation reads the accumulators without mutating
  /// them, so the final sketch stays byte-identical to a run without it.
  uint64_t estimate_every_frames = 0;
  /// ...and/or re-reconstruct every this many milliseconds (0 = off).
  /// Either cadence due triggers a tick.
  int64_t estimate_every_ms = 0;
  /// Mini-batch forgetting half-life in reports; > 0 switches the live
  /// estimate from warm (full cumulative counts) to the exponentially
  /// forgotten window (IncrementalOptions::Mode::kMiniBatch).
  double estimate_half_life = 0.0;
  /// Per-tick EM iteration budget (0 = the estimator's own cap).
  size_t estimate_max_iterations = 0;
  /// Called after each successful tick, between rounds, so
  /// CollectorServer::EncodeSketch then holds exactly `totals` (how
  /// collector_cli --estimate-out emits one sketch frame per tick). Run
  /// ticks once more at drain when frames were absorbed since the last
  /// tick, so the last call sees the drained sketch. Failures in the sink
  /// are the sink's problem; the server keeps serving.
  std::function<void(const EstimateTick&)> estimate_sink;
};

struct ServerStats {
  /// Accepted connections plus attached streams (AddStream).
  uint64_t connections_accepted = 0;
  uint64_t frames_absorbed = 0;
  uint64_t bytes_received = 0;
  /// Always 0: the round throttles reads, never a pause (see the
  /// backpressure note above). Kept because perfbench reports it.
  uint64_t pauses = 0;
  /// Connections dropped on a typed frame/decode error, each counted once
  /// however many of its frames failed (the error is in `first_error`;
  /// the server keeps serving everyone else).
  uint64_t connection_errors = 0;
  /// Sequenced frames skipped as already-claimed duplicates (still acked).
  uint64_t duplicates = 0;
  /// Ack frames queued to clients (absorbed + duplicate sequenced frames).
  uint64_t acks_queued = 0;
  /// Frames streamed to the standby (ServerOptions::replicate_to).
  uint64_t frames_replicated = 0;
  /// Successful live-estimation ticks (see ServerOptions cadence knobs).
  uint64_t estimate_ticks = 0;
  Status first_error;
  /// Per-frame decoded->absorbed latency, when record_latency is set.
  std::vector<uint64_t> latency_ns;
};

/// \brief Epoll-driven multi-connection collector process core.
class CollectorServer {
 public:
  static Result<std::unique_ptr<CollectorServer>> Make(
      const wire::MethodSpec& spec, ServerOptions options = {});
  ~CollectorServer();  // out-of-line: members hold incomplete types here

  /// Opens a listener and returns the endpoint it actually bound
  /// (tcp port 0 resolved). Call any number of times before Run — a
  /// collector can serve TCP and a Unix socket simultaneously.
  Result<Endpoint> AddListener(const Endpoint& endpoint);

  /// Serves an already-open byte stream as one more connection (how
  /// collector_cli serves stdin, --in and each --merge file). Frames are
  /// read from `in`; acks go to `out` by blocking write(2), since send(2)
  /// refuses the pipes and files stdout may be (`out` may be left invalid
  /// only when send_acks is off). The server owns both fds. `in` is read
  /// once per round and never made non-blocking (that would leak into the
  /// file description it shares with other processes), so a lock-step
  /// client waiting for an ack never finds the loop blocked in read(2); an
  /// `in` epoll refuses (a regular file, /dev/null) is read every round
  /// without waiting. A failed ack write fails the stream: closing it
  /// quietly would drop its unread input from a sketch that looks
  /// complete. Call before Run.
  Status AddStream(Fd in, Fd out);

  /// Serves until drain completes: accepts, reads, reassembles, absorbs.
  /// Per-connection errors (hostile frames, mid-stream disconnects) drop
  /// that connection and are counted in stats(); they do not stop the
  /// server. Returns non-OK only for reactor/socket-level failures.
  Status Run();

  /// Starts a graceful drain: stop accepting, serve open connections to
  /// EOF, absorb everything, return from Run. Async-signal-safe and
  /// thread-safe (atomic flag + eventfd wake).
  void RequestDrain();

  const wire::MethodSpec& spec() const { return main_.spec(); }
  const ServerStats& stats() const { return stats_; }
  /// Reports aggregated so far. Valid between rounds; complete only
  /// after Run returns.
  uint64_t num_reports() const { return main_.num_reports(); }

  /// What WAL recovery replayed before serving began (zeroes when
  /// ServerOptions::wal_path was empty or named a fresh log).
  const serve::WalReplayStats& wal_recovery() const { return wal_recovery_; }

  /// Caps one tenant's global spend across every absorb slot (the ledger
  /// is shared, so parallel absorption enforces one process-wide budget).
  void SetTenantBudget(uint32_t tenant, serve::TenantBudget budget);

  /// The incremental reconstruction state and its estimator (null unless
  /// a cadence was configured).
  const IncrementalReconstructor* incremental() const { return inc_.get(); }

  /// The aggregate as one untagged wire sketch frame, as one sketch frame
  /// per tenant (CollectorSession::EncodeSketches, what collector_cli
  /// emits), or as the reconstructed estimate. Valid between rounds as
  /// well as after Run has returned: each round folds its slots into the
  /// main session.
  Result<std::string> EncodeSketch() const { return main_.EncodeSketch(); }
  Result<std::vector<std::string>> EncodeSketches() const {
    return main_.EncodeSketches();
  }
  Result<MethodOutput> Reconstruct() const { return main_.Reconstruct(); }

 private:
  struct Listener;
  struct Connection;
  struct PendingFrame;

  CollectorServer(serve::CollectorSession main, Reactor reactor,
                  ServerOptions options);

  void EnterDrain(bool cut_connections);
  Status HandleAccept(Listener* listener);
  void HandleReadable(Connection* conn);
  /// Fails every connection stalled mid-frame past read_timeout_ms.
  void ExpireStalledReads();
  /// Absorbs the round's frames (inline into main_ under 64 frames, else
  /// across the slot sessions, then folded into main_), then logs,
  /// replicates and acks them. A fold, WAL or standby failure is fatal to
  /// Run and suppresses every ack of the batch.
  Status AbsorbPending();
  /// Queues one ack frame on the source connection (sent after the frame
  /// is locally durable and replicated).
  void QueueAck(Connection* conn, const wire::FrameSeq& seq);
  /// Pushes a connection's queued output (acks) to the socket; arms
  /// EPOLLOUT when the kernel buffer is full.
  void FlushConn(Connection* conn);
  /// Re-registers a connection's epoll interest from its want_write state.
  void UpdateInterest(Connection* conn);
  /// Streams absorbed frames to the standby (u32-prefixed, blocking), one
  /// write per 256 frames, discarding any acks the standby has sent back
  /// before each write.
  Status ForwardToReplica(std::span<const std::string_view> frames);
  /// Compacts the WAL to a checkpoint of main_ at drain, or mid-serve once
  /// the append cadence is due (no-op without a WAL).
  Status MaybeCheckpointWal(bool drained);
  void FailConnection(Connection* conn, const Status& error);
  void CloseConnection(Connection* conn);
  void ReapClosed();
  /// Runs a live-estimation tick when one is due (frame or time cadence),
  /// or at drain when frames were absorbed since the last tick.
  void MaybeEstimate(bool drained);
  /// Milliseconds until the next timed event — an estimate tick or a
  /// read deadline — (-1 = wait forever; 0 while an unpolled stream is
  /// open, since it is always readable).
  int WaitTimeoutMs() const;

  serve::CollectorSession main_;
  Reactor reactor_;
  ServerOptions options_;
  ServerStats stats_;

  std::vector<std::unique_ptr<Listener>> listeners_;
  std::vector<std::unique_ptr<Connection>> connections_;
  /// Open streams epoll refused (AddStream); Run reads them every round.
  size_t unpolled_ = 0;
  std::vector<PendingFrame> pending_;
  /// Per-executor-slot sessions for rounds of 64+ frames, folded into
  /// main_ at the end of such a round's absorb (smaller rounds absorb
  /// into main_ directly). Peers of main_ (CollectorSession::MakePeer):
  /// the process builds its Protocol once, in Make.
  std::vector<serve::CollectorSession> slot_sessions_;

  /// Durability (null unless ServerOptions::wal_path was set). The only
  /// WAL writer in the process: appends happen from the batch loop in
  /// absorption order, checkpoints on the cadence and at drain. An append
  /// failure is fatal (Run returns it — an aggregate the log no longer
  /// covers must not keep growing silently).
  std::unique_ptr<serve::WalLog> wal_;
  serve::WalReplayStats wal_recovery_;
  uint64_t wal_frames_since_checkpoint_ = 0;

  /// Standby replication (invalid fd unless ServerOptions::replicate_to
  /// was set). Blocking socket written from the batch loop; a write
  /// failure is fatal like a WAL failure.
  Fd replica_fd_;

  /// Live estimation (null unless a cadence is configured). The
  /// reconstructor only ever READS main_'s state (ExportState), so the
  /// final drained sketch is byte-identical with or without it.
  std::unique_ptr<IncrementalReconstructor> inc_;
  uint64_t last_estimate_frames_ = 0;
  std::chrono::steady_clock::time_point next_estimate_at_{};
  std::vector<uint64_t> estimate_totals_;  // per-tick scratch

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
};

}  // namespace numdist::net
