#include "net/server.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "common/executor.h"

namespace numdist::net {

namespace {

using Clock = std::chrono::steady_clock;

Status Errno(const char* what) {
  return Status::Internal(std::string("net: ") + what + " failed (" +
                          std::strerror(errno) + ")");
}

// Bytes one connection's single read of a reactor round may return
// (fairness: one fast client cannot starve 10k slow ones). The round
// absorbs all of it before the next epoll_wait, which is the server's
// only throttle.
constexpr size_t kReadChunk = 64u << 10;

// Rounds of fewer frames absorb on the reactor thread, straight into the
// main session; larger rounds fan out to the per-slot sessions and fold.
// An SW frame absorbs in about a microsecond, so a small round spends
// more on the executor hand-off and the fold than the fan-out saves.
// Measured with perfbench on a 4-core Xeon VM: inline small rounds took
// durable_acked's p50 ack from 0.147 to 0.114 ms (10 alternating 30 s
// pairs). 64 sits in a gap of the observed round sizes: durable_acked's
// ack window (8 frames on 4 connections) caps its rounds at 32 frames,
// while most of ingest_raw's frames arrive in rounds of 256-511. In a
// 10 s threshold sweep durable_acked gained from 32 up, and absorbing
// every round inline raised ingest_raw's p50 from 0.31-0.45 ms to
// 0.44-0.67 ms.
constexpr size_t kParallelAbsorbMinFrames = 64;

// Frames per replication write. A standby running with send_acks on acks
// each sequenced frame it is sent (a few dozen bytes each) and those acks
// are drained only between writes, so no write carries enough frames for
// their acks to fill the socket buffer they come back through.
constexpr size_t kReplicaFramesPerWrite = 256;

// Sends every byte of the `count` iovecs at `iov` on a blocking socket,
// resuming after a short send; consumes the iovecs in place. MSG_NOSIGNAL
// turns a reset peer into an EPIPE error instead of a SIGPIPE.
Status SendAll(int fd, iovec* iov, size_t count) {
  msghdr msg{};
  while (count > 0) {
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t sent = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    size_t left = static_cast<size_t>(sent);
    for (; count > 0 && left >= iov->iov_len; ++iov, --count) {
      left -= iov->iov_len;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::OK();
}

// Common first base of everything registered with the reactor, so an
// event's void* tag can be classified before downcasting.
struct IoHandle {
  explicit IoHandle(bool listener) : is_listener(listener) {}
  const bool is_listener;
};

}  // namespace

struct CollectorServer::Listener : IoHandle {
  Listener() : IoHandle(true) {}
  Fd fd;
  Endpoint endpoint;
};

struct CollectorServer::Connection : IoHandle {
  Connection() : IoHandle(false) {}
  Fd fd;
  /// Streams only (AddStream): the ack sink, separate from `fd`.
  Fd out_fd;
  /// False for a stream epoll refused: always readable, read every round.
  bool polled = true;
  /// When bytes last arrived (kept only with read_timeout_ms > 0).
  Clock::time_point last_read;
  serve::FrameDecoder decoder;  // frames of at most serve::kMaxFrameBytes
  bool closed = false;
  /// Queued outbound bytes (ack frames) not yet accepted by the kernel.
  std::string out_buf;
  size_t out_off = 0;
  /// EPOLLOUT armed: the last flush hit a full socket buffer.
  bool want_write = false;
};

struct CollectorServer::PendingFrame {
  Connection* conn;
  std::string frame;
  Clock::time_point decoded_at;
};

Result<std::unique_ptr<CollectorServer>> CollectorServer::Make(
    const wire::MethodSpec& spec, ServerOptions options) {
  NUMDIST_ASSIGN_OR_RETURN(serve::CollectorSession main,
                           serve::CollectorSession::Make(spec));
  NUMDIST_ASSIGN_OR_RETURN(Reactor reactor, Reactor::Make());
  std::unique_ptr<CollectorServer> server(
      new CollectorServer(std::move(main), std::move(reactor), options));
  if (options.estimate_every_frames > 0 || options.estimate_every_ms > 0) {
    // Same spec -> estimator mapping the SW protocol uses (SW specs only),
    // so the estimator's output buckets match the accumulator's counts.
    NUMDIST_ASSIGN_OR_RETURN(const SwEstimatorOptions est_options,
                             wire::SwEstimatorOptionsForSpec(spec));
    NUMDIST_ASSIGN_OR_RETURN(SwEstimator est, SwEstimator::Make(est_options));
    IncrementalOptions inc_options;
    inc_options.half_life = options.estimate_half_life;
    inc_options.max_iterations_per_update = options.estimate_max_iterations;
    NUMDIST_ASSIGN_OR_RETURN(
        IncrementalReconstructor inc,
        IncrementalReconstructor::Make(
            std::make_shared<const SwEstimator>(std::move(est)), inc_options));
    server->inc_ =
        std::make_unique<IncrementalReconstructor>(std::move(inc));
  }
  // One session per executor slot. ParallelFor's slot ids are always
  // below slots(). Each is a peer of the main session: one shared
  // Protocol for the whole process, one ledger (tenant budgets cap the
  // process-global spend), and one dedup window (a re-sent sequenced
  // frame is recognized no matter which slot claims it).
  const size_t slots = Executor::Shared().slots();
  server->slot_sessions_.reserve(slots);
  for (size_t s = 0; s < slots; ++s) {
    server->slot_sessions_.push_back(server->main_.MakePeer());
  }
  if (!options.wal_path.empty()) {
    // Crash recovery happens here, before the first listener exists:
    // the log's clean prefix replays into the main session, then the
    // writer truncates any torn tail and appends from the recovered
    // offset.
    NUMDIST_ASSIGN_OR_RETURN(
        serve::WalLog log,
        serve::WalLog::Open(options.wal_path, options.wal,
                            server->main_.ReplayConsumer()));
    server->wal_ = std::make_unique<serve::WalLog>(std::move(log));
    server->wal_recovery_ = server->wal_->recovery();
  }
  if (!options.replicate_to.empty()) {
    NUMDIST_ASSIGN_OR_RETURN(const Endpoint replica,
                             ParseEndpoint(options.replicate_to));
    NUMDIST_ASSIGN_OR_RETURN(server->replica_fd_, Dial(replica));
    if (server->wal_recovery_.frames > 0 ||
        server->wal_recovery_.checkpoints > 0) {
      // State recovered from the WAL predates this replication link; sync
      // it as sketch frames before the first live frame. (The dedup
      // window travels only through live sequenced frames — a standby
      // attached after a recovery dedups from the first synced frame on.)
      NUMDIST_ASSIGN_OR_RETURN(const std::vector<std::string> sketches,
                               server->main_.EncodeSketches());
      const std::vector<std::string_view> frames(sketches.begin(),
                                                 sketches.end());
      NUMDIST_RETURN_NOT_OK(server->ForwardToReplica(frames));
    }
  }
  return server;
}

void CollectorServer::SetTenantBudget(uint32_t tenant,
                                      serve::TenantBudget budget) {
  main_.SetTenantBudget(tenant, budget);
}

CollectorServer::~CollectorServer() = default;

CollectorServer::CollectorServer(serve::CollectorSession main,
                                 Reactor reactor, ServerOptions options)
    : main_(std::move(main)),
      reactor_(std::move(reactor)),
      options_(options) {}

Result<Endpoint> CollectorServer::AddListener(const Endpoint& endpoint) {
  auto listener = std::make_unique<Listener>();
  NUMDIST_ASSIGN_OR_RETURN(listener->fd, ListenOn(endpoint));
  NUMDIST_ASSIGN_OR_RETURN(listener->endpoint,
                           LocalEndpoint(listener->fd.get(), endpoint.kind));
  NUMDIST_RETURN_NOT_OK(reactor_.Add(listener->fd.get(), EPOLLIN,
                                     static_cast<IoHandle*>(listener.get())));
  const Endpoint bound = listener->endpoint;
  listeners_.push_back(std::move(listener));
  return bound;
}

Status CollectorServer::AddStream(Fd in, Fd out) {
  auto conn = std::make_unique<Connection>();
  conn->fd = std::move(in);
  conn->out_fd = std::move(out);
  const Status added = reactor_.Add(conn->fd.get(), EPOLLIN,
                                    static_cast<IoHandle*>(conn.get()));
  if (added.code() == StatusCode::kFailedPrecondition) {
    conn->polled = false;
    ++unpolled_;
  } else if (!added.ok()) {
    return added;
  }
  ++stats_.connections_accepted;
  connections_.push_back(std::move(conn));
  return Status::OK();
}

void CollectorServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  reactor_.Wake();
}

void CollectorServer::EnterDrain(bool cut_connections) {
  if (draining_) return;
  draining_ = true;
  for (auto& listener : listeners_) {
    if (!listener->fd.valid()) continue;
    // Clients that completed their TCP handshake before the drain are in
    // the accept backlog and must still be served to EOF — a SIGTERM
    // racing a fresh connection would otherwise silently drop its frames.
    if (!cut_connections) (void)HandleAccept(listener.get());
    (void)reactor_.Del(listener->fd.get());
    listener->fd.reset();
    if (listener->endpoint.kind == Endpoint::Kind::kUnix) {
      ::unlink(listener->endpoint.path.c_str());
    }
  }
  if (cut_connections) {
    // The scripted stop (`expect_frames` reached): everything the server
    // was waiting for has arrived; remaining connections are cut and any
    // partially received frame is dropped.
    for (auto& conn : connections_) CloseConnection(conn.get());
  }
}

Status CollectorServer::HandleAccept(Listener* listener) {
  for (;;) {
    const int cfd = accept4(listener->fd.get(), nullptr, nullptr,
                            SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return Errno("accept4");
    }
    auto conn = std::make_unique<Connection>();
    conn->fd.reset(cfd);
    const Status added =
        reactor_.Add(cfd, EPOLLIN, static_cast<IoHandle*>(conn.get()));
    if (!added.ok()) return added;
    ++stats_.connections_accepted;
    connections_.push_back(std::move(conn));
  }
}

void CollectorServer::HandleReadable(Connection* conn) {
  if (conn->closed) return;
  // Exactly one read per connection per round: a stream may be blocking,
  // and a second read could stall the loop while its client waits for an
  // ack.
  char buf[kReadChunk];
  ssize_t got;
  do {
    got = read(conn->fd.get(), buf, sizeof(buf));
  } while (got < 0 && errno == EINTR);
  if (got < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      FailConnection(conn, Errno("read"));
    }
    return;
  }
  if (got == 0) {
    // Peer finished. A clean frame boundary is a completed stream; a
    // mid-frame cut is the typed error, and costs only this connection.
    const Status end = conn->decoder.AtEnd();
    if (end.ok()) {
      CloseConnection(conn);
    } else {
      FailConnection(conn, end);
    }
    return;
  }
  stats_.bytes_received += static_cast<uint64_t>(got);
  if (options_.read_timeout_ms > 0) conn->last_read = Clock::now();
  const Status fed =
      conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(got)));
  if (!fed.ok()) {
    FailConnection(conn, fed);
    return;
  }
  std::string frame;
  while (conn->decoder.Next(&frame)) {
    pending_.push_back({conn, std::move(frame),
                        options_.record_latency ? Clock::now()
                                                : Clock::time_point()});
  }
}

void CollectorServer::UpdateInterest(Connection* conn) {
  if (conn->closed || !conn->polled) return;
  const uint32_t events =
      EPOLLIN | (conn->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  // A dead fd fails here too; the next read or write surfaces it.
  (void)reactor_.Mod(conn->fd.get(), events, static_cast<IoHandle*>(conn));
}

void CollectorServer::FlushConn(Connection* conn) {
  if (conn->closed) return;
  if (conn->out_fd.valid()) {
    // A stream's ack sink (stdout): a blocking write(2). Losing it fails
    // the stream, whose unread input would otherwise go missing from a
    // sketch that looks complete.
    const Status wrote = WriteAll(conn->out_fd.get(), conn->out_buf);
    conn->out_buf.clear();
    if (!wrote.ok()) FailConnection(conn, wrote);
    return;
  }
  const bool wanted_write = conn->want_write;
  while (conn->out_off < conn->out_buf.size()) {
    const ssize_t wrote =
        send(conn->fd.get(), conn->out_buf.data() + conn->out_off,
             conn->out_buf.size() - conn->out_off, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_write) {
          conn->want_write = true;
          UpdateInterest(conn);
        }
        return;
      }
      // A peer that vanished before reading its acks: the frames are
      // absorbed and durable; only the notification is lost (the client's
      // retry path handles it). Not a frame error — close quietly.
      CloseConnection(conn);
      return;
    }
    conn->out_off += static_cast<size_t>(wrote);
  }
  conn->out_buf.clear();
  conn->out_off = 0;
  if (wanted_write) {
    conn->want_write = false;
    UpdateInterest(conn);
  }
}

void CollectorServer::QueueAck(Connection* conn, const wire::FrameSeq& seq) {
  if (conn->closed) return;
  std::string ack;
  if (!wire::EncodeAckFrame(seq, &ack).ok()) return;  // seq 0 never queues
  serve::AppendFramePrefix(ack.size(), &conn->out_buf);
  conn->out_buf.append(ack);
  ++stats_.acks_queued;
}

Status CollectorServer::ForwardToReplica(
    std::span<const std::string_view> frames) {
  std::string prefixes;
  prefixes.reserve(kReplicaFramesPerWrite * sizeof(uint32_t));
  iovec iov[2 * kReplicaFramesPerWrite];
  for (size_t first = 0; first < frames.size();
       first += kReplicaFramesPerWrite) {
    // The standby acks the sequenced frames we forward (it cannot tell a
    // primary from a client). Drain and discard them before each write so
    // they never fill the socket buffer. Any error other than "nothing
    // buffered" is a broken link: a reset standby must fail Run, not fall
    // through to a write into a dead socket.
    char scratch[4096];
    for (;;) {
      const ssize_t got = recv(replica_fd_.get(), scratch, sizeof(scratch),
                               MSG_DONTWAIT);
      if (got > 0) continue;
      if (got == 0) {
        return Status::Internal(
            "net: standby closed the replication stream mid-serve");
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return Errno("recv from standby");
    }
    const size_t count =
        std::min(kReplicaFramesPerWrite, frames.size() - first);
    const std::span<const std::string_view> chunk =
        frames.subspan(first, count);
    prefixes.clear();
    for (const std::string_view frame : chunk) {
      serve::AppendFramePrefix(frame.size(), &prefixes);
    }
    for (size_t k = 0; k < count; ++k) {
      iov[2 * k] = {prefixes.data() + k * sizeof(uint32_t), sizeof(uint32_t)};
      iov[2 * k + 1] = {const_cast<char*>(chunk[k].data()), chunk[k].size()};
    }
    NUMDIST_RETURN_NOT_OK(SendAll(replica_fd_.get(), iov, 2 * count));
    stats_.frames_replicated += count;
  }
  return Status::OK();
}

Status CollectorServer::AbsorbPending() {
  if (pending_.empty()) return Status::OK();
  const size_t n = pending_.size();
  std::vector<Status> statuses(n);
  std::vector<serve::FrameOutcome> outcomes(n);
  Clock::time_point done;
  Executor& executor = Executor::Shared();
  if (n < kParallelAbsorbMinFrames ||
      executor.MaxParticipants(n, options_.max_parallelism) <= 1) {
    // A small round: absorb in arrival order into the main session. Each
    // frame's dedup claim settles before the next frame is handled.
    for (size_t i = 0; i < n; ++i) {
      statuses[i] = main_.HandleFrame(pending_[i].frame, &outcomes[i]);
    }
    done = Clock::now();
  } else {
    executor.ParallelFor(
        n, options_.max_parallelism, [&](size_t task, size_t slot) {
          statuses[task] = slot_sessions_[slot].HandleFrame(
              pending_[task].frame, &outcomes[task]);
        });
    done = Clock::now();
    // Settle the round: fold every slot into the main session and start
    // it afresh. AbsorbSession never charges the shared ledger (those
    // reports were charged when their frames were absorbed), and merges
    // are exact integers, so the aggregate is independent of slot
    // assignment, and of which rounds took this path.
    for (serve::CollectorSession& slot : slot_sessions_) {
      if (slot.num_reports() == 0) continue;
      NUMDIST_RETURN_NOT_OK(main_.AbsorbSession(slot));
      slot = main_.MakePeer();
    }
  }
  for (size_t i = 0; i < n; ++i) {
    PendingFrame& pf = pending_[i];
    if (statuses[i].ok()) {
      if (outcomes[i].duplicate) {
        ++stats_.duplicates;
      } else {
        ++stats_.frames_absorbed;
      }
      if (options_.record_latency && !outcomes[i].duplicate) {
        stats_.latency_ns.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                done - pf.decoded_at)
                .count()));
      }
    } else {
      FailConnection(pf.conn, statuses[i]);
    }
  }
  // Durability gate for the acks below: an ack a client ever sees refers
  // to a frame that is both locally durable (when a WAL is attached) and
  // on the standby (when replicating). The batch's accepted frames go to
  // the log in one append (one fsync under sync_each_record), then to the
  // standby; a failure of either is fatal to Run and suppresses every ack
  // of the batch. A frame logged but never acked comes back as a
  // retransmit, which the recovered dedup window refuses.
  //
  // Accepted frames hit the log in batch (= absorption) order, which is
  // the order recovery replays them in. Absorption itself is
  // order-independent (exact commutative merges), so the replayed
  // aggregate is byte-identical regardless of batching. Duplicates never
  // reach the log — replay would double-claim their ids.
  std::vector<std::string_view> accepted;
  accepted.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (statuses[i].ok() && !outcomes[i].duplicate) {
      accepted.push_back(pending_[i].frame);
    }
  }
  // Replication covers only frames the log holds: a batch the WAL
  // rejected never reaches the standby either, or a failover would serve
  // state the acknowledged stream never contained.
  if (wal_ != nullptr) {
    NUMDIST_RETURN_NOT_OK(wal_->AppendFrames(accepted));
    wal_frames_since_checkpoint_ += accepted.size();
  }
  if (replica_fd_.valid()) NUMDIST_RETURN_NOT_OK(ForwardToReplica(accepted));
  if (options_.send_acks) {
    for (size_t i = 0; i < n; ++i) {
      if (!statuses[i].ok() || !outcomes[i].has_seq) continue;
      QueueAck(pending_[i].conn, outcomes[i].seq);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    Connection* conn = pending_[i].conn;
    if (!conn->out_buf.empty()) FlushConn(conn);
  }
  pending_.clear();
  return Status::OK();
}

Status CollectorServer::MaybeCheckpointWal(bool drained) {
  if (wal_ == nullptr) return Status::OK();
  if (!drained && (options_.wal.checkpoint_every_frames == 0 ||
                   wal_frames_since_checkpoint_ <
                       options_.wal.checkpoint_every_frames)) {
    return Status::OK();
  }
  // Runs between rounds, when main_ holds the whole aggregate and the
  // dedup window holds no pending claim. The window rides along in the
  // checkpoint: after a crash the recovered collector still refuses the
  // retransmits it already acked. At drain this compacts the log to one
  // checkpoint of the final state, so a restart replays a single record
  // instead of the whole stream.
  NUMDIST_ASSIGN_OR_RETURN(const std::vector<std::string> sketches,
                           main_.EncodeSketches());
  NUMDIST_RETURN_NOT_OK(
      wal_->Compact(sketches, main_.sequence_tracker()->Export()));
  wal_frames_since_checkpoint_ = 0;
  return Status::OK();
}

void CollectorServer::FailConnection(Connection* conn, const Status& error) {
  // Counted once per connection: a later frame of the same round can fail
  // on a connection its earlier frame already dropped.
  if (conn->closed) return;
  ++stats_.connection_errors;
  if (stats_.first_error.ok()) stats_.first_error = error;
  CloseConnection(conn);
}

void CollectorServer::CloseConnection(Connection* conn) {
  if (conn->closed) return;
  if (conn->polled) {
    (void)reactor_.Del(conn->fd.get());
  } else {
    --unpolled_;
  }
  conn->fd.reset();
  conn->out_fd.reset();
  conn->closed = true;
  conn->want_write = false;
  conn->out_buf.clear();
  conn->out_off = 0;
  if (options_.drain_on_disconnect && !draining_ &&
      stats_.connections_accepted > 0) {
    bool any_open = false;
    for (const auto& c : connections_) {
      if (!c->closed) {
        any_open = true;
        break;
      }
    }
    if (!any_open) EnterDrain(/*cut_connections=*/false);
  }
}

void CollectorServer::ReapClosed() {
  // Runs between rounds, when no queued frame points at a connection.
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& conn) {
    return conn->closed;
  });
}

void CollectorServer::ExpireStalledReads() {
  const Clock::time_point now = Clock::now();
  const auto timeout = std::chrono::milliseconds(options_.read_timeout_ms);
  // Indexed: a failure can drain, and a drain accepts the backlog.
  for (size_t i = 0; i < connections_.size(); ++i) {
    Connection* conn = connections_[i].get();
    if (conn->closed || !conn->decoder.mid_frame() ||
        now - conn->last_read < timeout) {
      continue;
    }
    // Same taxonomy as an EOF at this position, with the stall called out.
    FailConnection(conn, Status::OutOfRange(
                             "framing: read timed out inside a frame after " +
                             std::to_string(options_.read_timeout_ms) +
                             " ms (" + conn->decoder.AtEnd().message() + ")"));
  }
}

int CollectorServer::WaitTimeoutMs() const {
  if (unpolled_ > 0) return 0;
  Clock::time_point deadline = Clock::time_point::max();
  if (inc_ != nullptr && options_.estimate_every_ms > 0) {
    deadline = next_estimate_at_;
  }
  if (options_.read_timeout_ms > 0) {
    const auto timeout = std::chrono::milliseconds(options_.read_timeout_ms);
    for (const auto& conn : connections_) {
      if (!conn->closed && conn->decoder.mid_frame()) {
        deadline = std::min(deadline, conn->last_read + timeout);
      }
    }
  }
  if (deadline == Clock::time_point::max()) return -1;
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                             deadline - Clock::now())
                             .count();
  if (remaining <= 0) return 0;
  return static_cast<int>(
      std::min<long long>(remaining, std::numeric_limits<int>::max()));
}

void CollectorServer::MaybeEstimate(bool drained) {
  if (inc_ == nullptr) return;
  // At drain, one last tick when frames were absorbed since the previous
  // one: the last estimate then covers the drained sketch.
  bool due = drained && stats_.frames_absorbed > last_estimate_frames_;
  if (options_.estimate_every_frames > 0 &&
      stats_.frames_absorbed >=
          last_estimate_frames_ + options_.estimate_every_frames) {
    due = true;
  }
  if (!drained && options_.estimate_every_ms > 0 &&
      Clock::now() >= next_estimate_at_) {
    due = true;
    // Next deadline from now, not from the missed slot: a long EM tick
    // must not cause a burst of catch-up ticks.
    next_estimate_at_ =
        Clock::now() + std::chrono::milliseconds(options_.estimate_every_ms);
  }
  if (!due) return;
  last_estimate_frames_ = stats_.frames_absorbed;

  // The exact per-bucket counts of the main session, which holds the
  // whole aggregate between rounds. Read-only: the aggregate the final
  // sketch is encoded from is never touched, so the live path cannot
  // perturb it.
  const size_t buckets = inc_->estimator().output_buckets();
  estimate_totals_.assign(buckets, 0);
  const AccumulatorState state = main_.ExportState();
  const uint64_t reports = state.num_reports;
  if (reports == 0) return;  // nothing ingested yet; tick again later
  if (!state.tables.empty()) {
    const std::vector<int64_t>& counts = state.tables[0].counts;
    for (size_t j = 0; j < buckets && j < counts.size(); ++j) {
      estimate_totals_[j] = static_cast<uint64_t>(counts[j]);
    }
  }

  const Result<EmResult> run =
      inc_->UpdateFromTotals(estimate_totals_, reports);
  if (!run.ok()) {
    if (stats_.first_error.ok()) stats_.first_error = run.status();
    return;
  }
  ++stats_.estimate_ticks;
  if (options_.estimate_sink) {
    options_.estimate_sink(EstimateTick{.tick = stats_.estimate_ticks,
                                        .reports = reports,
                                        .frames = stats_.frames_absorbed,
                                        .em = run.value(),
                                        .checkpoint = inc_->checkpoint(),
                                        .totals = estimate_totals_});
  }
}

Status CollectorServer::Run() {
  std::vector<Reactor::Event> events(512);
  if (inc_ != nullptr && options_.estimate_every_ms > 0) {
    next_estimate_at_ =
        Clock::now() + std::chrono::milliseconds(options_.estimate_every_ms);
  }
  for (;;) {
    if (drain_requested_.load(std::memory_order_acquire)) {
      EnterDrain(/*cut_connections=*/false);
    }
    ReapClosed();
    if (draining_ && connections_.empty()) break;
    NUMDIST_ASSIGN_OR_RETURN(const size_t n,
                             reactor_.Wait(events, WaitTimeoutMs()));
    if (unpolled_ > 0) {
      for (size_t i = 0; i < connections_.size(); ++i) {
        if (!connections_[i]->polled) HandleReadable(connections_[i].get());
      }
    }
    for (size_t i = 0; i < n; ++i) {
      void* tag = events[i].tag;
      if (tag == nullptr) continue;  // wakeup; the flag check above acts
      auto* handle = static_cast<IoHandle*>(tag);
      if (handle->is_listener) {
        NUMDIST_RETURN_NOT_OK(HandleAccept(static_cast<Listener*>(handle)));
      } else {
        auto* conn = static_cast<Connection*>(handle);
        if ((events[i].events & EPOLLOUT) != 0) FlushConn(conn);
        if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
          HandleReadable(conn);
        }
      }
    }
    if (options_.read_timeout_ms > 0) ExpireStalledReads();
    NUMDIST_RETURN_NOT_OK(AbsorbPending());
    NUMDIST_RETURN_NOT_OK(MaybeCheckpointWal(/*drained=*/false));
    MaybeEstimate(/*drained=*/false);
    if (options_.expect_frames > 0 &&
        stats_.frames_absorbed >= options_.expect_frames) {
      EnterDrain(/*cut_connections=*/true);
    }
  }
  MaybeEstimate(/*drained=*/true);
  NUMDIST_RETURN_NOT_OK(MaybeCheckpointWal(/*drained=*/true));
  // A clean shutdown ends the replication stream with an orderly EOF, which
  // the standby reads as "primary finished" rather than a failure.
  if (replica_fd_.valid()) replica_fd_.reset();
  return Status::OK();
}

}  // namespace numdist::net
