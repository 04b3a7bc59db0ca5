#include "serve/collector.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ostream>
#include <utility>

#include "serve/framing.h"

namespace numdist::serve {

void TenantLedger::SetBudget(uint32_t tenant, TenantBudget budget) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[tenant].budget = budget;
}

Status TenantLedger::Charge(uint32_t tenant, uint64_t num_reports,
                            double epsilon) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[tenant];
  const uint64_t projected = entry.spent + num_reports;
  if (entry.budget.max_reports > 0 &&
      projected > entry.budget.max_reports) {
    return Status::FailedPrecondition(
        "collector: tenant " + std::to_string(tenant) +
        " over report budget (" + std::to_string(projected) + " > " +
        std::to_string(entry.budget.max_reports) + " reports)");
  }
  if (entry.budget.max_epsilon > 0.0 &&
      static_cast<double>(projected) * epsilon > entry.budget.max_epsilon) {
    return Status::FailedPrecondition(
        "collector: tenant " + std::to_string(tenant) +
        " over epsilon budget (" + std::to_string(projected) +
        " reports x epsilon " + std::to_string(epsilon) + " exceeds " +
        std::to_string(entry.budget.max_epsilon) + ")");
  }
  entry.spent = projected;
  return Status::OK();
}

void TenantLedger::Refund(uint32_t tenant, uint64_t num_reports) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[tenant];
  entry.spent -= std::min(entry.spent, num_reports);
}

uint64_t TenantLedger::spent_reports(uint32_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(tenant);
  return it == entries_.end() ? 0 : it->second.spent;
}

void TenantLedger::ResetSpend() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [tenant, entry] : entries_) entry.spent = 0;
}

void TenantLedger::SetSpent(uint32_t tenant, uint64_t num_reports) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[tenant].spent = num_reports;
}

bool SequenceTracker::Claim(uint64_t epoch, uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  Window& window = windows_[epoch];
  if (seq <= window.floor) {
    // Normally a duplicate — unless this claim was released after an
    // Export folded it into the floor (the absorb was in flight on
    // another slot and later failed). Such a hole lives in `released`;
    // claiming it closes the hole again.
    return window.released.erase(seq) > 0;
  }
  return window.sparse.insert(seq).second;
}

void SequenceTracker::Release(uint64_t epoch, uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = windows_.find(epoch);
  if (it == windows_.end()) return;
  Window& window = it->second;
  if (seq <= window.floor) {
    // An Export folded this claim into the floor while its absorb was
    // still in flight. The floor cannot move back (seqs between are
    // genuinely absorbed), so record the hole: the client's retry is
    // accepted through Claim, and the next Export re-opens the window
    // below it so a checkpoint never persists the frame as absorbed.
    window.released.insert(seq);
  } else {
    window.sparse.erase(seq);
  }
}

std::vector<WalSeqEntry> SequenceTracker::Export() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WalSeqEntry> entries;
  entries.reserve(windows_.size());
  for (auto& [epoch, window] : windows_) {
    // Un-fold any holes a Release punched below the floor since the last
    // Export: drop the floor to just under the lowest hole and lift the
    // still-absorbed seqs above it back into the sparse set. The
    // exported window then claims exactly the frames that were actually
    // absorbed, holes excluded. (Releases land at most a batch below the
    // floor, so this loop is short.)
    if (!window.released.empty()) {
      const uint64_t new_floor = *window.released.begin() - 1;
      for (uint64_t seq = new_floor + 1; seq <= window.floor; ++seq) {
        if (!window.released.contains(seq)) window.sparse.insert(seq);
      }
      window.floor = new_floor;
      window.released.clear();
    }
    // Compress: fold the contiguous run above the floor into the floor.
    // Claim/Release never raise the floor, and a release below it is
    // re-opened above, so a parallel absorb slot releasing a failed
    // claim cannot be lost to this advance.
    while (!window.sparse.empty() &&
           *window.sparse.begin() == window.floor + 1) {
      ++window.floor;
      window.sparse.erase(window.sparse.begin());
    }
    if (window.floor == 0 && window.sparse.empty()) continue;
    WalSeqEntry entry;
    entry.epoch = epoch;
    entry.floor = window.floor;
    entry.sparse.assign(window.sparse.begin(), window.sparse.end());
    entries.push_back(std::move(entry));
  }
  return entries;
}

void SequenceTracker::Restore(const std::vector<WalSeqEntry>& entries) {
  std::lock_guard<std::mutex> lock(mu_);
  windows_.clear();
  for (const WalSeqEntry& entry : entries) {
    Window& window = windows_[entry.epoch];
    window.floor = entry.floor;
    window.sparse.insert(entry.sparse.begin(), entry.sparse.end());
  }
}

Result<CollectorSession> CollectorSession::Make(const wire::MethodSpec& spec) {
  NUMDIST_ASSIGN_OR_RETURN(ProtocolPtr protocol,
                           wire::MakeProtocolForSpec(spec));
  return CollectorSession(spec, std::move(protocol),
                          std::make_shared<TenantLedger>(),
                          std::make_shared<SequenceTracker>());
}

CollectorSession CollectorSession::MakePeer() const {
  return CollectorSession(spec_, protocol_, ledger_, tracker_);
}

CollectorSession::CollectorSession(wire::MethodSpec spec,
                                   std::shared_ptr<const Protocol> protocol,
                                   std::shared_ptr<TenantLedger> ledger,
                                   std::shared_ptr<SequenceTracker> tracker)
    : spec_(spec),
      protocol_(std::move(protocol)),
      acc_(protocol_->MakeAccumulator()),
      ledger_(std::move(ledger)),
      tracker_(std::move(tracker)) {}

uint64_t CollectorSession::num_reports() const {
  uint64_t total = acc_->num_reports();
  for (const auto& [tenant, acc] : tenants_) total += acc->num_reports();
  return total;
}

Accumulator* CollectorSession::FindTenant(uint32_t tenant) {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.get();
}

const Accumulator* CollectorSession::FindTenant(uint32_t tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.get();
}

Status CollectorSession::HandleFrame(std::span<const uint8_t> frame,
                                     FrameOutcome* outcome) {
  NUMDIST_ASSIGN_OR_RETURN(const wire::FrameInfo info, wire::PeekFrame(frame));
  if (outcome != nullptr) {
    *outcome = FrameOutcome{};
    outcome->has_seq = info.has_seq;
    outcome->seq = info.seq;
  }
  if (info.type == wire::FrameType::kAck) {
    return Status::InvalidArgument(
        "collector: ack frames flow collector -> client, not as input");
  }
  // The exactly-once window: claim the (epoch, seq) before doing any
  // work. A failed claim is a duplicate re-send — succeed without
  // touching anything so the caller re-acks it; a failure after a
  // successful claim releases it so the client's retry is accepted,
  // but ONLY when the absorb left state untouched.
  if (info.has_seq && !tracker_->Claim(info.seq.epoch, info.seq.seq)) {
    if (outcome != nullptr) outcome->duplicate = true;
    return Status::OK();
  }
  bool committed = false;
  const Status absorbed = AbsorbFrame(info, frame, &committed);
  if (!absorbed.ok()) {
    // A pre-commit failure (decode, over-budget, shape mismatch) rolled
    // everything back, so the claim must reopen for the retry. A failure
    // AFTER the accumulator/ledger commit — the WAL append inside
    // LogAccepted — keeps the claim: the frame IS aggregated and charged
    // here, so accepting a retransmit would double-count it. The caller
    // treats a WAL failure as fatal either way (never acks the frame),
    // and a restart replays a log without it, reopening the claim there.
    if (info.has_seq && !committed) {
      tracker_->Release(info.seq.epoch, info.seq.seq);
    }
    return absorbed;
  }
  if (outcome != nullptr) outcome->absorbed = true;
  return Status::OK();
}

Status CollectorSession::AbsorbFrame(const wire::FrameInfo& info,
                                     std::span<const uint8_t> frame,
                                     bool* committed) {
  *committed = false;
  // Reservation-then-absorb, into a staged accumulator for a first-seen
  // tenant: any failure (over budget, shape mismatch) before the commit
  // point must leave every accumulator, the tenant map, AND the ledger
  // exactly as they were. `committed` flips the moment they are mutated
  // for good, so HandleFrame can tell a rolled-back failure from a WAL
  // failure on an already-aggregated frame.
  const auto absorb = [&](uint64_t reports, auto&& apply) -> Status {
    Accumulator* target = nullptr;
    std::unique_ptr<Accumulator> staged;
    if (info.tenant == wire::kDefaultTenant) {
      target = acc_.get();
    } else if (Accumulator* existing = FindTenant(info.tenant)) {
      target = existing;
    } else {
      staged = protocol_->MakeAccumulator();
      target = staged.get();
    }
    NUMDIST_RETURN_NOT_OK(ledger_->Charge(info.tenant, reports, spec_.epsilon));
    const Status applied = apply(target);
    if (!applied.ok()) {
      ledger_->Refund(info.tenant, reports);
      return applied;
    }
    if (staged != nullptr) tenants_[info.tenant] = std::move(staged);
    *committed = true;
    return LogAccepted(frame);
  };
  switch (info.type) {
    case wire::FrameType::kReports: {
      NUMDIST_ASSIGN_OR_RETURN(
          std::unique_ptr<ReportChunk> chunk,
          wire::DecodeReportFrame(spec_, *protocol_, frame));
      return absorb(chunk->num_reports(), [&](Accumulator* acc) {
        return acc->Absorb(*chunk);
      });
    }
    case wire::FrameType::kSketch: {
      NUMDIST_ASSIGN_OR_RETURN(
          std::unique_ptr<Accumulator> other,
          wire::DecodeSketchFrame(spec_, *protocol_, frame));
      return absorb(other->num_reports(), [&](Accumulator* acc) {
        return acc->Merge(*other);
      });
    }
    case wire::FrameType::kSnapshot:
      return Status::InvalidArgument(
          "collector: snapshot frames belong to the scenario checkpoint "
          "path, not a protocol collector");
    case wire::FrameType::kAck:
      // HandleFrame rejects acks before claiming; unreachable here.
      return Status::InvalidArgument(
          "collector: ack frames flow collector -> client, not as input");
  }
  return Status::InvalidArgument("collector: unknown frame type");
}

Status CollectorSession::HandleFrame(std::string_view frame,
                                     FrameOutcome* outcome) {
  return HandleFrame(wire::FrameBytes(frame), outcome);
}

Result<std::unique_ptr<Accumulator>> CollectorSession::MergedTotal() const {
  std::unique_ptr<Accumulator> total = protocol_->MakeAccumulator();
  NUMDIST_RETURN_NOT_OK(total->Merge(*acc_));
  for (const auto& [tenant, acc] : tenants_) {
    NUMDIST_RETURN_NOT_OK(total->Merge(*acc));
  }
  return total;
}

Result<std::string> CollectorSession::EncodeSketch() const {
  std::string frame;
  if (tenants_.empty()) {
    // The pre-tenant fast path: byte-identical to encoding acc_ directly.
    NUMDIST_RETURN_NOT_OK(wire::EncodeSketchFrame(spec_, *acc_, &frame));
    return frame;
  }
  NUMDIST_ASSIGN_OR_RETURN(const std::unique_ptr<Accumulator> total,
                           MergedTotal());
  NUMDIST_RETURN_NOT_OK(wire::EncodeSketchFrame(spec_, *total, &frame));
  return frame;
}

Result<std::vector<std::string>> CollectorSession::EncodeSketches() const {
  std::vector<std::string> frames;
  for (const auto& [tenant, acc] : tenants_) {
    if (acc->num_reports() == 0) continue;
    std::string frame;
    NUMDIST_RETURN_NOT_OK(wire::EncodeSketchFrame(spec_, tenant, *acc,
                                                  &frame));
    frames.push_back(std::move(frame));
  }
  // The default tenant's untagged frame leads. An entirely empty session
  // still exports its (empty) default sketch, preserving the pre-tenant
  // "a collector always emits exactly one sketch" contract downstream.
  if (acc_->num_reports() > 0 || frames.empty()) {
    std::string frame;
    NUMDIST_RETURN_NOT_OK(wire::EncodeSketchFrame(spec_, *acc_, &frame));
    frames.insert(frames.begin(), std::move(frame));
  }
  return frames;
}

AccumulatorState CollectorSession::ExportState() const {
  if (tenants_.empty()) return acc_->ExportState();
  Result<std::unique_ptr<Accumulator>> total = MergedTotal();
  // Same-session accumulators share one protocol family, so the merge
  // cannot shape-mismatch; the fallback only guards a logic error.
  if (!total.ok()) return acc_->ExportState();
  return total.value()->ExportState();
}

Result<AccumulatorState> CollectorSession::ExportTenantState(
    uint32_t tenant) const {
  if (tenant == wire::kDefaultTenant) return acc_->ExportState();
  const Accumulator* acc = FindTenant(tenant);
  if (acc == nullptr) {
    return Status::InvalidArgument("collector: unknown tenant " +
                                   std::to_string(tenant));
  }
  return acc->ExportState();
}

std::vector<uint32_t> CollectorSession::TenantIds() const {
  std::vector<uint32_t> ids;
  ids.reserve(tenants_.size());
  for (const auto& [tenant, acc] : tenants_) ids.push_back(tenant);
  return ids;
}

void CollectorSession::SetTenantBudget(uint32_t tenant, TenantBudget budget) {
  ledger_->SetBudget(tenant, budget);
}

Status CollectorSession::AbsorbSession(const CollectorSession& other) {
  NUMDIST_RETURN_NOT_OK(acc_->Merge(*other.acc_));
  for (const auto& [tenant, acc] : other.tenants_) {
    Accumulator* mine = FindTenant(tenant);
    if (mine == nullptr) {
      std::unique_ptr<Accumulator> fresh = protocol_->MakeAccumulator();
      NUMDIST_RETURN_NOT_OK(fresh->Merge(*acc));
      tenants_[tenant] = std::move(fresh);
    } else {
      NUMDIST_RETURN_NOT_OK(mine->Merge(*acc));
    }
  }
  return Status::OK();
}

Status CollectorSession::ResetToSketches(
    const std::vector<std::string>& sketches) {
  // Stage the full restored state first: a malformed checkpoint must not
  // leave the session half-reset.
  std::unique_ptr<Accumulator> def = protocol_->MakeAccumulator();
  std::map<uint32_t, std::unique_ptr<Accumulator>> tenants;
  for (const std::string& frame : sketches) {
    NUMDIST_ASSIGN_OR_RETURN(const wire::FrameInfo info,
                             wire::PeekFrame(frame));
    if (info.type != wire::FrameType::kSketch) {
      return Status::InvalidArgument(
          "collector: checkpoint holds a non-sketch frame");
    }
    NUMDIST_ASSIGN_OR_RETURN(
        std::unique_ptr<Accumulator> acc,
        wire::DecodeSketchFrame(spec_, *protocol_, wire::FrameBytes(frame)));
    if (info.tenant == wire::kDefaultTenant) {
      NUMDIST_RETURN_NOT_OK(def->Merge(*acc));
    } else if (Accumulator* existing = [&]() -> Accumulator* {
                 const auto it = tenants.find(info.tenant);
                 return it == tenants.end() ? nullptr : it->second.get();
               }()) {
      NUMDIST_RETURN_NOT_OK(existing->Merge(*acc));
    } else {
      tenants[info.tenant] = std::move(acc);
    }
  }
  acc_ = std::move(def);
  tenants_ = std::move(tenants);
  // Re-seat the ledger on the restored state so budgets keep counting
  // from exactly the reports the aggregate actually holds.
  ledger_->ResetSpend();
  ledger_->SetSpent(wire::kDefaultTenant, acc_->num_reports());
  for (const auto& [tenant, acc] : tenants_) {
    ledger_->SetSpent(tenant, acc->num_reports());
  }
  return Status::OK();
}

Status CollectorSession::LogAccepted(std::span<const uint8_t> frame) {
  if (wal_ == nullptr) return Status::OK();
  NUMDIST_RETURN_NOT_OK(wal_->AppendFrame(std::string_view(
      reinterpret_cast<const char*>(frame.data()), frame.size())));
  ++wal_frames_since_checkpoint_;
  const uint64_t every = wal_->options().checkpoint_every_frames;
  if (every > 0 && wal_frames_since_checkpoint_ >= every) {
    return CompactWal();
  }
  return Status::OK();
}

Result<WalReplayStats> CollectorSession::RecoverAndAttachWal(
    const std::string& path, const WalOptions& options) {
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("collector: a WAL is already attached");
  }
  WalConsumer consumer;
  consumer.on_frame = [this](std::string_view frame) {
    return HandleFrame(frame);
  };
  consumer.on_checkpoint = [this](const std::vector<std::string>& sketches) {
    return ResetToSketches(sketches);
  };
  consumer.on_seq_checkpoint =
      [this](const std::vector<WalSeqEntry>& entries) {
        tracker_->Restore(entries);
        return Status::OK();
      };
  NUMDIST_ASSIGN_OR_RETURN(WalLog log, WalLog::Open(path, options, consumer));
  wal_ = std::make_unique<WalLog>(std::move(log));
  wal_frames_since_checkpoint_ = 0;
  return wal_->recovery();
}

Status CollectorSession::CompactWal() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("collector: no WAL attached");
  }
  NUMDIST_ASSIGN_OR_RETURN(const std::vector<std::string> sketches,
                           EncodeSketches());
  NUMDIST_RETURN_NOT_OK(wal_->Compact(sketches, tracker_->Export()));
  wal_frames_since_checkpoint_ = 0;
  return Status::OK();
}

Result<MethodOutput> CollectorSession::Reconstruct() const {
  if (tenants_.empty()) return protocol_->Reconstruct(*acc_);
  NUMDIST_ASSIGN_OR_RETURN(const std::unique_ptr<Accumulator> total,
                           MergedTotal());
  return protocol_->Reconstruct(*total);
}

namespace {

Status WriteSketches(std::ostream& out, CollectorSession* session) {
  NUMDIST_ASSIGN_OR_RETURN(const std::vector<std::string> sketches,
                           session->EncodeSketches());
  for (const std::string& sketch : sketches) {
    NUMDIST_RETURN_NOT_OK(WriteFrame(out, sketch));
  }
  out.flush();
  return Status::OK();
}

}  // namespace

Status ServeStream(std::istream& in, std::ostream& out,
                   CollectorSession* session) {
  std::string frame;
  bool eof = false;
  while (true) {
    NUMDIST_RETURN_NOT_OK(ReadFrame(in, &frame, &eof));
    if (eof) break;
    NUMDIST_RETURN_NOT_OK(session->HandleFrame(frame));
  }
  return WriteSketches(out, session);
}

Status ServeFd(int in_fd, std::ostream& out, CollectorSession* session,
               const ServeFdOptions& options) {
  FrameDecoder decoder(options.max_bytes);
  std::string frame;
  char buf[64 * 1024];
  for (;;) {
    // The deadline is armed only mid-frame: a quiet-but-idle client keeps
    // the connection, a client that died mid-frame surfaces in bounded
    // time as the typed mid-stream error.
    const int timeout =
        (options.read_timeout_ms > 0 && decoder.mid_frame())
            ? options.read_timeout_ms
            : -1;
    struct pollfd pfd = {in_fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("collector: poll failed (errno " +
                              std::to_string(errno) + ")");
    }
    if (ready == 0) {
      // Stalled mid-frame past the deadline: same taxonomy as an EOF at
      // this position, with the stall called out.
      return Status::OutOfRange(
          "framing: read timed out inside a frame after " +
          std::to_string(options.read_timeout_ms) + " ms (" +
          decoder.AtEnd().message() + ")");
    }
    const ssize_t got = read(in_fd, buf, sizeof(buf));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("collector: read failed (errno " +
                              std::to_string(errno) + ")");
    }
    if (got == 0) {
      NUMDIST_RETURN_NOT_OK(decoder.AtEnd());  // clean boundary or typed error
      break;
    }
    NUMDIST_RETURN_NOT_OK(
        decoder.Feed(std::string_view(buf, static_cast<size_t>(got))));
    while (decoder.Next(&frame)) {
      FrameOutcome outcome;
      NUMDIST_RETURN_NOT_OK(session->HandleFrame(frame, &outcome));
      if (outcome.has_seq) {
        // Ack AFTER absorb + WAL append: an ack the client sees always
        // refers to a frame that survives this collector's crash.
        std::string ack;
        NUMDIST_RETURN_NOT_OK(wire::EncodeAckFrame(outcome.seq, &ack));
        NUMDIST_RETURN_NOT_OK(WriteFrame(out, ack));
        out.flush();
      }
    }
  }
  return WriteSketches(out, session);
}

}  // namespace numdist::serve
