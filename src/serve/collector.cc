#include "serve/collector.h"

#include <algorithm>
#include <utility>

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

void SequenceTracker::AdvanceFloor(Window& window) {
  while (!window.above.empty() &&
         window.above.begin()->first == window.floor + 1 &&
         window.above.begin()->second) {
    ++window.floor;
    window.above.erase(window.above.begin());
  }
}

bool SequenceTracker::Claim(uint64_t epoch, uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  Window& window = windows_[epoch];
  if (seq <= window.floor) return false;
  return window.above.emplace(seq, false).second;
}

void SequenceTracker::Commit(uint64_t epoch, uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = windows_.find(epoch);
  if (it == windows_.end()) return;
  Window& window = it->second;
  const auto claim = window.above.find(seq);
  if (claim == window.above.end()) return;
  claim->second = true;
  AdvanceFloor(window);
}

void SequenceTracker::Release(uint64_t epoch, uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = windows_.find(epoch);
  if (it == windows_.end()) return;
  const auto claim = it->second.above.find(seq);
  if (claim != it->second.above.end() && !claim->second) {
    it->second.above.erase(claim);
  }
}

std::vector<WalSeqEntry> SequenceTracker::Export() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WalSeqEntry> entries;
  entries.reserve(windows_.size());
  for (const auto& [epoch, window] : windows_) {
    WalSeqEntry entry;
    entry.epoch = epoch;
    entry.floor = window.floor;
    for (const auto& [seq, committed] : window.above) {
      if (committed) entry.sparse.push_back(seq);
    }
    if (entry.floor == 0 && entry.sparse.empty()) continue;
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
    for (const uint64_t seq : entry.sparse) {
      if (seq > window.floor) window.above.emplace(seq, true);
    }
    AdvanceFloor(window);
  }
}

size_t SequenceTracker::held_seqs() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t held = 0;
  for (const auto& [epoch, window] : windows_) held += window.above.size();
  return held;
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
  // touching anything so the caller re-acks it. The absorb's outcome then
  // settles the claim: committed on success; dropped on failure, which
  // left everything untouched, so the client's retry is accepted.
  if (info.has_seq && !tracker_->Claim(info.seq.epoch, info.seq.seq)) {
    if (outcome != nullptr) outcome->duplicate = true;
    return Status::OK();
  }
  const Status absorbed = AbsorbFrame(info, frame);
  if (info.has_seq) {
    if (absorbed.ok()) {
      tracker_->Commit(info.seq.epoch, info.seq.seq);
    } else {
      tracker_->Release(info.seq.epoch, info.seq.seq);
    }
  }
  if (!absorbed.ok()) return absorbed;
  if (outcome != nullptr) outcome->absorbed = true;
  return Status::OK();
}

Status CollectorSession::AbsorbFrame(const wire::FrameInfo& info,
                                     std::span<const uint8_t> frame) {
  // Reservation-then-absorb, into a staged accumulator for a first-seen
  // tenant: any failure (over budget, shape mismatch) must leave every
  // accumulator, the tenant map, AND the ledger exactly as they were.
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
    return Status::OK();
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

WalConsumer CollectorSession::ReplayConsumer() {
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
  return consumer;
}

Result<MethodOutput> CollectorSession::Reconstruct() const {
  if (tenants_.empty()) return protocol_->Reconstruct(*acc_);
  NUMDIST_ASSIGN_OR_RETURN(const std::unique_ptr<Accumulator> total,
                           MergedTotal());
  return protocol_->Reconstruct(*total);
}

}  // namespace numdist::serve
