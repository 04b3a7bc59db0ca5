// The cross-process collector: one CollectorSession per OS process, each
// absorbing a stream of wire frames into Protocol accumulators.
//
// Deployment shape (mirroring the paper's aggregator, scaled out):
//
//   client fleet ──report frames──▶ collector 1 ─┐
//   client fleet ──report frames──▶ collector 2 ─┤─sketch frames─▶ coordinator
//   client fleet ──report frames──▶ collector N ─┘                 (merge +
//                                                                 reconstruct)
//
// Every collector and the coordinator are configured with the same
// MethodSpec; frames carrying any other spec are rejected before their
// payload is touched. Because accumulator state is exact integers and
// merging is associative, the coordinator's estimate is bit-identical to a
// single-process sharded run over the same report chunks — the invariant
// tests/wire_process_test.cc asserts across real child processes. Since
// sketch-frame absorption is the same path, coordinators compose into a
// merge TREE: any shape (flat, binary, lopsided) over the same shard set
// produces a byte-identical root sketch (tests/merge_tree_test.cc).
//
// Multi-tenancy: frames carrying a tenant context (wire::kFlagTenantContext)
// are routed to per-tenant accumulators inside the same session, with
// per-tenant report/epsilon budgets enforced by a TenantLedger shared
// across every session of one process (so the event-loop server's parallel
// absorb slots enforce one global budget). An over-budget frame is a typed
// FailedPrecondition rejection that leaves every accumulator untouched.
//
// Durability: a session holds no log. net::CollectorServer, the one ingest
// engine, appends every accepted frame to its write-ahead log
// (serve/wal.h) and rebuilds a session from it through ReplayConsumer, so
// a collector killed at any byte offset restarts with the exact pre-crash
// state.
//
// tools/collector_cli serves stdin and network listeners alike through
// net::CollectorServer; tools/report_client generates deterministic client
// load against it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/wal.h"
#include "wire/wire.h"

namespace numdist::serve {

/// Per-tenant admission caps. Zero means unlimited on that axis.
struct TenantBudget {
  /// Most reports this tenant may contribute (report frames + merged
  /// sketch frames both count).
  uint64_t max_reports = 0;
  /// Privacy-odometer cap: the tenant's cumulative epsilon spend —
  /// reports × the session epsilon (every frame of one session carries
  /// the same spec, so per-report spend is constant) — may not exceed
  /// this.
  double max_epsilon = 0.0;
};

/// \brief Thread-safe per-tenant budget accounting, shared across every
/// CollectorSession of one collector process.
///
/// The event-loop server absorbs frames in parallel into per-slot
/// sessions; sharing one ledger is what makes the budget a single
/// global cap instead of one cap per slot. Charges are reservations: a
/// frame is charged before it is absorbed and refunded if absorption
/// fails, so the spend always equals the reports actually aggregated.
class TenantLedger {
 public:
  void SetBudget(uint32_t tenant, TenantBudget budget);

  /// Reserves `num_reports` for `tenant` at `epsilon` per report. Typed
  /// FailedPrecondition when either cap would be exceeded; the spend is
  /// unchanged on rejection.
  Status Charge(uint32_t tenant, uint64_t num_reports, double epsilon);
  /// Releases a reservation whose absorb failed.
  void Refund(uint32_t tenant, uint64_t num_reports);

  uint64_t spent_reports(uint32_t tenant) const;
  /// Zeroes every tenant's spend, keeping budgets (checkpoint restore).
  void ResetSpend();
  /// Overwrites one tenant's spend (checkpoint restore).
  void SetSpent(uint32_t tenant, uint64_t num_reports);

 private:
  struct Entry {
    TenantBudget budget;
    uint64_t spent = 0;
  };
  mutable std::mutex mu_;
  std::map<uint32_t, Entry> entries_;
};

/// \brief Thread-safe exactly-once window over (epoch, seq) frame ids,
/// shared across every CollectorSession of one collector process (like
/// the TenantLedger, so the event-loop server's parallel absorb slots
/// dedup against one global window).
///
/// Claims are two-phase: Claim marks a seq pending, and the absorb's
/// outcome then either commits it or drops it again (Release). Per epoch
/// the window is a floor (every seq <= floor committed) plus the claims
/// above it. A commit advances the floor through the run of contiguous
/// committed seqs, so an in-order client holds no per-seq entries once
/// its claims commit; only pending claims and commits above a gap stay
/// held. Export snapshots committed seqs alone, so a checkpoint never
/// carries a frame whose absorb has not succeeded.
class SequenceTracker {
 public:
  /// Claims (epoch, seq) as pending: true when first seen (the caller
  /// absorbs the frame, then commits or releases the claim), false when
  /// already pending or committed (the frame is a duplicate re-send —
  /// skip it, but ack it again).
  bool Claim(uint64_t epoch, uint64_t seq);
  /// Commits a pending claim whose absorb succeeded.
  void Commit(uint64_t epoch, uint64_t seq);
  /// Drops a pending claim whose absorb failed, so the client's re-send
  /// is accepted.
  void Release(uint64_t epoch, uint64_t seq);
  /// Snapshot of the committed window (floor plus committed seqs above
  /// it, per epoch) for WAL checkpointing; pending claims are left out.
  /// Empty when nothing was ever committed.
  std::vector<WalSeqEntry> Export() const;
  /// RESETS the window to a checkpointed snapshot (every seq committed).
  void Restore(const std::vector<WalSeqEntry>& entries);
  /// Per-seq entries held across every epoch: pending claims plus
  /// commits above a gap. Zero for in-order clients whose claims have all
  /// committed.
  size_t held_seqs() const;

 private:
  struct Window {
    uint64_t floor = 0;
    /// Every claim above the floor: seq -> committed (false = pending).
    std::map<uint64_t, bool> above;
  };
  /// Folds the run of committed seqs just above the floor into it.
  static void AdvanceFloor(Window& window);

  mutable std::mutex mu_;
  std::map<uint64_t, Window> windows_;
};

/// What HandleFrame did with one frame, for callers that acknowledge
/// sequenced frames (the event-loop server).
struct FrameOutcome {
  /// The frame mutated the aggregate (decoded, charged, absorbed).
  bool absorbed = false;
  /// An already-claimed (epoch, seq): nothing was absorbed, but the frame
  /// must be acked again — the client's ack was lost, not the frame.
  bool duplicate = false;
  /// The frame carried a sequence context (duplicates and absorbed
  /// sequenced frames both get an ack for `seq`).
  bool has_seq = false;
  wire::FrameSeq seq;
};

/// \brief One collector (or coordinator) process's aggregation state.
class CollectorSession {
 public:
  /// Builds the protocol the spec describes and an empty accumulator.
  static Result<CollectorSession> Make(const wire::MethodSpec& spec);

  /// An empty peer: same spec, and the same immutable Protocol, TenantLedger
  /// and dedup window as this session, with its own accumulators. The
  /// event-loop server builds one Protocol per process this way — its
  /// per-slot sessions are all peers of the main session, so budgets and
  /// exactly-once claims stay process-global.
  CollectorSession MakePeer() const;

  const wire::MethodSpec& spec() const { return spec_; }
  /// Reports absorbed so far (report frames + merged sketch frames),
  /// across the default and every tenant accumulator.
  uint64_t num_reports() const;

  /// Folds one wire frame in: report frames are decoded and absorbed,
  /// sketch frames are decoded and merged — each into the accumulator of
  /// the frame's tenant context (the default accumulator when untagged).
  /// Snapshot, ack, malformed, and over-budget frames are typed errors; a
  /// failed frame leaves every accumulator, the ledger, and the dedup
  /// window untouched. A sequenced frame whose (epoch, seq) was already
  /// claimed is a DUPLICATE: skipped without error (see FrameOutcome).
  /// `outcome` (optional) reports what happened, for ack emission.
  Status HandleFrame(std::span<const uint8_t> frame,
                     FrameOutcome* outcome = nullptr);
  Status HandleFrame(std::string_view frame, FrameOutcome* outcome = nullptr);

  /// This session's TOTAL aggregate (default + all tenants merged) as one
  /// untagged wire sketch frame (what a collector ships to a coordinator
  /// when per-tenant separation is not needed downstream).
  Result<std::string> EncodeSketch() const;

  /// The session's full state as one sketch frame per non-empty
  /// accumulator: the default tenant's untagged frame first, then one
  /// tenant-tagged frame per tenant in ascending id order. This is the
  /// lossless export — shipping these upstream preserves per-tenant
  /// routing, and it is the WAL's checkpoint currency.
  Result<std::vector<std::string>> EncodeSketches() const;

  /// Exact-integer snapshot of the aggregate (protocol.h). With tenants
  /// in play this is the MERGED total state; ExportTenantState reads one
  /// tenant. Read-only: live estimation reads it without touching the
  /// aggregate, so periodic estimates can never perturb the final sketch.
  AccumulatorState ExportState() const;
  /// One tenant's exact state (wire::kDefaultTenant = the default
  /// accumulator). Unknown tenants are InvalidArgument.
  Result<AccumulatorState> ExportTenantState(uint32_t tenant) const;
  /// Tenants with an accumulator, ascending (excludes the default).
  std::vector<uint32_t> TenantIds() const;

  /// Budget accounting. The ledger is shared with every peer (MakePeer),
  /// so budgets cap the process-global spend.
  void SetTenantBudget(uint32_t tenant, TenantBudget budget);
  const std::shared_ptr<TenantLedger>& ledger() const { return ledger_; }

  /// The exactly-once dedup window. Shared with every peer like the
  /// ledger, so a re-sent frame dedups no matter which slot absorbs it.
  const std::shared_ptr<SequenceTracker>& sequence_tracker() const {
    return tracker_;
  }

  /// Merges every accumulator of `other` (default + tenants, per tenant)
  /// into this session WITHOUT charging the ledger — the frames behind
  /// `other`'s state were charged when first absorbed. This is how the
  /// server folds each per-slot session into the main session every
  /// reactor round without double-spending budgets or collapsing tenants.
  Status AbsorbSession(const CollectorSession& other);

  /// Replaces the session's state with the given sketch frames (one per
  /// tenant, as produced by EncodeSketches) — the WAL checkpoint restore:
  /// RESET semantics, not merge. On failure the session is unchanged.
  Status ResetToSketches(const std::vector<std::string>& sketches);

  /// Replay callbacks that rebuild this session from a WAL (WalLog::Open,
  /// ReplayWal): frames through HandleFrame, checkpoints through
  /// ResetToSketches, seq checkpoints into the dedup window. The consumer
  /// points at this session, which must stay put while it is used.
  WalConsumer ReplayConsumer();

  /// Inverts the TOTAL aggregate (default + tenants) into the method
  /// output. Requires num_reports() > 0.
  Result<MethodOutput> Reconstruct() const;

 private:
  CollectorSession(wire::MethodSpec spec,
                   std::shared_ptr<const Protocol> protocol,
                   std::shared_ptr<TenantLedger> ledger,
                   std::shared_ptr<SequenceTracker> tracker);

  /// The tenant's accumulator, or null when the tenant has none yet.
  Accumulator* FindTenant(uint32_t tenant);
  const Accumulator* FindTenant(uint32_t tenant) const;
  /// The total aggregate as one freshly merged accumulator.
  Result<std::unique_ptr<Accumulator>> MergedTotal() const;
  /// The decode-charge-absorb core of HandleFrame (dedup handled by the
  /// caller); any failure leaves the session and the ledger untouched.
  Status AbsorbFrame(const wire::FrameInfo& info,
                     std::span<const uint8_t> frame);

  wire::MethodSpec spec_;
  /// Immutable, so peers share it across threads.
  std::shared_ptr<const Protocol> protocol_;
  /// The default tenant's accumulator (untagged frames).
  std::unique_ptr<Accumulator> acc_;
  /// Lazily created per-tenant accumulators (tenant-tagged frames).
  std::map<uint32_t, std::unique_ptr<Accumulator>> tenants_;
  std::shared_ptr<TenantLedger> ledger_;
  std::shared_ptr<SequenceTracker> tracker_;
};

}  // namespace numdist::serve
