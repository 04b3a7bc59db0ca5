// Deterministic network fault injection at the socket-write boundary.
//
// A FaultPlan is a seeded script of byte-offset-addressed faults, keyed by
// connection attempt: "on attempt 0, RST the connection after 1 337 bytes;
// on attempt 1, split the write crossing byte 4 096 and delay 5 ms". The
// plan is pure data — building one touches no sockets — so the SAME plan
// can drive in-process tests (tests/fault_test.cc, tests/net_test.cc)
// and a client process (report_client --fault-resets, which the chaos
// tier runs), and every run replays the identical fault sequence.
//
// Faults are injected on the SENDING side, where byte offsets are exact:
// a receiver cannot know which syscall boundaries the sender used, but the
// sender controls them completely. The receiving collector is the system
// under test and runs unmodified.
//
// Fault taxonomy (FaultKind):
//   kDelay       sleep `param` ms when the stream crosses `at_byte`
//   kShortWrite  force a syscall boundary at `at_byte` (the write crossing
//                it is split there), then delay `param` ms so the receiver
//                observes the partial frame
//   kDrop        silently discard `param` bytes starting at `at_byte` —
//                the receiver sees a desynchronized stream (CRC/magic
//                errors are its problem to diagnose)
//   kTruncate    shut down writing at `at_byte`: the receiver sees a clean
//                FIN mid-frame (the torn-tail taxonomy's bread and butter)
//   kReset       hard-close with SO_LINGER{0} at `at_byte`: the receiver
//                sees ECONNRESET, the client's retry path sees a typed
//                injected-fault error
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "net/socket.h"

namespace numdist::net {

enum class FaultKind : uint8_t {
  kDelay = 0,
  kShortWrite = 1,
  kDrop = 2,
  kTruncate = 3,
  kReset = 4,
};

struct FaultEvent {
  FaultKind kind = FaultKind::kDelay;
  /// Cumulative sent-byte offset (per attempt) the fault triggers at.
  uint64_t at_byte = 0;
  /// kDelay/kShortWrite: milliseconds; kDrop: bytes to discard.
  uint64_t param = 0;
};

/// \brief A per-attempt script of injected faults (pure data, reusable).
class FaultPlan {
 public:
  FaultPlan() = default;

  /// `count` connection resets at Rng(seed)-drawn offsets in
  /// [1, max_byte): attempt k < count resets, attempt `count` onward is
  /// clean — the shape the retry-through-resets tests want.
  static FaultPlan Resets(uint64_t seed, uint32_t count, uint64_t max_byte);

  void Add(uint32_t attempt, FaultEvent event);

  /// The faults scripted for one attempt, sorted by at_byte (empty for
  /// attempts with no script — i.e. clean attempts).
  std::vector<FaultEvent> Events(uint32_t attempt) const;

  bool empty() const { return events_.empty(); }

 private:
  std::map<uint32_t, std::vector<FaultEvent>> events_;
};

/// True for the typed errors FaultyWriter returns on a scripted
/// reset/truncate — retry layers treat exactly these as transient.
bool IsInjectedFault(const Status& status);

/// \brief Applies one attempt's FaultEvents to writes on a socket fd.
///
/// Wraps (but does not own) `*fd`; Write() sends clean spans with plain
/// send(2) loops and fires each scripted event as the cumulative offset
/// crosses its at_byte. A kReset/kTruncate event closes or shuts down the
/// fd and returns the typed injected-fault error; the caller reconnects
/// and constructs a fresh FaultyWriter for the next attempt.
class FaultyWriter {
 public:
  /// `plan` may be null (every write is clean). `attempt` selects the
  /// plan's script; offsets restart at 0 for each writer.
  FaultyWriter(Fd* fd, const FaultPlan* plan, uint32_t attempt);

  /// Writes `bytes`, applying any scripted faults the span crosses.
  Status Write(std::string_view bytes);

  /// Bytes offered so far (including dropped bytes — the plan's offsets
  /// address the logical stream, not the wire).
  uint64_t offset() const { return offset_; }
  /// Scripted events fired so far by this writer.
  uint64_t injected() const { return injected_; }

 private:
  Status WriteClean(std::string_view bytes);

  Fd* fd_;
  std::vector<FaultEvent> events_;  // sorted; next_event_ indexes into it
  size_t next_event_ = 0;
  uint64_t offset_ = 0;
  uint64_t injected_ = 0;
  /// Bytes of an in-progress kDrop still to discard (a drop region can
  /// span multiple Write calls).
  uint64_t drop_remaining_ = 0;
};

/// Hard TCP reset: SO_LINGER{on, 0s} then close — the peer gets RST, not
/// FIN, and any unsent data is discarded. The fd is invalid afterwards.
void HardResetAndClose(Fd* fd);

}  // namespace numdist::net
