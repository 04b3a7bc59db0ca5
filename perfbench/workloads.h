// The collector benchmark's workloads: what each one sends, how its rounds
// run against an in-process net::CollectorServer, and the stage-by-stage
// replay the traced run times each layer with.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "trace.h"
#include "wire/wire.h"

namespace perfbench {

inline constexpr size_t kReportsPerFrame = 500;
/// Frames in the pre-encoded pool every round cycles through (1M reports).
inline constexpr size_t kPoolFrames = 2000;
/// Connections of the closed-loop generators (one per core of the 4-core
/// machine the benchmark was sized on).
inline constexpr size_t kConnections = 4;
/// Live-estimation cadence and per-tick EM budget of estimate_live (the
/// replay's eval.tick_* figures use the same).
inline constexpr uint64_t kEstimateEveryFrames = 50;
inline constexpr size_t kEstimateMaxIterations = 50;

enum class Kind { kIngestRaw, kDurableAcked, kEstimateLive };

/// Fixed shape of one workload. Every workload is sw-ems at epsilon = 1
/// over values from the Taxi stand-in (GenerateDataset(kTaxi)).
struct WorkloadConfig {
  const char* name;
  Kind kind;
  uint32_t d;
  /// Passes over the pool per round: each round is a fixed amount of work.
  uint64_t passes_per_round;
  /// Highest percentile reported for latency_tail_ms.
  double tail_q;
  /// What latency_p50_ms / latency_tail_ms time on this workload.
  const char* latency_what;
};

/// Starts the shared executor's workers on the collectors' cores, away
/// from the core RunRound pins the generator to (threads inherit their
/// creator's CPU mask). Call once, before the first round.
void StartExecutor();

/// The workload named `name`, or null.
const WorkloadConfig* FindWorkload(std::string_view name);

/// The frames a run cycles through, encoded before any timing starts.
struct Pool {
  numdist::wire::MethodSpec spec;
  std::vector<double> values;
  /// Unsequenced report frames of kReportsPerFrame reports each.
  std::vector<std::string> frames;
  /// Reports in one pass over `frames`.
  uint64_t reports = 0;
  /// One pass folded through a single CollectorSession::HandleFrame: the
  /// reference every drained sketch is checked against.
  std::string pass_sketch;
  /// Ground-truth histogram of `values` at the workload's d.
  std::vector<double> truth;
};

numdist::Result<Pool> MakePool(const WorkloadConfig& cfg, uint64_t seed);

/// Operations attempted and failed. An operation is a frame sent, acked or
/// absorbed, or one correctness check; `errors` says why any failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  /// `expected` operations of which `done` succeeded.
  void Ops(uint64_t expected, uint64_t done, const std::string& what);
  void Check(bool ok, const std::string& what);
  /// A failed check; returns false for the caller to return.
  bool Fail(const std::string& what);
};

struct RunContext {
  const WorkloadConfig& cfg;
  const Pool& pool;
  /// Scratch directory for WAL segments and Unix sockets (relative, so
  /// socket paths stay short wherever the checkout lives).
  std::string work_dir;
  Recorder* rec;
  Tally* tally;
};

/// Runs one round and records its figures under `prefix` ("e2e." for the
/// untraced measurement, "traced." for the traced one). False when the
/// round could not complete; the tally says why.
bool RunRound(const RunContext& ctx, const std::string& prefix,
              uint64_t round);

/// Replays one pass of the workload's frames stage by stage through each
/// layer's public call and records the per-layer series ("replay.*").
void Replay(const RunContext& ctx);

/// `*out` = `frame` stamped with the sequence context (epoch, seq).
numdist::Status StampFrame(const std::string& frame, uint64_t epoch,
                           uint64_t seq, std::string* out);

double SecondsBetween(Clock::time_point a, Clock::time_point b);

}  // namespace perfbench
