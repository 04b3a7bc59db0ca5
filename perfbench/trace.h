// The collector benchmark's single output path: an in-memory recorder of
// spans and named sample series, plus the arithmetic every reported
// figure is built from (nearest-rank percentiles with the tail rule, span
// self time, open-loop due times). Workloads record into one Recorder;
// the end-to-end and per-layer tables are both computed from it, and it
// is written out once when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer would make it the reading of one or two outliers.
inline constexpr size_t kTailSamples = 10;

/// Nearest-rank q-percentile (q in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-percentile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// The highest of p50, p90, p99 and p99.9 that is at most `max_q` and has
/// at least kTailSamples samples beyond it; p50 when none qualifies.
double TailQuantile(size_t n, double max_q);

double Median(std::vector<double> samples);

/// One timed interval. `parent` is the id of the enclosing span (0 = none);
/// spans of one frame share `frame`.
struct Span {
  uint32_t name = 0;
  uint32_t parent = 0;
  uint64_t frame = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span (span id i+1 at index i): its duration minus
/// the part of it covered by the union of its children's intervals.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Open-loop generator schedule: frame k (0-based) is due at
/// start + k / rate_hz, whenever the previous frames actually went out.
struct OpenLoopSchedule {
  Clock::time_point start;
  double rate_hz = 1.0;

  Clock::time_point Due(uint64_t k) const;
  /// How far behind schedule frame k went out at `sent`, in ms.
  double LateMs(uint64_t k, Clock::time_point sent) const;
  /// Lag of an estimate observed at `at` that covers the first `frames`
  /// frames: `at` minus the due time of the last of them, in ms.
  double TickLagMs(uint64_t frames, Clock::time_point at) const;
};

/// \brief Thread-safe in-memory span and sample recorder.
///
/// Samples are always kept. Spans are kept only when tracing is on, so
/// the untraced run pays nothing but the sample appends.
class Recorder {
 public:
  explicit Recorder(bool tracing) : tracing_(tracing) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }
  /// Switches span keeping on or off (the traced run measures an untraced
  /// half first, for the tracing overhead).
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }

  /// Opens a span and returns its id (0, and nothing kept, when tracing
  /// is off).
  uint32_t Begin(std::string_view name, uint32_t parent = 0,
                 uint64_t frame = 0);
  void End(uint32_t id);
  /// Keeps an already finished span (e.g. a frame's send-to-ack interval,
  /// known only when the ack arrives). Returns its id, 0 when not tracing.
  uint32_t Record(std::string_view name, uint32_t parent, uint64_t frame,
                  Clock::time_point start, Clock::time_point end);

  /// Appends one value to the named series.
  void Add(std::string_view series, double value);
  void AddAll(std::string_view series, const std::vector<double>& values);
  /// The named series (empty when nothing was recorded).
  std::vector<double> Series(std::string_view series) const;

  std::vector<Span> spans() const;
  /// Name of span name id `name`.
  std::string SpanName(uint32_t name) const;

  /// Writes `header`, then one JSON array per span (columns named by the
  /// line before them, self time included), then one JSON object per
  /// series. False when the file cannot be written.
  bool WriteJsonl(const std::string& path, const std::string& header) const;

 private:
  int64_t NsSinceEpoch(Clock::time_point t) const;
  uint32_t NameId(std::string_view name);  // requires mu_

  std::atomic<bool> tracing_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> name_ids_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>, std::less<>> series_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, std::string_view name, uint32_t parent = 0,
             uint64_t frame = 0)
      : rec_(rec), id_(rec->Begin(name, parent, frame)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Recorder* rec_;
  uint32_t id_;
};

/// Shortest round-trip decimal form of `value` (all its digits, no more).
std::string FormatNumber(double value);

}  // namespace perfbench
