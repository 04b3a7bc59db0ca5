#include "trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

/// Nearest-rank index of the q-percentile among n > 0 sorted samples. The
/// small slack keeps q * n from rounding past an exact integer (0.99 * 100
/// is 99.000000000000014 in binary floating point).
size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  if (rank <= 1.0) return 0;
  return std::min(n - 1, static_cast<size_t>(rank) - 1);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t idx = RankIndex(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, q);
}

double TailQuantile(size_t n, double max_q) {
  for (const double q : {0.999, 0.99, 0.9}) {
    if (q <= max_q + 1e-12 && SamplesBeyond(n, q) >= kTailSamples) return q;
  }
  return 0.5;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint32_t parent = spans[i].parent;
    if (parent >= 1 && parent <= spans.size() && parent != i + 1) {
      children[parent - 1].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = std::max(lo, spans[i].end_ns);
    cover.clear();
    for (const size_t c : children[i]) {
      const int64_t a = std::max(lo, spans[c].start_ns);
      const int64_t b = std::min(hi, spans[c].end_ns);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

Clock::time_point OpenLoopSchedule::Due(uint64_t k) const {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(k) /
                                                   rate_hz));
}

double OpenLoopSchedule::LateMs(uint64_t k, Clock::time_point sent) const {
  return std::chrono::duration<double, std::milli>(sent - Due(k)).count();
}

double OpenLoopSchedule::TickLagMs(uint64_t frames,
                                   Clock::time_point at) const {
  return LateMs(frames == 0 ? 0 : frames - 1, at);
}

int64_t Recorder::NsSinceEpoch(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

uint32_t Recorder::NameId(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it == name_ids_.end()) {
    it = name_ids_.emplace(std::string(name),
                           static_cast<uint32_t>(names_.size()))
             .first;
    names_.emplace_back(name);
  }
  return it->second;
}

uint32_t Recorder::Begin(std::string_view name, uint32_t parent,
                         uint64_t frame) {
  if (!tracing()) return 0;
  const int64_t now = NsSinceEpoch(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({NameId(name), parent, frame, now, now});
  return static_cast<uint32_t>(spans_.size());
}

void Recorder::End(uint32_t id) {
  if (id == 0) return;
  const int64_t now = NsSinceEpoch(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

uint32_t Recorder::Record(std::string_view name, uint32_t parent,
                          uint64_t frame, Clock::time_point start,
                          Clock::time_point end) {
  if (!tracing()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      {NameId(name), parent, frame, NsSinceEpoch(start), NsSinceEpoch(end)});
  return static_cast<uint32_t>(spans_.size());
}

void Recorder::Add(std::string_view series, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) it = series_.emplace(std::string(series), std::vector<double>{}).first;
  it->second.push_back(value);
}

void Recorder::AddAll(std::string_view series,
                      const std::vector<double>& values) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) it = series_.emplace(std::string(series), std::vector<double>{}).first;
  it->second.insert(it->second.end(), values.begin(), values.end());
}

std::vector<double> Recorder::Series(std::string_view series) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(series);
  return it == series_.end() ? std::vector<double>{} : it->second;
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Recorder::SpanName(uint32_t name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return name < names_.size() ? names_[name] : std::string();
}

bool Recorder::WriteJsonl(const std::string& path,
                          const std::string& header) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* out = fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  fprintf(out, "%s\n", header.c_str());
  fprintf(out,
          "{\"spans\":[\"id\",\"name\",\"parent\",\"frame\",\"start_ns\","
          "\"end_ns\",\"self_ns\"]}\n");
  const std::vector<int64_t> self = SelfTimes(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    fprintf(out, "[%zu,\"%s\",%u,%llu,%lld,%lld,%lld]\n", i + 1,
            names_[s.name].c_str(), s.parent,
            static_cast<unsigned long long>(s.frame),
            static_cast<long long>(s.start_ns),
            static_cast<long long>(s.end_ns),
            static_cast<long long>(self[i]));
  }
  for (const auto& [name, values] : series_) {
    fprintf(out, "{\"series\":\"%s\",\"values\":[", name.c_str());
    for (size_t i = 0; i < values.size(); ++i) {
      fprintf(out, "%s%s", i == 0 ? "" : ",", FormatNumber(values[i]).c_str());
    }
    fprintf(out, "]}\n");
  }
  return fclose(out) == 0;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
