// Tests of the benchmark's own arithmetic: percentiles and the tail rule,
// span self time, and the open-loop due-time and lag figures.
#include "trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 0.5), 50.0);
  EXPECT_EQ(Percentile(v, 0.9), 90.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);  // 0.99 * 100 must not round to 100
  EXPECT_EQ(Percentile(v, 1.0), 100.0);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = OneTo(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(Percentile(v, 0.999), 999.0);
}

TEST(Median, AveragesTheMiddlePair) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(TailQuantile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
  // 100 samples: p99 has one beyond it, p90 exactly ten.
  EXPECT_EQ(TailQuantile(100, 0.999), 0.9);
  EXPECT_EQ(TailQuantile(99, 0.999), 0.5);  // p90 of 99 has 9 beyond
  EXPECT_EQ(TailQuantile(1000, 0.999), 0.99);
  EXPECT_EQ(TailQuantile(10000, 0.999), 0.999);
  EXPECT_EQ(TailQuantile(10000, 0.99), 0.99);  // capped by the workload
  EXPECT_EQ(TailQuantile(5, 0.99), 0.5);
}

Span At(uint32_t parent, int64_t start, int64_t end) {
  return Span{0, parent, 0, start, end};
}

TEST(SelfTimes, SubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      At(0, 0, 100),   // 1: root
      At(1, 10, 30),   // 2
      At(1, 20, 40),   // 3 overlaps 2: union [10, 40)
      At(1, 60, 70),   // 4
      At(2, 12, 18),   // 5: grandchild, not the root's child
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 30 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTimes, ClipsChildrenToTheParent) {
  // A child on another thread may outlive its parent.
  const std::vector<Span> spans = {At(0, 0, 50), At(1, 40, 90),
                                   At(1, -10, 5)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50 - 10 - 5);
  EXPECT_EQ(self[1], 50);
}

TEST(SelfTimes, NestedChildrenInsideOneAnother) {
  const std::vector<Span> spans = {At(0, 0, 10), At(1, 2, 8), At(1, 3, 5)};
  EXPECT_EQ(SelfTimes(spans)[0], 4);
}

TEST(OpenLoopSchedule, DueTimesAndLag) {
  OpenLoopSchedule s;
  s.start = Clock::time_point(std::chrono::seconds(100));
  s.rate_hz = 1000.0;  // one frame per ms
  EXPECT_EQ(s.Due(0), s.start);
  EXPECT_EQ(s.Due(250), s.start + std::chrono::milliseconds(250));
  EXPECT_DOUBLE_EQ(s.LateMs(10, s.start + std::chrono::milliseconds(13)),
                   3.0);
  EXPECT_DOUBLE_EQ(s.LateMs(10, s.start + std::chrono::milliseconds(10)),
                   0.0);
  // A tick covering 200 frames waits on frame 199, due at 199 ms.
  EXPECT_DOUBLE_EQ(s.TickLagMs(200, s.start + std::chrono::milliseconds(205)),
                   6.0);
  EXPECT_DOUBLE_EQ(s.TickLagMs(0, s.start + std::chrono::milliseconds(1)),
                   1.0);
}

TEST(OpenLoopSchedule, FractionalRate) {
  OpenLoopSchedule s;
  s.start = Clock::time_point();
  s.rate_hz = 10000.0;  // 100 us apart
  EXPECT_EQ(s.Due(3), s.start + std::chrono::microseconds(300));
}

TEST(Recorder, SpansOnlyWhenTracing) {
  Recorder rec(/*tracing=*/false);
  EXPECT_EQ(rec.Begin("x"), 0u);
  rec.End(0);
  rec.Add("s", 1.0);
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_EQ(rec.Series("s"), std::vector<double>{1.0});
  rec.set_tracing(true);
  {
    ScopedSpan outer(&rec, "outer");
    ScopedSpan inner(&rec, "inner", outer.id(), 7);
  }
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(rec.SpanName(spans[0].name), "outer");
  EXPECT_EQ(spans[1].parent, 1u);
  EXPECT_EQ(spans[1].frame, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(FormatNumber, ShortestRoundTrip) {
  EXPECT_EQ(FormatNumber(1.25), "1.25");
  EXPECT_EQ(FormatNumber(0.1), "0.1");
  EXPECT_EQ(FormatNumber(3e-7), "3e-07");
}

}  // namespace
}  // namespace perfbench
