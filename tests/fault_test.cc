// In-process tests of the deterministic fault-injection layer
// (net/fault.h): plan determinism, the per-kind writer behavior over a
// real socketpair, and the typed injected-fault taxonomy the retry layer
// keys on. Two seeded generators only these tests use live here: a mixed
// fault plan and a frame shuffle. The cross-process scenarios that compose
// these faults with a live collector are tests/chaos_process_test.cc.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/fault.h"

namespace numdist::net {
namespace {

// A mixed diet of faults: `faulty_attempts` attempts each get one
// Rng(seed)-drawn fault (kind and offset both seeded); later attempts are
// clean.
FaultPlan FaultPlanFromSeed(uint64_t seed, uint32_t faulty_attempts,
                            uint64_t max_byte) {
  FaultPlan plan;
  Rng rng(seed);
  const uint64_t span = std::max<uint64_t>(max_byte, 2);
  for (uint32_t attempt = 0; attempt < faulty_attempts; ++attempt) {
    // Draw order is fixed (kind, then offset) so the plan is a stable
    // function of the seed even if the kind distribution changes weight.
    const uint64_t kind_draw = rng.UniformInt(4);
    const uint64_t at_byte = 1 + rng.UniformInt(span - 1);
    FaultEvent event;
    event.at_byte = at_byte;
    switch (kind_draw) {
      case 0:
        event.kind = FaultKind::kDelay;
        event.param = 1 + rng.UniformInt(5);  // 1..5 ms
        break;
      case 1:
        event.kind = FaultKind::kShortWrite;
        event.param = 1;
        break;
      case 2:
        event.kind = FaultKind::kTruncate;
        break;
      default:
        event.kind = FaultKind::kReset;
        break;
    }
    plan.Add(attempt, event);
  }
  return plan;
}

// Seeded Fisher–Yates shuffle of a frame batch — the "reorder across
// connections" fault, applied before frames are assigned to sockets.
// Rng(seed) makes the permutation a pure function of the seed.
void ReorderFrames(std::span<std::string> frames, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = frames.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.UniformInt(i));
    std::swap(frames[i - 1], frames[j]);
  }
}

// A connected AF_UNIX stream pair; the test writes through a FaultyWriter
// on one end and reads the wire truth from the other.
struct SocketPair {
  Fd a, b;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a.reset(fds[0]);
    b.reset(fds[1]);
  }
};

std::string DrainAll(int fd) {
  std::string got;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // ECONNRESET after an injected RST is a valid end
    }
    if (n == 0) break;
    got.append(buf, static_cast<size_t>(n));
  }
  return got;
}

TEST(FaultPlanTest, SeededPlansAreReproducibleAndSorted) {
  const FaultPlan p1 = FaultPlanFromSeed(42, /*faulty_attempts=*/5, 10000);
  const FaultPlan p2 = FaultPlanFromSeed(42, /*faulty_attempts=*/5, 10000);
  for (uint32_t attempt = 0; attempt < 5; ++attempt) {
    const std::vector<FaultEvent> e1 = p1.Events(attempt);
    const std::vector<FaultEvent> e2 = p2.Events(attempt);
    ASSERT_EQ(e1.size(), e2.size());
    ASSERT_EQ(e1.size(), 1u);
    EXPECT_EQ(e1[0].kind, e2[0].kind);
    EXPECT_EQ(e1[0].at_byte, e2[0].at_byte);
    EXPECT_GE(e1[0].at_byte, 1u);
    EXPECT_LT(e1[0].at_byte, 10000u);
  }
  // Attempts past the scripted ones are clean.
  EXPECT_TRUE(p1.Events(5).empty());
  // A different seed scripts a different plan (somewhere in 5 attempts).
  const FaultPlan p3 = FaultPlanFromSeed(43, 5, 10000);
  bool differs = false;
  for (uint32_t attempt = 0; attempt < 5 && !differs; ++attempt) {
    const auto a = p1.Events(attempt), b = p3.Events(attempt);
    differs = a[0].at_byte != b[0].at_byte || a[0].kind != b[0].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, EventsReturnSortedByOffset) {
  FaultPlan plan;
  plan.Add(0, {.kind = FaultKind::kDelay, .at_byte = 500, .param = 1});
  plan.Add(0, {.kind = FaultKind::kDrop, .at_byte = 100, .param = 4});
  plan.Add(0, {.kind = FaultKind::kShortWrite, .at_byte = 300, .param = 0});
  const std::vector<FaultEvent> events = plan.Events(0);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at_byte, 100u);
  EXPECT_EQ(events[1].at_byte, 300u);
  EXPECT_EQ(events[2].at_byte, 500u);
}

TEST(FaultyWriterTest, CleanPlanWritesVerbatim) {
  SocketPair pair;
  FaultyWriter writer(&pair.a, nullptr, 0);
  const std::string payload(1000, 'x');
  ASSERT_TRUE(writer.Write(payload).ok());
  EXPECT_EQ(writer.offset(), payload.size());
  EXPECT_EQ(writer.injected(), 0u);
  pair.a.reset();
  EXPECT_EQ(DrainAll(pair.b.get()), payload);
}

TEST(FaultyWriterTest, DropDiscardsExactlyTheScriptedRange) {
  SocketPair pair;
  FaultPlan plan;
  plan.Add(0, {.kind = FaultKind::kDrop, .at_byte = 10, .param = 5});
  FaultyWriter writer(&pair.a, &plan, 0);
  std::string payload;
  for (char c = 'a'; c <= 'z'; ++c) payload.push_back(c);
  ASSERT_TRUE(writer.Write(payload).ok());
  // The logical offset covers dropped bytes — the plan addresses the
  // stream the sender MEANT to send.
  EXPECT_EQ(writer.offset(), payload.size());
  EXPECT_EQ(writer.injected(), 1u);
  pair.a.reset();
  EXPECT_EQ(DrainAll(pair.b.get()), "abcdefghijpqrstuvwxyz");
}

TEST(FaultyWriterTest, TruncateStopsMidStreamWithTypedError) {
  SocketPair pair;
  FaultPlan plan;
  plan.Add(0, {.kind = FaultKind::kTruncate, .at_byte = 7});
  FaultyWriter writer(&pair.a, &plan, 0);
  const Status st = writer.Write("0123456789");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(IsInjectedFault(st)) << st.ToString();
  EXPECT_NE(st.message().find("truncation at byte 7"), std::string::npos)
      << st.ToString();
  // The receiver got a clean FIN after exactly 7 bytes: the mid-frame
  // truncation shape the torn-tail taxonomy diagnoses.
  EXPECT_EQ(DrainAll(pair.b.get()), "0123456");
}

TEST(FaultyWriterTest, ResetClosesTheFdWithTypedError) {
  SocketPair pair;
  FaultPlan plan;
  plan.Add(0, {.kind = FaultKind::kReset, .at_byte = 3});
  FaultyWriter writer(&pair.a, &plan, 0);
  const Status st = writer.Write("0123456789");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(IsInjectedFault(st)) << st.ToString();
  EXPECT_NE(st.message().find("reset at byte 3"), std::string::npos);
  EXPECT_FALSE(pair.a.valid()) << "reset must close the fd";
}

TEST(FaultyWriterTest, FaultsFireAcrossSplitWrites) {
  // The at_byte offsets address the cumulative stream, not any single
  // Write call: a drop scripted at byte 10 fires even when the writes
  // arrive one byte at a time.
  SocketPair pair;
  FaultPlan plan;
  plan.Add(0, {.kind = FaultKind::kDrop, .at_byte = 10, .param = 5});
  FaultyWriter writer(&pair.a, &plan, 0);
  std::string payload;
  for (char c = 'a'; c <= 'z'; ++c) payload.push_back(c);
  for (const char c : payload) {
    ASSERT_TRUE(writer.Write(std::string_view(&c, 1)).ok());
  }
  pair.a.reset();
  EXPECT_EQ(DrainAll(pair.b.get()), "abcdefghijpqrstuvwxyz");
}

TEST(FaultyWriterTest, AttemptSelectsItsOwnScript) {
  FaultPlan plan;
  plan.Add(1, {.kind = FaultKind::kReset, .at_byte = 2});
  {
    // Attempt 0 has no script: the write is clean.
    SocketPair pair;
    FaultyWriter writer(&pair.a, &plan, 0);
    EXPECT_TRUE(writer.Write("hello").ok());
  }
  {
    SocketPair pair;
    FaultyWriter writer(&pair.a, &plan, 1);
    EXPECT_FALSE(writer.Write("hello").ok());
  }
}

TEST(ReorderFramesTest, SeededShuffleIsAPureFunctionOfTheSeed) {
  std::vector<std::string> frames1, frames2;
  for (int i = 0; i < 16; ++i) {
    frames1.push_back("frame-" + std::to_string(i));
    frames2.push_back("frame-" + std::to_string(i));
  }
  const std::vector<std::string> original = frames1;
  ReorderFrames(frames1, 77);
  ReorderFrames(frames2, 77);
  EXPECT_EQ(frames1, frames2);
  EXPECT_NE(frames1, original) << "a 16-element shuffle staying identity "
                                  "is a broken generator, not luck";
  // Same multiset, different order.
  std::vector<std::string> sorted1 = frames1, sorted2 = original;
  std::sort(sorted1.begin(), sorted1.end());
  std::sort(sorted2.begin(), sorted2.end());
  EXPECT_EQ(sorted1, sorted2);
}

TEST(InjectedFaultTest, OnlyInjectedErrorsMatchTheTaxonomy) {
  EXPECT_FALSE(IsInjectedFault(Status::OK()));
  EXPECT_FALSE(IsInjectedFault(Status::Internal("net: send failed (EPIPE)")));
  EXPECT_TRUE(IsInjectedFault(
      Status::Internal("fault: injected connection reset at byte 9")));
}

}  // namespace
}  // namespace numdist::net
