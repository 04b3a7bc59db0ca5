// Collector service guarantees (serve/collector.h, serve/framing.h):
// length-prefixed transport framing is strict (clean EOF vs mid-frame EOF
// vs hostile length prefix, at any chunking), and CollectorSession
// reproduces the in-process sharded aggregate bit-for-bit from report +
// sketch frames. Serving a stream end to end is net::CollectorServer's
// job (tests/net_test.cc, tests/stdio_process_test.cc).
#include "serve/collector.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "data/datasets.h"
#include "protocol/sharded.h"
#include "serve/framing.h"
#include "wire/wire.h"

namespace numdist {
namespace {

std::vector<double> TestValues(size_t n) { return GoldenRatioValues(n); }

std::string EncodeFrames(const std::vector<std::string>& frames) {
  std::stringstream out;
  for (const std::string& frame : frames) {
    EXPECT_TRUE(serve::WriteFrame(out, frame).ok());
  }
  return out.str();
}

// What a FrameDecoder makes of `bytes` fed in `chunk`-sized pieces: the
// frames it pops and its verdict (the first Feed error, else AtEnd).
struct Decoded {
  std::vector<std::string> frames;
  Status verdict;
};

Decoded Decode(std::string_view bytes, size_t chunk) {
  Decoded out;
  serve::FrameDecoder decoder;
  std::string frame;
  for (size_t off = 0; off < bytes.size(); off += chunk) {
    const Status fed = decoder.Feed(bytes.substr(off, chunk));
    while (decoder.Next(&frame)) out.frames.push_back(frame);
    if (!fed.ok()) {
      out.verdict = fed;
      return out;
    }
  }
  out.verdict = decoder.AtEnd();
  return out;
}

TEST(FramingTest, RoundTripAndCleanEof) {
  const std::string bytes =
      EncodeFrames({"hello", "", std::string(1000, 'x')});
  const Decoded decoded = Decode(bytes, bytes.size());
  ASSERT_EQ(decoded.frames.size(), 3u);
  EXPECT_EQ(decoded.frames[0], "hello");
  EXPECT_EQ(decoded.frames[1], "");
  EXPECT_EQ(decoded.frames[2].size(), 1000u);
  // Clean end of stream between frames: OK, not an error — including an
  // empty stream.
  EXPECT_TRUE(decoded.verdict.ok()) << decoded.verdict.ToString();
  EXPECT_TRUE(Decode("", 1).verdict.ok());
}

// Every truncation of a 3-frame stream pops exactly the frames it holds
// whole and ends in a typed OutOfRange naming where the stream stopped.
TEST(FramingTest, MidFrameEofIsAnError) {
  const std::vector<std::string> frames = {"first-frame", "",
                                           std::string(300, 'y')};
  const std::string encoded = EncodeFrames(frames);
  size_t boundary = 0;  // the frame boundary at or before `cut`
  size_t whole = 0;     // frames complete at that boundary
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    if (whole < frames.size() &&
        cut == boundary + 4 + frames[whole].size()) {
      boundary = cut;
      ++whole;
    }
    const Decoded decoded = Decode(std::string_view(encoded).substr(0, cut),
                                   encoded.size());
    ASSERT_EQ(decoded.frames.size(), whole) << "cut at " << cut;
    const size_t into = cut - boundary;
    if (into == 0) {
      EXPECT_TRUE(decoded.verdict.ok()) << "cut at " << cut;
      continue;
    }
    EXPECT_EQ(decoded.verdict.code(), StatusCode::kOutOfRange)
        << "cut at " << cut;
    const std::string expected =
        into < 4 ? "framing: stream ended inside a length prefix (" +
                       std::to_string(into) + " of 4 bytes)"
                 : "framing: stream ended inside a frame (" +
                       std::to_string(into - 4) + " of " +
                       std::to_string(frames[whole].size()) + " bytes)";
    EXPECT_EQ(decoded.verdict.message(), expected) << "cut at " << cut;
  }
}

TEST(FramingTest, HostileLengthPrefixIsRejectedBeforeAllocation) {
  // 4 GiB claimed: refused the moment the 4th prefix byte arrives, with no
  // payload byte buffered or allocated, and the decoder stays poisoned.
  serve::FrameDecoder decoder;
  EXPECT_TRUE(decoder.Feed("\xFF\xFF").ok());
  const Status st = decoder.Feed("\xFF\xFF");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  std::string frame;
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_TRUE(frame.empty());
  EXPECT_EQ(decoder.buffered_bytes(), 4u);
  EXPECT_EQ(decoder.Feed("more").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoder.AtEnd().code(), StatusCode::kInvalidArgument);
  // A hostile prefix after a good frame still lets the good frame out.
  const Decoded after_good =
      Decode(EncodeFrames({"ok"}) + "\xFF\xFF\xFF\xFF", 64);
  EXPECT_EQ(after_good.frames, std::vector<std::string>{"ok"});
  EXPECT_EQ(after_good.verdict.code(), StatusCode::kInvalidArgument);

  // The ceiling is kMaxFrameBytes exactly: one byte over poisons the
  // decoder, a prefix claiming the ceiling itself is a frame in progress.
  const auto prefix = [](size_t len) {
    std::string bytes;
    serve::AppendFramePrefix(len, &bytes);
    return bytes;
  };
  const Decoded over = Decode(prefix(serve::kMaxFrameBytes + 1), 4);
  EXPECT_TRUE(over.frames.empty());
  EXPECT_EQ(over.verdict.code(), StatusCode::kInvalidArgument);
  serve::FrameDecoder at_limit;
  EXPECT_TRUE(at_limit.Feed(prefix(serve::kMaxFrameBytes)).ok());
  EXPECT_FALSE(at_limit.Next(&frame));
  EXPECT_TRUE(at_limit.mid_frame());
  EXPECT_EQ(at_limit.AtEnd().code(), StatusCode::kOutOfRange);

  // Writers refuse the same ceiling.
  std::stringstream out;
  EXPECT_EQ(
      serve::WriteFrame(out, std::string(serve::kMaxFrameBytes + 1, 'z'))
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.str().empty());
}

// Where a stream is cut into reads never changes what the decoder makes
// of it: byte-at-a-time and coprime chunk sizes straddle every prefix and
// body boundary, on clean, truncated, and hostile streams alike.
TEST(FramingTest, ChunkingNeverChangesTheVerdict) {
  const std::string clean =
      EncodeFrames({"", "a", std::string(5000, 'x'), ""});
  for (const std::string& bytes :
       {clean, clean.substr(0, clean.size() - 7), clean.substr(0, 6),
        EncodeFrames({"ok"}) + "\xFF\xFF\xFF\xFF"}) {
    const Decoded whole = Decode(bytes, bytes.size() + 1);
    for (const size_t chunk : {1, 2, 3, 7, 64}) {
      const Decoded split = Decode(bytes, chunk);
      EXPECT_EQ(split.frames, whole.frames) << "chunk=" << chunk;
      EXPECT_EQ(split.verdict.ToString(), whole.verdict.ToString())
          << "chunk=" << chunk;
    }
  }
}

TEST(CollectorSessionTest, DistributedRunMatchesInProcessShardedRun) {
  const std::vector<double> values = TestValues(20000);
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 64).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();

  ShardOptions opts;
  opts.shard_size = 4096;
  opts.threads = 2;
  auto reference =
      RunProtocolSharded(*protocol, values, 21, opts).ValueOrDie();

  // Three collector processes, round-robin over the shard set, then a
  // coordinator that merges their sketch frames.
  const size_t collectors = 3;
  std::vector<serve::CollectorSession> sessions;
  for (size_t c = 0; c < collectors; ++c) {
    sessions.push_back(serve::CollectorSession::Make(spec).ValueOrDie());
  }
  const size_t num_shards =
      (values.size() + opts.shard_size - 1) / opts.shard_size;
  for (size_t i = 0; i < num_shards; ++i) {
    const size_t begin = i * opts.shard_size;
    const size_t len = std::min(opts.shard_size, values.size() - begin);
    Rng rng(ShardSeed(21, i));
    auto chunk = protocol
                     ->EncodePerturbBatch(
                         std::span<const double>(values).subspan(begin, len),
                         rng)
                     .ValueOrDie();
    std::string frame;
    ASSERT_TRUE(wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok());
    ASSERT_TRUE(sessions[i % collectors].HandleFrame(frame).ok());
  }

  auto coordinator = serve::CollectorSession::Make(spec).ValueOrDie();
  for (const serve::CollectorSession& session : sessions) {
    const std::string sketch = session.EncodeSketch().ValueOrDie();
    ASSERT_TRUE(coordinator.HandleFrame(sketch).ok());
  }
  EXPECT_EQ(coordinator.num_reports(), values.size());

  auto output = coordinator.Reconstruct().ValueOrDie();
  ASSERT_EQ(output.distribution.size(), reference.distribution.size());
  EXPECT_EQ(0, std::memcmp(output.distribution.data(),
                           reference.distribution.data(),
                           reference.distribution.size() * sizeof(double)));
}

// A well-formed frame of the retired type 3, in the layout it had: the
// preamble, epsilon bits, d, a pipeline byte, the bucket count, the report
// count and one u64 per bucket. Older --estimate-out streams hold such
// frames; a collector must refuse them as an unknown frame type.
std::string RetiredType3Frame(double epsilon, uint32_t d,
                              const std::vector<uint64_t>& counts) {
  std::string frame;
  ByteWriter out(&frame);
  out.PutU32(wire::kMagic);
  out.PutU16(wire::kVersion);
  out.PutU8(3);
  out.PutU8(0);
  out.PutU64(wire::MethodSpec::EpsilonBits(epsilon));
  out.PutU32(d);
  out.PutU8(0);
  out.PutU32(static_cast<uint32_t>(counts.size()));
  uint64_t n = 0;
  for (const uint64_t c : counts) n += c;
  out.PutU64(n);
  for (const uint64_t c : counts) out.PutU64(c);
  return frame;
}

TEST(CollectorSessionTest, RejectsForeignAndRetiredTypeFrames) {
  auto session =
      serve::CollectorSession::Make(
          wire::ParseMethodSpec("sw-ems", 1.0, 64).ValueOrDie())
          .ValueOrDie();

  // A frame for a different method configuration.
  const auto other_spec = wire::ParseMethodSpec("sw-em", 1.0, 64).ValueOrDie();
  auto other = serve::CollectorSession::Make(other_spec).ValueOrDie();
  const std::string foreign = other.EncodeSketch().ValueOrDie();
  EXPECT_FALSE(session.HandleFrame(foreign).ok());
  EXPECT_EQ(session.num_reports(), 0u);

  // A frame of the retired type 3, matching epsilon and d.
  const Status retired = session.HandleFrame(
      RetiredType3Frame(1.0, 64, std::vector<uint64_t>(64, 1)));
  EXPECT_EQ(retired.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(retired.message(), "wire: unknown frame type 3");
  EXPECT_EQ(session.num_reports(), 0u);

  // Garbage.
  EXPECT_FALSE(session.HandleFrame(std::string("not a frame")).ok());
}

// A frame of the retired type 3 arriving AFTER the session has absorbed
// reports: the rejection must be typed and must leave the aggregate
// byte-identical — an older live-estimation stream accidentally piped
// into a collector cannot perturb or double-count the aggregate.
TEST(CollectorSessionTest, RetiredTypeFrameAfterPriorReportsLeavesStateIntact) {
  const std::vector<double> values = TestValues(4000);
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  auto session = serve::CollectorSession::Make(spec).ValueOrDie();

  Rng rng(ShardSeed(31, 0));
  auto chunk =
      protocol->EncodePerturbBatch(values, rng).ValueOrDie();
  std::string report;
  ASSERT_TRUE(wire::EncodeReportFrame(spec, *protocol, *chunk, &report).ok());
  ASSERT_TRUE(session.HandleFrame(report).ok());
  const std::string sketch_before = session.EncodeSketch().ValueOrDie();

  // A well-formed type-3 frame of matching epsilon/d.
  const SwEstimator estimator =
      SwEstimator::Make(wire::SwEstimatorOptionsForSpec(spec).ValueOrDie())
          .ValueOrDie();
  std::vector<uint64_t> counts(estimator.output_buckets(), 0);
  Rng retired_rng(ShardSeed(31, 1));
  for (const double v : TestValues(500)) {
    ++counts[estimator.OutputBucketOf(estimator.PerturbOne(v, retired_rng))];
  }

  const Status rejected =
      session.HandleFrame(RetiredType3Frame(1.0, 32, counts));
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
      << rejected.ToString();
  EXPECT_EQ(session.num_reports(), values.size());
  EXPECT_EQ(session.EncodeSketch().ValueOrDie(), sketch_before);

  // The session keeps serving: a later report frame still absorbs.
  Rng rng2(ShardSeed(31, 2));
  auto chunk2 = protocol
                    ->EncodePerturbBatch(
                        std::span<const double>(values).subspan(0, 100), rng2)
                    .ValueOrDie();
  std::string report2;
  ASSERT_TRUE(
      wire::EncodeReportFrame(spec, *protocol, *chunk2, &report2).ok());
  EXPECT_TRUE(session.HandleFrame(report2).ok());
  EXPECT_EQ(session.num_reports(), values.size() + 100);
}

// One tenant-tagged report frame per tenant, for the budget tests below.
std::string TenantReportFrame(const wire::MethodSpec& spec,
                              const Protocol& protocol, uint32_t tenant,
                              size_t reports, uint64_t seed) {
  const std::vector<double> values = TestValues(reports);
  Rng rng(ShardSeed(seed, tenant));
  auto chunk = protocol.EncodePerturbBatch(values, rng).ValueOrDie();
  std::string frame;
  const Status st =
      wire::EncodeReportFrame(spec, tenant, protocol, *chunk, &frame);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return frame;
}

// Over-budget frames are typed FailedPrecondition rejections that leave
// EVERY accumulator untouched — the offending tenant's and everyone
// else's (ExportState byte-compare), and the spend is not charged.
TEST(CollectorSessionTest, OverBudgetTenantIsRejectedWithoutSideEffects) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  auto session = serve::CollectorSession::Make(spec).ValueOrDie();
  session.SetTenantBudget(1, {.max_reports = 250});

  // Tenant 2 (unlimited) and tenant 1's first frame both land.
  ASSERT_TRUE(
      session.HandleFrame(TenantReportFrame(spec, *protocol, 2, 300, 5))
          .ok());
  ASSERT_TRUE(
      session.HandleFrame(TenantReportFrame(spec, *protocol, 1, 200, 5))
          .ok());
  EXPECT_EQ(session.ledger()->spent_reports(1), 200u);

  const std::string total_before = session.EncodeSketch().ValueOrDie();
  const auto tenant1_before = session.ExportTenantState(1).ValueOrDie();
  const auto tenant2_before = session.ExportTenantState(2).ValueOrDie();

  // 200 + 100 > 250: typed rejection, nothing moves, nothing charged.
  const Status over =
      session.HandleFrame(TenantReportFrame(spec, *protocol, 1, 100, 6));
  EXPECT_EQ(over.code(), StatusCode::kFailedPrecondition) << over.ToString();
  EXPECT_EQ(session.ledger()->spent_reports(1), 200u);
  EXPECT_EQ(session.num_reports(), 500u);
  EXPECT_EQ(session.EncodeSketch().ValueOrDie(), total_before);
  const auto tenant1_after = session.ExportTenantState(1).ValueOrDie();
  const auto tenant2_after = session.ExportTenantState(2).ValueOrDie();
  EXPECT_EQ(tenant1_after.num_reports, tenant1_before.num_reports);
  EXPECT_EQ(tenant2_after.num_reports, tenant2_before.num_reports);
  ASSERT_EQ(tenant1_after.tables.size(), tenant1_before.tables.size());
  for (size_t t = 0; t < tenant1_after.tables.size(); ++t) {
    EXPECT_EQ(tenant1_after.tables[t].counts,
              tenant1_before.tables[t].counts);
  }
  for (size_t t = 0; t < tenant2_after.tables.size(); ++t) {
    EXPECT_EQ(tenant2_after.tables[t].counts,
              tenant2_before.tables[t].counts);
  }

  // A frame that still fits the remaining budget is accepted.
  EXPECT_TRUE(
      session.HandleFrame(TenantReportFrame(spec, *protocol, 1, 50, 7)).ok());
  EXPECT_EQ(session.ledger()->spent_reports(1), 250u);
}

// The epsilon odometer: the cap is cumulative epsilon spend (reports ×
// the session epsilon), independent of the report cap.
TEST(CollectorSessionTest, EpsilonBudgetCapsAreEnforced) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 2.0, 32).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  auto session = serve::CollectorSession::Make(spec).ValueOrDie();
  // 100 reports at epsilon 2.0 = 200.0 spent; cap at 300.
  session.SetTenantBudget(4, {.max_epsilon = 300.0});

  ASSERT_TRUE(
      session.HandleFrame(TenantReportFrame(spec, *protocol, 4, 100, 8))
          .ok());
  const Status over =
      session.HandleFrame(TenantReportFrame(spec, *protocol, 4, 100, 9));
  EXPECT_EQ(over.code(), StatusCode::kFailedPrecondition) << over.ToString();
  EXPECT_NE(over.message().find("epsilon"), std::string::npos)
      << over.ToString();
  // 100 + 50 = 150 reports -> epsilon 300.0 == the cap: allowed.
  EXPECT_TRUE(
      session.HandleFrame(TenantReportFrame(spec, *protocol, 4, 50, 10))
          .ok());
}

// Untenanted sessions stay byte-compatible: a default-tenant budget also
// caps untagged frames, and tenant-0-tagged frames route to the default
// accumulator (the flag is normalized away on the wire).
TEST(CollectorSessionTest, DefaultTenantBudgetCapsUntaggedFrames) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();

  // Tenant-0 tagging is normalized: the encoder emits the legacy bytes.
  std::string tagged, untagged;
  const std::vector<double> values = TestValues(64);
  Rng rng_a(ShardSeed(12, 0));
  auto chunk_a = protocol->EncodePerturbBatch(values, rng_a).ValueOrDie();
  ASSERT_TRUE(wire::EncodeReportFrame(spec, wire::kDefaultTenant, *protocol,
                                      *chunk_a, &tagged)
                  .ok());
  Rng rng_b(ShardSeed(12, 0));
  auto chunk_b = protocol->EncodePerturbBatch(values, rng_b).ValueOrDie();
  ASSERT_TRUE(
      wire::EncodeReportFrame(spec, *protocol, *chunk_b, &untagged).ok());
  EXPECT_EQ(tagged, untagged);

  auto session = serve::CollectorSession::Make(spec).ValueOrDie();
  session.SetTenantBudget(wire::kDefaultTenant, {.max_reports = 100});
  ASSERT_TRUE(session.HandleFrame(untagged).ok());
  const Status over = session.HandleFrame(
      TenantReportFrame(spec, *protocol, wire::kDefaultTenant, 64, 13));
  EXPECT_EQ(over.code(), StatusCode::kFailedPrecondition) << over.ToString();
  EXPECT_EQ(session.num_reports(), 64u);
}

// ---------------------------------------------------------------------------
// SequenceTracker two-phase claims: a claim is pending until its absorb
// commits or releases it, and a frame whose absorb fails must never be
// stranded as a duplicate — otherwise the client's retry is rejected and
// the frame is silently lost.

TEST(SequenceTrackerTest, ReleasedClaimIsAcceptedExactlyOnceOnRetry) {
  serve::SequenceTracker tracker;
  ASSERT_TRUE(tracker.Claim(7, 1));
  ASSERT_TRUE(tracker.Claim(7, 2));
  ASSERT_TRUE(tracker.Claim(7, 3));
  // Seqs 1 and 3 commit while seq 2's absorb is still in flight...
  tracker.Commit(7, 1);
  tracker.Commit(7, 3);
  {
    const std::vector<serve::WalSeqEntry> entries = tracker.Export();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].epoch, 7u);
    EXPECT_EQ(entries[0].floor, 1u);
    EXPECT_EQ(entries[0].sparse, (std::vector<uint64_t>{3}));
  }
  // ...then seq 2's absorb fails and releases its claim.
  tracker.Release(7, 2);
  // The retry must be accepted exactly once, then dedup again.
  EXPECT_TRUE(tracker.Claim(7, 2));
  EXPECT_FALSE(tracker.Claim(7, 2));
  // Committed neighbors stay duplicates throughout.
  EXPECT_FALSE(tracker.Claim(7, 1));
  EXPECT_FALSE(tracker.Claim(7, 3));
  // The retry's commit closes the gap: the floor runs through 3.
  tracker.Commit(7, 2);
  const std::vector<serve::WalSeqEntry> entries = tracker.Export();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].floor, 3u);
  EXPECT_TRUE(entries[0].sparse.empty());
}

TEST(SequenceTrackerTest, ExportNeverCarriesAPendingOrReleasedClaim) {
  serve::SequenceTracker tracker;
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(tracker.Claim(9, seq));
  }
  for (const uint64_t seq : {1, 3, 4}) tracker.Commit(9, seq);
  // A checkpoint cut while seq 2 is pending leaves it out: the floor
  // stops below it and the committed seqs above it stay sparse.
  const std::vector<serve::WalSeqEntry> pending = tracker.Export();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].floor, 1u);
  EXPECT_EQ(pending[0].sparse, (std::vector<uint64_t>{3, 4}));
  // So does one cut after its release.
  tracker.Release(9, 2);
  const std::vector<serve::WalSeqEntry> entries = tracker.Export();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].floor, 1u);
  EXPECT_EQ(entries[0].sparse, (std::vector<uint64_t>{3, 4}));
  // A tracker restored from that checkpoint accepts the retry and still
  // dedups the absorbed neighbors.
  serve::SequenceTracker restored;
  restored.Restore(entries);
  EXPECT_TRUE(restored.Claim(9, 2));
  EXPECT_FALSE(restored.Claim(9, 3));
  EXPECT_FALSE(restored.Claim(9, 1));
}

// The window's memory is O(live epochs + gaps): commits advance the floor,
// so an in-order client holds no per-seq entry once its claims commit, and
// out-of-order commits are held only until the gap below them fills.
TEST(SequenceTrackerTest, CommitsAdvanceTheFloorSoInOrderClaimsHoldNothing) {
  serve::SequenceTracker tracker;
  constexpr uint64_t kInOrder = 100000;
  for (uint64_t seq = 1; seq <= kInOrder; ++seq) {
    ASSERT_TRUE(tracker.Claim(3, seq));
    tracker.Commit(3, seq);
    ASSERT_EQ(tracker.held_seqs(), 0u) << "after committing seq " << seq;
  }
  std::vector<serve::WalSeqEntry> entries = tracker.Export();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].floor, kInOrder);
  EXPECT_TRUE(entries[0].sparse.empty());

  // Seq kInOrder + 1 is late: the ten commits after it wait above the gap.
  constexpr uint64_t gap = kInOrder + 1;
  for (uint64_t seq = gap + 1; seq <= gap + 10; ++seq) {
    ASSERT_TRUE(tracker.Claim(3, seq));
    tracker.Commit(3, seq);
    EXPECT_EQ(tracker.held_seqs(), seq - gap);
  }
  entries = tracker.Export();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].floor, kInOrder);
  EXPECT_EQ(entries[0].sparse.size(), 10u);
  // The late frame's pending claim is one more held entry; its commit
  // fills the gap and folds the whole run into the floor.
  ASSERT_TRUE(tracker.Claim(3, gap));
  EXPECT_EQ(tracker.held_seqs(), 11u);
  tracker.Commit(3, gap);
  EXPECT_EQ(tracker.held_seqs(), 0u);
  entries = tracker.Export();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].floor, gap + 10);
  EXPECT_TRUE(entries[0].sparse.empty());
}

}  // namespace
}  // namespace numdist
