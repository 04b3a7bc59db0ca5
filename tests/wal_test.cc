// Write-ahead log guarantees (serve/wal.h): replaying ANY truncation of a
// log yields the state of an intact record prefix with a typed torn-tail
// error (never a crash, never garbage state), checkpoint compaction is
// state-preserving, replay is deterministic, and tenant routing survives
// the log round trip. The cross-process SIGKILL variant of these claims
// lives in tests/wal_process_test.cc.
#include "serve/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "protocol/sharded.h"
#include "serve/collector.h"
#include "wire/wire.h"

namespace numdist {
namespace {

wire::MethodSpec TestSpec() {
  return wire::ParseMethodSpec("sw-ems", 1.0, 16).ValueOrDie();
}

// One seeded report frame per shard, optionally tenant-tagged.
std::vector<std::string> MakeReportFrames(const wire::MethodSpec& spec,
                                          size_t shards, size_t shard_size,
                                          uint64_t seed,
                                          uint32_t tenant = wire::kDefaultTenant) {
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  const std::vector<double> values = GoldenRatioValues(shards * shard_size);
  std::vector<std::string> frames;
  for (size_t i = 0; i < shards; ++i) {
    Rng rng(ShardSeed(seed, i));
    auto chunk = protocol
                     ->EncodePerturbBatch(std::span<const double>(values)
                                              .subspan(i * shard_size,
                                                       shard_size),
                                          rng)
                     .ValueOrDie();
    std::string frame;
    const Status st =
        wire::EncodeReportFrame(spec, tenant, *protocol, *chunk, &frame);
    EXPECT_TRUE(st.ok()) << st.ToString();
    frames.push_back(frame);
  }
  return frames;
}

bool SameState(const AccumulatorState& a, const AccumulatorState& b) {
  if (a.num_reports != b.num_reports) return false;
  if (a.tables.size() != b.tables.size()) return false;
  for (size_t t = 0; t < a.tables.size(); ++t) {
    if (a.tables[t].n != b.tables[t].n) return false;
    if (a.tables[t].counts != b.tables[t].counts) return false;
  }
  return true;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// A session with a WAL attached the way net::CollectorServer attaches one:
// OpenWal replays the log into the session through ReplayConsumer, then
// every frame the session absorbs is appended (duplicates never are), and
// Compact checkpoints the session's sketches plus its dedup window.
struct LoggedSession : serve::CollectorSession {
  explicit LoggedSession(const wire::MethodSpec& spec = TestSpec())
      : serve::CollectorSession(
            serve::CollectorSession::Make(spec).ValueOrDie()) {}

  Result<serve::WalReplayStats> OpenWal(const std::string& path,
                                        const serve::WalOptions& options = {}) {
    NUMDIST_ASSIGN_OR_RETURN(
        serve::WalLog log,
        serve::WalLog::Open(path, options, ReplayConsumer()));
    wal.emplace(std::move(log));
    return wal->recovery();
  }

  Status HandleFrame(std::string_view frame,
                     serve::FrameOutcome* outcome = nullptr) {
    serve::FrameOutcome local;
    if (outcome == nullptr) outcome = &local;
    NUMDIST_RETURN_NOT_OK(serve::CollectorSession::HandleFrame(frame, outcome));
    return outcome->absorbed ? wal->AppendFrame(frame) : Status::OK();
  }

  Status Compact() {
    NUMDIST_ASSIGN_OR_RETURN(const std::vector<std::string> sketches,
                             EncodeSketches());
    return wal->Compact(sketches, sequence_tracker()->Export());
  }

  std::optional<serve::WalLog> wal;
};

// Builds a frame-record-only log (no checkpoint) holding `frames`.
void BuildLog(const std::string& path, const std::vector<std::string>& frames) {
  std::remove(path.c_str());
  LoggedSession session;
  auto stats = session.OpenWal(path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const std::string& frame : frames) {
    const Status st = session.HandleFrame(frame);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

// Replays a log into a fresh session; returns the session + stats.
struct ReplayedSession {
  LoggedSession session;
  serve::WalReplayStats stats;
};
ReplayedSession Replay(const std::string& path) {
  LoggedSession session;
  auto stats = session.OpenWal(path);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return {std::move(session),
          stats.ok() ? stats.value() : serve::WalReplayStats{}};
}

// The headline sweep: truncate the log at EVERY byte length and replay.
// Each truncation must recover the state of some intact record prefix,
// report the cut as a typed torn-tail error (except on record
// boundaries), and never hard-fail or crash.
TEST(WalTest, EveryByteTruncationYieldsAPrefixState) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames =
      MakeReportFrames(spec, /*shards=*/5, /*shard_size=*/20, /*seed=*/11);

  const std::string log_path = TempPath("wal_sweep.wal");
  BuildLog(log_path, frames);
  const std::string log_bytes = ReadFileBytes(log_path);
  ASSERT_GT(log_bytes.size(), serve::kWalHeaderBytes);

  // Expected state after each intact frame prefix.
  std::vector<AccumulatorState> prefix_states;
  {
    serve::CollectorSession acc =
        serve::CollectorSession::Make(spec).ValueOrDie();
    prefix_states.push_back(acc.ExportState());
    for (const std::string& frame : frames) {
      ASSERT_TRUE(acc.HandleFrame(frame).ok());
      prefix_states.push_back(acc.ExportState());
    }
  }

  const std::string cut_path = TempPath("wal_sweep_cut.wal");
  std::vector<bool> prefix_reached(frames.size() + 1, false);
  for (size_t len = 0; len <= log_bytes.size(); ++len) {
    WriteFileBytes(cut_path, log_bytes.substr(0, len));
    ReplayedSession replayed = Replay(cut_path);
    ASSERT_LE(replayed.stats.frames, frames.size()) << "cut at " << len;
    ASSERT_EQ(replayed.stats.checkpoints, 0u) << "cut at " << len;
    prefix_reached[replayed.stats.frames] = true;
    // The recovered state is exactly the intact prefix's state.
    ASSERT_TRUE(SameState(replayed.session.ExportState(),
                          prefix_states[replayed.stats.frames]))
        << "cut at " << len << " replayed " << replayed.stats.frames;
    if (!replayed.stats.tail.ok()) {
      EXPECT_EQ(replayed.stats.tail.code(), StatusCode::kOutOfRange)
          << "cut at " << len << ": " << replayed.stats.tail.ToString();
    } else {
      // An OK tail means the cut landed exactly on a record boundary.
      EXPECT_EQ(replayed.stats.clean_bytes, len) << "cut at " << len;
    }
    ASSERT_LE(replayed.stats.clean_bytes, len) << "cut at " << len;
  }
  // The sweep exercised every prefix length, 0 through all frames.
  for (size_t k = 0; k <= frames.size(); ++k) {
    EXPECT_TRUE(prefix_reached[k]) << "no truncation replayed to prefix " << k;
  }
  std::remove(log_path.c_str());
  std::remove(cut_path.c_str());
}

// After recovery from a torn log, the writer truncates the tail and new
// appends extend the clean prefix — a second replay sees old + new frames.
TEST(WalTest, TornTailIsTruncatedBeforeNewAppends) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames =
      MakeReportFrames(spec, /*shards=*/4, /*shard_size=*/20, /*seed=*/5);

  const std::string path = TempPath("wal_torn_append.wal");
  BuildLog(path, {frames[0], frames[1], frames[2]});
  std::string bytes = ReadFileBytes(path);
  // Cut inside the final record.
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 3));

  ReplayedSession replayed = Replay(path);
  EXPECT_EQ(replayed.stats.frames, 2u);
  EXPECT_EQ(replayed.stats.tail.code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(replayed.session.HandleFrame(frames[3]).ok());

  ReplayedSession again = Replay(path);
  EXPECT_EQ(again.stats.frames, 3u);
  EXPECT_TRUE(again.stats.tail.ok()) << again.stats.tail.ToString();
  serve::CollectorSession expect =
      serve::CollectorSession::Make(spec).ValueOrDie();
  ASSERT_TRUE(expect.HandleFrame(frames[0]).ok());
  ASSERT_TRUE(expect.HandleFrame(frames[1]).ok());
  ASSERT_TRUE(expect.HandleFrame(frames[3]).ok());
  EXPECT_TRUE(SameState(again.session.ExportState(), expect.ExportState()));
  std::remove(path.c_str());
}

// A flipped body byte fails the CRC: typed torn tail, prefix state kept.
TEST(WalTest, CorruptRecordIsATypedTornTail) {
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), /*shards=*/3, /*shard_size=*/20, /*seed=*/2);
  const std::string path = TempPath("wal_crc.wal");
  BuildLog(path, frames);
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 1] ^= 0x40;  // inside the last record's body
  WriteFileBytes(path, bytes);

  ReplayedSession replayed = Replay(path);
  EXPECT_EQ(replayed.stats.frames, 2u);
  EXPECT_EQ(replayed.stats.tail.code(), StatusCode::kOutOfRange);
  EXPECT_NE(replayed.stats.tail.message().find("torn tail"),
            std::string::npos)
      << replayed.stats.tail.ToString();
  std::remove(path.c_str());
}

// A zero-filled tail (preallocated blocks after a crash) cannot pass as a
// record: length 0 is classified as torn, even though CRC(empty) == 0.
TEST(WalTest, ZeroFilledTailIsATypedTornTail) {
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), /*shards=*/2, /*shard_size=*/20, /*seed=*/3);
  const std::string path = TempPath("wal_zeros.wal");
  BuildLog(path, frames);
  std::string bytes = ReadFileBytes(path);
  const uint64_t clean = bytes.size();
  bytes.append(64, '\0');
  WriteFileBytes(path, bytes);

  ReplayedSession replayed = Replay(path);
  EXPECT_EQ(replayed.stats.frames, 2u);
  EXPECT_EQ(replayed.stats.clean_bytes, clean);
  EXPECT_EQ(replayed.stats.tail.code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

// Corruption a torn write cannot explain is a HARD error, not a tail.
TEST(WalTest, BadMagicAndVersionSkewAreHardErrors) {
  const std::string path = TempPath("wal_magic.wal");
  WriteFileBytes(path, std::string("XXXX\x01\x00\x00\x00", 8));
  serve::WalConsumer consumer;
  auto bad_magic = serve::ReplayWal(path, consumer);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), StatusCode::kInvalidArgument);

  WriteFileBytes(path, std::string("NDWL\x09\x00\x00\x00", 8));
  auto bad_version = serve::ReplayWal(path, consumer);
  ASSERT_FALSE(bad_version.ok());
  EXPECT_EQ(bad_version.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// A missing file is an empty log, not an error (first boot).
TEST(WalTest, MissingFileIsAnEmptyLog) {
  const std::string path = TempPath("wal_missing_never_created.wal");
  std::remove(path.c_str());
  serve::WalConsumer consumer;
  auto stats = serve::ReplayWal(path, consumer);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().frames, 0u);
  EXPECT_EQ(stats.value().clean_bytes, 0u);
  EXPECT_TRUE(stats.value().tail.ok());
}

// Compaction (checkpoint + truncate) replays to the identical state, and
// frames appended after the checkpoint replay on top of it. (The periodic
// cadence belongs to net::CollectorServer; tests/net_test.cc covers it.)
TEST(WalTest, CheckpointCompactionPreservesState) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames =
      MakeReportFrames(spec, /*shards=*/6, /*shard_size=*/20, /*seed=*/17);
  const std::string plain_path = TempPath("wal_plain.wal");
  const std::string compact_path = TempPath("wal_compact.wal");
  std::remove(plain_path.c_str());
  std::remove(compact_path.c_str());

  BuildLog(plain_path, frames);

  // Same frames through a log compacted before the last frame.
  LoggedSession compacting(spec);
  ASSERT_TRUE(compacting.OpenWal(compact_path).ok());
  for (const std::string& frame : frames) {
    if (&frame == &frames.back()) {
      ASSERT_TRUE(compacting.Compact().ok());
    }
    ASSERT_TRUE(compacting.HandleFrame(frame).ok());
  }

  ReplayedSession from_plain = Replay(plain_path);
  ReplayedSession from_compact = Replay(compact_path);
  EXPECT_EQ(from_plain.stats.frames, frames.size());
  EXPECT_GE(from_compact.stats.checkpoints, 1u);
  EXPECT_LT(from_compact.stats.frames, frames.size());
  EXPECT_TRUE(SameState(from_plain.session.ExportState(),
                        from_compact.session.ExportState()));
  // And both equal the live sessions' state and sketch bytes.
  EXPECT_TRUE(SameState(from_compact.session.ExportState(),
                        compacting.ExportState()));
  EXPECT_EQ(from_plain.session.EncodeSketch().ValueOrDie(),
            compacting.EncodeSketch().ValueOrDie());
  // The compacted log is the smaller one (6 frame records vs a
  // checkpoint plus at most 1 trailing frame).
  EXPECT_LT(ReadFileBytes(compact_path).size(),
            ReadFileBytes(plain_path).size() + frames.back().size());
  std::remove(plain_path.c_str());
  std::remove(compact_path.c_str());
}

// Replay is deterministic: for several seeds, two independent replays of
// the same log produce byte-identical sketches.
TEST(WalTest, ReplayIsDeterministicAcrossSeeds) {
  const wire::MethodSpec spec = TestSpec();
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<std::string> frames =
        MakeReportFrames(spec, /*shards=*/4, /*shard_size=*/25, seed);
    const std::string path =
        TempPath("wal_seed_" + std::to_string(seed) + ".wal");
    BuildLog(path, frames);

    ReplayedSession a = Replay(path);
    ReplayedSession b = Replay(path);
    EXPECT_EQ(a.stats.frames, frames.size()) << "seed " << seed;
    EXPECT_EQ(a.stats.frames, b.stats.frames) << "seed " << seed;
    EXPECT_EQ(a.stats.clean_bytes, b.stats.clean_bytes) << "seed " << seed;
    EXPECT_TRUE(SameState(a.session.ExportState(), b.session.ExportState()))
        << "seed " << seed;
    EXPECT_EQ(a.session.EncodeSketch().ValueOrDie(),
              b.session.EncodeSketch().ValueOrDie())
        << "seed " << seed;
    std::remove(path.c_str());
  }
}

// Tenant routing survives the log: tagged frames replay into the same
// per-tenant accumulators, through both frame records and checkpoints.
TEST(WalTest, TenantRoutingSurvivesReplayAndCompaction) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> def_frames =
      MakeReportFrames(spec, /*shards=*/2, /*shard_size=*/20, /*seed=*/8);
  const std::vector<std::string> t5_frames = MakeReportFrames(
      spec, /*shards=*/2, /*shard_size=*/20, /*seed=*/9, /*tenant=*/5);
  const std::vector<std::string> t9_frames = MakeReportFrames(
      spec, /*shards=*/1, /*shard_size=*/20, /*seed=*/10, /*tenant=*/9);

  const std::string path = TempPath("wal_tenants.wal");
  std::remove(path.c_str());
  LoggedSession live(spec);
  ASSERT_TRUE(live.OpenWal(path).ok());
  for (const auto* frames : {&def_frames, &t5_frames, &t9_frames}) {
    for (const std::string& frame : *frames) {
      ASSERT_TRUE(live.HandleFrame(frame).ok());
    }
  }

  ReplayedSession replayed = Replay(path);
  EXPECT_EQ(replayed.session.TenantIds(), (std::vector<uint32_t>{5, 9}));
  for (const uint32_t tenant : {wire::kDefaultTenant, 5u, 9u}) {
    EXPECT_TRUE(SameState(
        replayed.session.ExportTenantState(tenant).ValueOrDie(),
        live.ExportTenantState(tenant).ValueOrDie()))
        << "tenant " << tenant;
  }
  EXPECT_EQ(replayed.session.EncodeSketches().ValueOrDie(),
            live.EncodeSketches().ValueOrDie());

  // Compact (checkpoint currency = per-tenant sketches) and replay again.
  ASSERT_TRUE(replayed.session.Compact().ok());
  ReplayedSession after_compact = Replay(path);
  EXPECT_EQ(after_compact.stats.checkpoints, 1u);
  EXPECT_EQ(after_compact.stats.frames, 0u);
  EXPECT_EQ(after_compact.session.TenantIds(),
            (std::vector<uint32_t>{5, 9}));
  EXPECT_EQ(after_compact.session.EncodeSketches().ValueOrDie(),
            live.EncodeSketches().ValueOrDie());
  std::remove(path.c_str());
}

// Budget accounting is restored from the log: a tenant that exhausted its
// budget before the crash is still over budget after recovery.
TEST(WalTest, BudgetsAreRestoredByReplay) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames = MakeReportFrames(
      spec, /*shards=*/2, /*shard_size=*/20, /*seed=*/4, /*tenant=*/3);
  const std::string path = TempPath("wal_budget.wal");
  std::remove(path.c_str());

  LoggedSession live(spec);
  live.SetTenantBudget(3, {.max_reports = 40});
  ASSERT_TRUE(live.OpenWal(path).ok());
  ASSERT_TRUE(live.HandleFrame(frames[0]).ok());
  ASSERT_TRUE(live.HandleFrame(frames[1]).ok());

  LoggedSession restarted(spec);
  restarted.SetTenantBudget(3, {.max_reports = 40});
  ASSERT_TRUE(restarted.OpenWal(path).ok());
  EXPECT_EQ(restarted.ledger()->spent_reports(3), 40u);
  const std::vector<std::string> more = MakeReportFrames(
      spec, /*shards=*/1, /*shard_size=*/20, /*seed=*/6, /*tenant=*/3);
  const Status over = restarted.HandleFrame(more[0]);
  EXPECT_EQ(over.code(), StatusCode::kFailedPrecondition)
      << over.ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Segmented layout (WalOptions::segment_bytes > 0): rotation, replay
// across a segment directory, the hardened gap / sealed-torn taxonomy,
// compaction GC, and the exactly-once dedup-window checkpoint.

std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// A fresh (removed-then-absent) segment-directory path under TempDir.
std::string TempSegDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Small segments so a handful of report frames forces several rotations.
constexpr uint64_t kTestSegmentBytes = 1024;

// Builds a segmented frame-only log and returns the live session's state.
AccumulatorState BuildSegmentedLog(const std::string& dir,
                                   const std::vector<std::string>& frames) {
  LoggedSession session;
  auto stats = session.OpenWal(
      dir, {.segment_bytes = kTestSegmentBytes});
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  for (const std::string& frame : frames) {
    const Status st = session.HandleFrame(frame);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return session.ExportState();
}

TEST(WalSegmentTest, RotationReplaysAcrossAContiguousSegmentRun) {
  const std::string dir = TempSegDir("wal_seg_rotate");
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), /*shards=*/8, /*shard_size=*/50,
                       /*seed=*/21);
  const AccumulatorState live = BuildSegmentedLog(dir, frames);

  // The writer rotated: several contiguous 1-based segments exist.
  const std::vector<std::string> files = SegmentFiles(dir);
  ASSERT_GT(files.size(), 1u) << "no rotation at segment_bytes="
                              << kTestSegmentBytes;
  EXPECT_EQ(files.front(), "wal-00000001.ndwl");
  char expected[32];
  std::snprintf(expected, sizeof(expected), "wal-%08zu.ndwl", files.size());
  EXPECT_EQ(files.back(), expected);

  // Replay walks the whole run and reproduces the exact state.
  LoggedSession restarted;
  auto stats = restarted.OpenWal(
      dir, {.segment_bytes = kTestSegmentBytes});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->frames, frames.size());
  EXPECT_EQ(stats->segments, files.size());
  EXPECT_TRUE(stats->tail.ok()) << stats->tail.ToString();
  EXPECT_TRUE(SameState(live, restarted.ExportState()));
  std::filesystem::remove_all(dir);
}

TEST(WalSegmentTest, NumberingGapIsAHardError) {
  const std::string dir = TempSegDir("wal_seg_gap");
  BuildSegmentedLog(dir, MakeReportFrames(TestSpec(), 8, 50, 22));
  const std::vector<std::string> files = SegmentFiles(dir);
  ASSERT_GT(files.size(), 2u);
  // Unlink a MIDDLE segment: no crash schedule can explain the hole.
  ASSERT_TRUE(std::filesystem::remove(dir + "/" + files[1]));

  LoggedSession restarted;
  const auto stats = restarted.OpenWal(
      dir, {.segment_bytes = kTestSegmentBytes});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status().message().find("gap"), std::string::npos)
      << stats.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(WalSegmentTest, TornTailTaxonomyIsPerSegment) {
  const std::string dir = TempSegDir("wal_seg_torn");
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), 8, 50, 23);
  BuildSegmentedLog(dir, frames);
  const std::vector<std::string> files = SegmentFiles(dir);
  ASSERT_GT(files.size(), 1u);

  // A cut in the FINAL segment is a crash shape: typed torn tail, the
  // intact prefix's state is kept.
  const std::string final_path = dir + "/" + files.back();
  const std::string final_bytes = ReadFileBytes(final_path);
  ASSERT_GT(final_bytes.size(), serve::kWalHeaderBytes + 3);
  WriteFileBytes(final_path,
                 final_bytes.substr(0, final_bytes.size() - 3));
  {
    LoggedSession restarted;
    const auto stats = restarted.OpenWal(
        dir, {.segment_bytes = kTestSegmentBytes});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_FALSE(stats->tail.ok()) << "a cut final record must be typed";
    EXPECT_LT(stats->frames, frames.size());
    EXPECT_GT(stats->frames, 0u);
  }

  // The SAME cut in a sealed (non-final) segment is corruption a crash
  // cannot explain: hard error, no silent prefix state.
  const std::string sealed_path = dir + "/" + files.front();
  const std::string sealed_bytes = ReadFileBytes(sealed_path);
  WriteFileBytes(sealed_path,
                 sealed_bytes.substr(0, sealed_bytes.size() - 3));
  {
    LoggedSession restarted;
    const auto stats = restarted.OpenWal(
        dir, {.segment_bytes = kTestSegmentBytes});
    ASSERT_FALSE(stats.ok());
    EXPECT_NE(stats.status().message().find("sealed"), std::string::npos)
        << stats.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

TEST(WalSegmentTest, CompactionCollapsesToOneFreshSegment) {
  const std::string dir = TempSegDir("wal_seg_compact");
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), 8, 50, 24);

  LoggedSession session;
  ASSERT_TRUE(session
                  .OpenWal(dir,
                                       {.segment_bytes = kTestSegmentBytes})
                  .ok());
  for (const std::string& frame : frames) {
    ASSERT_TRUE(session.HandleFrame(frame).ok());
  }
  const size_t before = SegmentFiles(dir).size();
  ASSERT_GT(before, 1u);
  ASSERT_TRUE(session.Compact().ok());

  // GC left exactly one segment — the fresh checkpoint segment, numbered
  // PAST the sealed run (the numbering never reuses a unlinked slot).
  const std::vector<std::string> files = SegmentFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  char expected[32];
  std::snprintf(expected, sizeof(expected), "wal-%08zu.ndwl", before + 1);
  EXPECT_EQ(files[0], expected);

  // The checkpoint replays to the exact pre-compaction state.
  LoggedSession restarted;
  const auto stats = restarted.OpenWal(
      dir, {.segment_bytes = kTestSegmentBytes});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->frames, 0u);
  EXPECT_EQ(stats->checkpoints, 1u);
  EXPECT_TRUE(SameState(session.ExportState(), restarted.ExportState()));
  std::filesystem::remove_all(dir);
}

// The exactly-once window survives BOTH recovery paths: frame replay
// re-claims each logged (epoch, seq), and compaction persists the window
// as a type-3 record that replay restores.
TEST(WalSegmentTest, DedupWindowSurvivesReplayAndCompaction) {
  const std::string dir = TempSegDir("wal_seg_dedup");
  std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), 4, 50, 25);
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(wire::StampSequenceContext(
                    &frames[i], {.epoch = 9, .seq = i + 1})
                    .ok());
  }

  LoggedSession session;
  ASSERT_TRUE(session
                  .OpenWal(dir,
                                       {.segment_bytes = kTestSegmentBytes})
                  .ok());
  for (const std::string& frame : frames) {
    serve::FrameOutcome outcome;
    ASSERT_TRUE(session.HandleFrame(frame, &outcome).ok());
    EXPECT_TRUE(outcome.absorbed);
    EXPECT_FALSE(outcome.duplicate);
  }

  // Path 1: crash before any compaction — frame replay re-claims seqs,
  // so a full client retransmission dedups to a no-op.
  {
    LoggedSession restarted;
    ASSERT_TRUE(restarted
                    .OpenWal(
                        dir, {.segment_bytes = kTestSegmentBytes})
                    .ok());
    const AccumulatorState recovered = restarted.ExportState();
    for (const std::string& frame : frames) {
      serve::FrameOutcome outcome;
      ASSERT_TRUE(restarted.HandleFrame(frame, &outcome).ok());
      EXPECT_TRUE(outcome.duplicate) << "replayed seq must be claimed";
      EXPECT_TRUE(outcome.has_seq);
      EXPECT_FALSE(outcome.absorbed);
    }
    EXPECT_TRUE(SameState(recovered, restarted.ExportState()));
  }

  // Path 2: compaction replaces the frame records with a checkpoint +
  // type-3 dedup record; the window must survive that representation too.
  ASSERT_TRUE(session.Compact().ok());
  {
    LoggedSession restarted;
    const auto stats = restarted.OpenWal(
        dir, {.segment_bytes = kTestSegmentBytes});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->seq_checkpoints, 1u);
    for (const std::string& frame : frames) {
      serve::FrameOutcome outcome;
      ASSERT_TRUE(restarted.HandleFrame(frame, &outcome).ok());
      EXPECT_TRUE(outcome.duplicate);
    }
    // A genuinely new sequence number still absorbs.
    std::vector<std::string> fresh =
        MakeReportFrames(TestSpec(), 1, 50, 26);
    ASSERT_TRUE(wire::StampSequenceContext(
                    &fresh[0],
                    {.epoch = 9, .seq = frames.size() + 1})
                    .ok());
    serve::FrameOutcome outcome;
    ASSERT_TRUE(restarted.HandleFrame(fresh[0], &outcome).ok());
    EXPECT_TRUE(outcome.absorbed);
    EXPECT_FALSE(outcome.duplicate);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace numdist
