// Write-ahead log guarantees (serve/wal.h): replaying ANY truncation of a
// log yields the state of an intact record prefix with a typed torn-tail
// error (never a crash, never garbage state), checkpoint compaction is
// state-preserving at every crash point, replay is deterministic, and
// tenant routing survives the log round trip. Every log is a segment
// directory; the WalTest cases use one unbounded segment, the
// WalSegmentTest cases small bounded ones. The cross-process SIGKILL
// variant of these claims lives in tests/wal_process_test.cc.
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

#include "common/bytes.h"
#include "data/datasets.h"
#include "kernels/kernels.h"
#include "net/server.h"
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

// A fresh (removed-then-absent) WAL directory path under TempDir.
std::string TempWalDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Segment `seq` of the log in `dir` (wal-00000001.ndwl, ...).
std::string SegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "/wal-%08llu.ndwl",
                static_cast<unsigned long long>(seq));
  return dir + name;
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

// Writes segment `seq` of the log in `dir`, creating the directory.
void WriteSegment(const std::string& dir, uint64_t seq,
                  const std::string& bytes) {
  std::filesystem::create_directories(dir);
  WriteFileBytes(SegmentPath(dir, seq), bytes);
}

// Total bytes of every segment in a WAL directory.
uint64_t LogBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    total += entry.file_size();
  }
  return total;
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

  // Absorbs `frames`, then logs the absorbed ones with one AppendFrames,
  // the way net::CollectorServer logs a reactor batch.
  Status HandleBatch(std::span<const std::string> frames) {
    std::vector<std::string_view> absorbed;
    for (const std::string& frame : frames) {
      serve::FrameOutcome outcome;
      NUMDIST_RETURN_NOT_OK(
          serve::CollectorSession::HandleFrame(frame, &outcome));
      if (outcome.absorbed) absorbed.push_back(frame);
    }
    return wal->AppendFrames(absorbed);
  }

  Status Compact() {
    NUMDIST_ASSIGN_OR_RETURN(const std::vector<std::string> sketches,
                             EncodeSketches());
    return wal->Compact(sketches, sequence_tracker()->Export());
  }

  std::optional<serve::WalLog> wal;
};

// Builds a frame-record-only log (no checkpoint) holding `frames`: one
// AppendFrame per frame, or with `batch` > 1 one AppendFrames per `batch`
// frames.
void BuildLog(const std::string& path, const std::vector<std::string>& frames,
              size_t batch = 1, const serve::WalOptions& options = {}) {
  std::filesystem::remove_all(path);
  LoggedSession session;
  auto stats = session.OpenWal(path, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (size_t first = 0; first < frames.size(); first += batch) {
    const Status st =
        batch == 1 ? session.HandleFrame(frames[first])
                   : session.HandleBatch(std::span(frames).subspan(
                         first, std::min(batch, frames.size() - first)));
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
// boundaries), and never hard-fail or crash. The log is built both frame
// by frame and in AppendFrames batches: a cut inside a batch keeps
// exactly the whole records before it.
TEST(WalTest, EveryByteTruncationYieldsAPrefixState) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames =
      MakeReportFrames(spec, /*shards=*/5, /*shard_size=*/20, /*seed=*/11);

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

  const std::string log_dir = TempWalDir("wal_sweep");
  const std::string cut_dir = TempWalDir("wal_sweep_cut");
  for (const size_t batch : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    BuildLog(log_dir, frames, batch);
    const std::string log_bytes = ReadFileBytes(SegmentPath(log_dir, 1));
    ASSERT_GT(log_bytes.size(), serve::kWalHeaderBytes);
    std::vector<bool> prefix_reached(frames.size() + 1, false);
    for (size_t len = 0; len <= log_bytes.size(); ++len) {
      WriteSegment(cut_dir, 1, log_bytes.substr(0, len));
      ReplayedSession replayed = Replay(cut_dir);
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
      EXPECT_TRUE(prefix_reached[k])
          << "no truncation replayed to prefix " << k;
    }
  }
  std::filesystem::remove_all(log_dir);
  std::filesystem::remove_all(cut_dir);
}

// AppendFrames writes the very bytes AppendFrame does, across more frames
// than one writev carries, in uneven batches, with sync_each_record on.
TEST(WalTest, BatchedAppendWritesTheSameLogByteForByte) {
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), /*shards=*/1200, /*shard_size=*/1,
                       /*seed=*/41);
  const std::string one_dir = TempWalDir("wal_batch_one");
  const std::string batch_dir = TempWalDir("wal_batch_many");
  BuildLog(one_dir, frames);
  BuildLog(batch_dir, frames, /*batch=*/700, {.sync_each_record = true});
  const std::string one = ReadFileBytes(SegmentPath(one_dir, 1));
  EXPECT_GT(one.size(), serve::kWalHeaderBytes);
  EXPECT_EQ(one, ReadFileBytes(SegmentPath(batch_dir, 1)));
  const ReplayedSession replayed = Replay(batch_dir);
  EXPECT_EQ(replayed.stats.frames, frames.size());
  EXPECT_TRUE(replayed.stats.tail.ok()) << replayed.stats.tail.ToString();
  std::filesystem::remove_all(one_dir);
  std::filesystem::remove_all(batch_dir);
}

// After recovery from a torn log, the writer truncates the tail and new
// appends extend the clean prefix — a second replay sees old + new frames.
TEST(WalTest, TornTailIsTruncatedBeforeNewAppends) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames =
      MakeReportFrames(spec, /*shards=*/4, /*shard_size=*/20, /*seed=*/5);

  const std::string path = TempWalDir("wal_torn_append");
  BuildLog(path, {frames[0], frames[1], frames[2]});
  std::string bytes = ReadFileBytes(SegmentPath(path, 1));
  // Cut inside the final record.
  WriteSegment(path, 1, bytes.substr(0, bytes.size() - 3));

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
  std::filesystem::remove_all(path);
}

// A flipped body byte fails the CRC: typed torn tail, prefix state kept.
TEST(WalTest, CorruptRecordIsATypedTornTail) {
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), /*shards=*/3, /*shard_size=*/20, /*seed=*/2);
  const std::string path = TempWalDir("wal_crc");
  BuildLog(path, frames);
  std::string bytes = ReadFileBytes(SegmentPath(path, 1));
  bytes[bytes.size() - 1] ^= 0x40;  // inside the last record's body
  WriteSegment(path, 1, bytes);

  ReplayedSession replayed = Replay(path);
  EXPECT_EQ(replayed.stats.frames, 2u);
  EXPECT_EQ(replayed.stats.tail.code(), StatusCode::kOutOfRange);
  EXPECT_NE(replayed.stats.tail.message().find("torn tail"),
            std::string::npos)
      << replayed.stats.tail.ToString();
  std::filesystem::remove_all(path);
}

// A zero-filled tail (preallocated blocks after a crash) cannot pass as a
// record: length 0 is classified as torn, even though CRC(empty) == 0.
TEST(WalTest, ZeroFilledTailIsATypedTornTail) {
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), /*shards=*/2, /*shard_size=*/20, /*seed=*/3);
  const std::string path = TempWalDir("wal_zeros");
  BuildLog(path, frames);
  std::string bytes = ReadFileBytes(SegmentPath(path, 1));
  const uint64_t clean = bytes.size();
  bytes.append(64, '\0');
  WriteSegment(path, 1, bytes);

  ReplayedSession replayed = Replay(path);
  EXPECT_EQ(replayed.stats.frames, 2u);
  EXPECT_EQ(replayed.stats.clean_bytes, clean);
  EXPECT_EQ(replayed.stats.tail.code(), StatusCode::kOutOfRange);
  std::filesystem::remove_all(path);
}

// Corruption a torn write cannot explain is a HARD error, not a tail:
// bad magic, version skew, and valid-CRC records whose content is
// malformed (each body below is sealed with its true length and CRC, so
// replay reaches the record decoders).
TEST(WalTest, BadMagicAndVersionSkewAreHardErrors) {
  const std::string dir = TempWalDir("wal_magic");
  serve::WalConsumer consumer;
  WriteSegment(dir, 1, std::string("XXXX\x01\x00\x00\x00", 8));
  auto bad_magic = serve::ReplayWal(dir, consumer);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), StatusCode::kInvalidArgument);

  WriteSegment(dir, 1, std::string("NDWL\x09\x00\x00\x00", 8));
  auto bad_version = serve::ReplayWal(dir, consumer);
  ASSERT_FALSE(bad_version.ok());
  EXPECT_EQ(bad_version.status().code(), StatusCode::kFailedPrecondition);

  const auto u32 = [](uint32_t v) {
    std::string out;
    ByteWriter(&out).PutU32(v);
    return out;
  };
  const auto u64 = [](uint64_t v) {
    std::string out;
    ByteWriter(&out).PutU64(v);
    return out;
  };
  const std::string checkpoint(1, '\x02');
  const std::string seq_checkpoint(1, '\x03');
  const std::vector<std::pair<std::string, std::string>> bodies = {
      {"unknown type byte", std::string(1, '\x07') + "abc"},
      {"checkpoint payload shorter than its count", checkpoint + "ab"},
      {"checkpoint sketch length past the payload",
       checkpoint + u32(1) + u32(100) + "abc"},
      {"trailing byte after a checkpoint payload", checkpoint + u32(0) + "x"},
      {"trailing byte after a seq payload", seq_checkpoint + u32(0) + "x"},
      {"seq entry count past the payload",
       seq_checkpoint + u32(5) + u64(1) + u64(2) + u32(0)},
      {"seq sparse count past the payload",
       seq_checkpoint + u32(1) + u64(1) + u64(2) + u32(10) + u64(3)},
  };
  for (const auto& [what, body] : bodies) {
    std::string segment("NDWL\x01\x00\x00\x00", 8);
    ByteWriter writer(&segment);
    writer.PutU32(static_cast<uint32_t>(body.size()));
    writer.PutU32(kernels::Crc32c(body));
    writer.PutBytes(body.data(), body.size());
    WriteSegment(dir, 1, segment);
    auto replayed = serve::ReplayWal(dir, consumer);
    ASSERT_FALSE(replayed.ok()) << what << " ended as a torn tail";
    EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << replayed.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

// A missing or empty directory is an empty log, not an error (first boot).
TEST(WalTest, MissingOrEmptyDirectoryIsAnEmptyLog) {
  const std::string dir = TempWalDir("wal_missing_never_created");
  serve::WalConsumer consumer;
  for (const bool exists : {false, true}) {
    if (exists) std::filesystem::create_directory(dir);
    auto stats = serve::ReplayWal(dir, consumer);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().frames, 0u);
    EXPECT_EQ(stats.value().segments, 0u);
    EXPECT_EQ(stats.value().clean_bytes, 0u);
    EXPECT_TRUE(stats.value().tail.ok());
  }
  std::filesystem::remove_all(dir);
}

// A regular file where the log directory belongs is refused with a typed
// error naming where it goes; a log written in the single-file layout is
// byte-identical to a segment, so once moved there it replays as-is.
TEST(WalTest, RegularFileIsRefusedUntilMovedIntoTheDirectory) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames =
      MakeReportFrames(spec, /*shards=*/3, /*shard_size=*/20, /*seed=*/12);
  const std::string dir = TempWalDir("wal_migrate");
  BuildLog(dir, frames);
  const std::string log_bytes = ReadFileBytes(SegmentPath(dir, 1));
  const std::string sketch = Replay(dir).session.EncodeSketch().ValueOrDie();
  std::filesystem::remove_all(dir);
  WriteFileBytes(dir, log_bytes);

  const auto refused = serve::ReplayWal(dir, {});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find(SegmentPath(dir, 1)),
            std::string::npos)
      << refused.status().ToString();
  LoggedSession opener(spec);
  const auto open = opener.OpenWal(dir);
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadFileBytes(dir), log_bytes) << "a refused open must not write";

  std::filesystem::rename(dir, dir + ".old");
  std::filesystem::create_directory(dir);
  std::filesystem::rename(dir + ".old", SegmentPath(dir, 1));
  ReplayedSession moved = Replay(dir);
  EXPECT_EQ(moved.stats.frames, frames.size());
  EXPECT_TRUE(moved.stats.tail.ok()) << moved.stats.tail.ToString();
  EXPECT_EQ(moved.session.EncodeSketch().ValueOrDie(), sketch);
  std::filesystem::remove_all(dir);
}

// "DIR/" names the same log as "DIR". Open creates the directory either
// way; with sync_each_record it also syncs the parent's entry for it (not
// DIR itself), an fsync no in-process test can observe but this one runs.
TEST(WalTest, TrailingSlashNamesTheSameDirectory) {
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), /*shards=*/2, /*shard_size=*/20, /*seed=*/13);
  const std::string dir = TempWalDir("wal_slash");
  {
    LoggedSession session;
    ASSERT_TRUE(session.OpenWal(dir + "/", {.sync_each_record = true}).ok());
    for (const std::string& frame : frames) {
      ASSERT_TRUE(session.HandleFrame(frame).ok());
    }
  }
  ReplayedSession replayed = Replay(dir);
  EXPECT_EQ(replayed.stats.frames, frames.size());
  EXPECT_EQ(replayed.stats.segments, 1u);
  std::filesystem::remove_all(dir);
}

// Compaction (checkpoint + truncate) replays to the identical state, and
// frames appended after the checkpoint replay on top of it. (The periodic
// cadence belongs to net::CollectorServer; tests/net_test.cc covers it.)
TEST(WalTest, CheckpointCompactionPreservesState) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames =
      MakeReportFrames(spec, /*shards=*/6, /*shard_size=*/20, /*seed=*/17);
  const std::string plain_path = TempWalDir("wal_plain");
  const std::string compact_path = TempWalDir("wal_compact");

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
  EXPECT_LT(LogBytes(compact_path),
            LogBytes(plain_path) + frames.back().size());
  std::filesystem::remove_all(plain_path);
  std::filesystem::remove_all(compact_path);
}

// Replay is deterministic: for several seeds, two independent replays of
// the same log produce byte-identical sketches.
TEST(WalTest, ReplayIsDeterministicAcrossSeeds) {
  const wire::MethodSpec spec = TestSpec();
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<std::string> frames =
        MakeReportFrames(spec, /*shards=*/4, /*shard_size=*/25, seed);
    const std::string path = TempWalDir("wal_seed_" + std::to_string(seed));
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
    std::filesystem::remove_all(path);
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

  const std::string path = TempWalDir("wal_tenants");
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
  std::filesystem::remove_all(path);
}

// Budget accounting is restored from the log: a tenant that exhausted its
// budget before the crash is still over budget after recovery.
TEST(WalTest, BudgetsAreRestoredByReplay) {
  const wire::MethodSpec spec = TestSpec();
  const std::vector<std::string> frames = MakeReportFrames(
      spec, /*shards=*/2, /*shard_size=*/20, /*seed=*/4, /*tenant=*/3);
  const std::string path = TempWalDir("wal_budget");

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
  std::filesystem::remove_all(path);
}

// ---------------------------------------------------------------------------
// Bounded segments (WalOptions::segment_bytes > 0): rotation, replay
// across a multi-segment run, the hardened gap / sealed-torn taxonomy,
// compaction GC at every crash point, and the exactly-once dedup-window
// checkpoint.

std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// Small segments so a handful of report frames forces several rotations.
constexpr uint64_t kTestSegmentBytes = 256;

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
  const std::string dir = TempWalDir("wal_seg_rotate");
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

// Frame records in one segment file, walked by their length fields.
size_t CountRecords(const std::string& segment) {
  size_t count = 0;
  for (size_t off = serve::kWalHeaderBytes; off + 8 <= segment.size();
       ++count) {
    off += 8 + ByteReader(std::string_view(segment).substr(off, 4))
                   .U32()
                   .ValueOrDie();
  }
  return count;
}

// With segments smaller than one batch, each batch still lands whole in
// one segment: the writer seals only after a batch's last record.
TEST(WalSegmentTest, BatchSealsItsSegmentOnlyAfterItsLastRecord) {
  const std::string dir = TempWalDir("wal_seg_batch");
  const std::vector<std::string> frames =
      MakeReportFrames(TestSpec(), /*shards=*/10, /*shard_size=*/50,
                       /*seed=*/23);
  // Frame by frame, a segment would seal after three records; a batch of
  // four outgrows it, and the final batch of two does not fill it.
  const uint64_t record = 9 + frames[0].size();
  ASSERT_LT(serve::kWalHeaderBytes + 2 * record, kTestSegmentBytes);
  ASSERT_GE(serve::kWalHeaderBytes + 3 * record, kTestSegmentBytes);
  LoggedSession session;
  ASSERT_TRUE(session.OpenWal(dir, {.segment_bytes = kTestSegmentBytes}).ok());
  constexpr size_t kBatch = 4;
  for (size_t first = 0; first < frames.size(); first += kBatch) {
    const Status st = session.HandleBatch(std::span(frames).subspan(
        first, std::min(kBatch, frames.size() - first)));
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  const std::vector<std::string> files = SegmentFiles(dir);
  std::vector<size_t> records;
  for (const std::string& file : files) {
    records.push_back(CountRecords(ReadFileBytes(dir + "/" + file)));
  }
  EXPECT_EQ(records, (std::vector<size_t>{4, 4, 2}));

  LoggedSession restarted;
  auto stats = restarted.OpenWal(dir, {.segment_bytes = kTestSegmentBytes});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->frames, frames.size());
  EXPECT_TRUE(stats->tail.ok()) << stats->tail.ToString();
  EXPECT_TRUE(SameState(session.ExportState(), restarted.ExportState()));
  std::filesystem::remove_all(dir);
}

TEST(WalSegmentTest, NumberingGapIsAHardError) {
  const std::string dir = TempWalDir("wal_seg_gap");
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
  const std::string dir = TempWalDir("wal_seg_torn");
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
  const std::string dir = TempWalDir("wal_seg_compact");
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

// Compaction without a rename: a crash at ANY byte of the checkpoint
// segment while the old run is still present is an ordinary torn tail over
// that run, a crash anywhere in the oldest-first GC leaves a suffix of the
// run ahead of the checkpoint segment, and after GC the checkpoint segment
// replays alone. Every case recovers the pre-compaction sketch and dedup
// window: each stamped frame re-sent comes back as a duplicate.
TEST(WalSegmentTest, CompactionCrashAtAnyPointKeepsSketchAndDedupWindow) {
  const std::string dir = TempWalDir("wal_seg_compact_crash");
  std::vector<std::string> frames = MakeReportFrames(TestSpec(), 6, 50, 27);
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(wire::StampSequenceContext(
                    &frames[i], {.epoch = 4, .seq = i + 1})
                    .ok());
  }
  const serve::WalOptions options{.segment_bytes = kTestSegmentBytes};
  LoggedSession live;
  ASSERT_TRUE(live.OpenWal(dir, options).ok());
  for (const std::string& frame : frames) {
    ASSERT_TRUE(live.HandleFrame(frame).ok());
  }
  // The old run, byte for byte, before compaction unlinks it.
  std::vector<std::pair<std::string, std::string>> old_run;
  for (const std::string& name : SegmentFiles(dir)) {
    old_run.emplace_back(name, ReadFileBytes(dir + "/" + name));
  }
  ASSERT_GT(old_run.size(), 1u);
  const std::vector<std::string> sketches = live.EncodeSketches().ValueOrDie();
  const std::vector<serve::WalSeqEntry> window =
      live.sequence_tracker()->Export();
  ASSERT_EQ(window.size(), 1u);
  ASSERT_TRUE(live.Compact().ok());
  const std::vector<std::string> compacted = SegmentFiles(dir);
  ASSERT_EQ(compacted.size(), 1u);
  const std::string checkpoint = ReadFileBytes(dir + "/" + compacted[0]);

  const auto expect_recovers = [&](const std::string& crash_dir,
                                   const std::string& what) {
    LoggedSession restarted;
    const auto stats = restarted.OpenWal(crash_dir, options);
    ASSERT_TRUE(stats.ok()) << what << ": " << stats.status().ToString();
    EXPECT_EQ(restarted.EncodeSketches().ValueOrDie(), sketches) << what;
    const std::vector<serve::WalSeqEntry> got =
        restarted.sequence_tracker()->Export();
    ASSERT_EQ(got.size(), 1u) << what;
    EXPECT_EQ(got[0].epoch, window[0].epoch) << what;
    EXPECT_EQ(got[0].floor, window[0].floor) << what;
    EXPECT_EQ(got[0].sparse, window[0].sparse) << what;
    for (const std::string& frame : frames) {
      serve::FrameOutcome outcome;
      ASSERT_TRUE(restarted.HandleFrame(frame, &outcome).ok()) << what;
      EXPECT_TRUE(outcome.duplicate) << what;
    }
  };
  const std::string crash_dir = TempWalDir("wal_seg_compact_crash_cut");
  std::filesystem::create_directory(crash_dir);
  for (const auto& [name, bytes] : old_run) {
    WriteFileBytes(crash_dir + "/" + name, bytes);
  }
  for (size_t len = 0; len <= checkpoint.size(); ++len) {
    WriteFileBytes(crash_dir + "/" + compacted[0], checkpoint.substr(0, len));
    expect_recovers(crash_dir,
                    "checkpoint segment cut at " + std::to_string(len));
  }
  // GC unlinks oldest-first; the last step leaves the checkpoint alone.
  for (const auto& [name, bytes] : old_run) {
    ASSERT_TRUE(std::filesystem::remove(crash_dir + "/" + name));
    expect_recovers(crash_dir, "GC past " + name);
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(crash_dir);
}

// ReplayWal beside a live writer: a compaction that unlinks the old run
// mid-replay (here from inside the replay's first frame callback) makes
// the replay go on past the vanished segments, and the checkpoint segment
// ahead brings it to the live state.
TEST(WalSegmentTest, ReplayBesideALiveCompactionEndsInTheCheckpoint) {
  const std::string dir = TempWalDir("wal_seg_live_compact");
  LoggedSession live;
  ASSERT_TRUE(live.OpenWal(dir, {.segment_bytes = kTestSegmentBytes}).ok());
  for (const std::string& frame : MakeReportFrames(TestSpec(), 8, 50, 28)) {
    ASSERT_TRUE(live.HandleFrame(frame).ok());
  }
  ASSERT_GT(SegmentFiles(dir).size(), 2u);

  serve::CollectorSession reader =
      serve::CollectorSession::Make(TestSpec()).ValueOrDie();
  serve::WalConsumer consumer = reader.ReplayConsumer();
  const auto absorb = consumer.on_frame;
  bool compacted = false;
  consumer.on_frame = [&](std::string_view frame) {
    if (!compacted) {
      compacted = true;
      EXPECT_TRUE(live.Compact().ok());
    }
    return absorb(frame);
  };
  const auto stats = serve::ReplayWal(dir, consumer);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(compacted);
  EXPECT_EQ(stats->checkpoints, 1u);
  EXPECT_EQ(reader.EncodeSketch().ValueOrDie(),
            live.EncodeSketch().ValueOrDie());
  std::filesystem::remove_all(dir);
}

// The exactly-once window survives BOTH recovery paths: frame replay
// re-claims each logged (epoch, seq), and compaction persists the window
// as a type-3 record that replay restores.
TEST(WalSegmentTest, DedupWindowSurvivesReplayAndCompaction) {
  const std::string dir = TempWalDir("wal_seg_dedup");
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

// Opens the log in `dir` as a session and as a collector, both of which
// must refuse it with the wire layer's version skew naming `version 1`
// and this build's version, and leave every segment as it was: the
// refusal comes during replay, before the writer could truncate a torn
// tail. CollectorServer::Make opens its log through WalLog::Open.
void ExpectVersionOneLogRefused(const std::string& dir) {
  const std::vector<std::string> files = SegmentFiles(dir);
  // A torn tail the writer would cut if it opened the log.
  const std::string last = dir + "/" + files.back();
  WriteFileBytes(last, ReadFileBytes(last) + std::string("\x05\x00", 2));
  std::vector<std::string> before;
  for (const std::string& file : files) {
    before.push_back(ReadFileBytes(dir + "/" + file));
  }
  const auto expect_untouched = [&](const char* who) {
    EXPECT_EQ(SegmentFiles(dir), files) << who;
    for (size_t i = 0; i < files.size(); ++i) {
      EXPECT_EQ(ReadFileBytes(dir + "/" + files[i]), before[i])
          << who << " changed " << files[i];
    }
  };

  LoggedSession session;
  const auto opened =
      session.OpenWal(dir, {.segment_bytes = kTestSegmentBytes});
  ASSERT_FALSE(opened.ok());
  const Status& st = opened.status();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_NE(st.message().find("version 1"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("version " + std::to_string(wire::kVersion)),
            std::string::npos)
      << st.ToString();
  expect_untouched("WalLog::Open");

  net::ServerOptions options;
  options.wal_path = dir;
  options.wal.segment_bytes = kTestSegmentBytes;
  const auto server = net::CollectorServer::Make(TestSpec(), options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kFailedPrecondition);
  expect_untouched("CollectorServer::Make");
}

// A version-1 build logged SW reports as f64 frames, which this build
// cannot read: its frame records and its checkpoint sketch frames both
// carry version 1 in their preamble.
TEST(WalSegmentTest, VersionOneLogIsRefusedAndLeftUntouched) {
  std::vector<std::string> frames = MakeReportFrames(TestSpec(), 8, 50, 27);
  LoggedSession live;
  for (const std::string& frame : frames) {
    ASSERT_TRUE(live.CollectorSession::HandleFrame(frame).ok());
  }
  std::vector<std::string> sketches = live.EncodeSketches().ValueOrDie();
  for (std::string& frame : frames) frame[4] = 1;  // preamble version
  for (std::string& sketch : sketches) sketch[4] = 1;

  const std::string frame_dir = TempWalDir("wal_seg_v1_frames");
  {
    auto log = serve::WalLog::Open(frame_dir,
                                   {.segment_bytes = kTestSegmentBytes},
                                   serve::WalConsumer{});
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (const std::string& frame : frames) {
      ASSERT_TRUE(log->AppendFrame(frame).ok());
    }
  }
  ASSERT_GT(SegmentFiles(frame_dir).size(), 1u);
  ExpectVersionOneLogRefused(frame_dir);
  std::filesystem::remove_all(frame_dir);

  const std::string checkpoint_dir = TempWalDir("wal_seg_v1_checkpoint");
  {
    auto log = serve::WalLog::Open(checkpoint_dir,
                                   {.segment_bytes = kTestSegmentBytes},
                                   serve::WalConsumer{});
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE(log->Compact(sketches, {}).ok());
  }
  ExpectVersionOneLogRefused(checkpoint_dir);
  std::filesystem::remove_all(checkpoint_dir);
}

}  // namespace
}  // namespace numdist
