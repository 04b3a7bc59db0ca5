// Write-ahead snapshot log: the collector's crash-recovery substrate.
//
// A collector with a WAL attached appends every ACCEPTED report/sketch
// frame to an append-only log before acknowledging it, and periodically
// compacts the log down to a checkpoint record holding its per-tenant
// sketch frames. A collector killed at ANY byte offset — SIGKILL
// mid-write included — replays the log's clean prefix on restart and
// resumes with the exact pre-crash AccumulatorState: frames are absorbed
// in log order and accumulator arithmetic is exact integers, so the
// restarted aggregate is byte-identical to an uninterrupted run over the
// same frames (tests/wal_process_test.cc proves this across real
// processes).
//
// Layout: the log is a DIRECTORY of segment files named
// wal-00000001.ndwl, wal-00000002.ndwl, ... Each segment is one NDWL file
// (all integers little-endian; docs/WIRE_FORMAT.md has the byte-level
// spec):
//
//   header   u32 magic "NDWL", u16 version (1), u16 reserved (0)
//   record   u32 body length, u32 CRC-32C of body, body
//   body     u8 record type, payload
//     type 1 (frame)       payload = one wire frame (report or sketch)
//     type 2 (checkpoint)  payload = u32 sketch count, then per sketch a
//                          u32 length + that many bytes (one wire sketch
//                          frame per tenant; replay RESETS to this state)
//     type 3 (seq ckpt)    payload = the collector's exactly-once dedup
//                          window (u32 entry count, then per entry a u64
//                          epoch, u64 floor, u32 sparse count, and that
//                          many u64 sequence numbers; replay RESETS the
//                          window to this state)
//
// The writer appends to the highest-numbered segment. With
// WalOptions::segment_bytes > 0 it seals (fsyncs) the active segment once
// it reaches that size and opens the next; 0 means one unbounded
// segment. Compaction is a rotation whose fresh segment starts with the
// checkpoint: the segment is written and fsynced and its dirent synced,
// then all older segments are unlinked oldest-first, so a crash at any
// point leaves a contiguous run whose replay ends in the checkpointed
// state (a cut inside the checkpoint segment is an ordinary torn tail
// over the intact older run).
//
// Failure model: the log tolerates truncation and bit rot at the tail of
// its FINAL segment — a record cut short or failing its CRC ends replay
// with a typed error in WalReplayStats::tail, the intact prefix's state is
// kept, and the writer truncates the torn tail before appending (so a
// crashed write is discarded, never replayed as garbage). Corruption that
// a torn write cannot explain (a gap in the segment numbering, a torn
// record in a sealed segment, bad file magic, a valid-CRC record with an
// unknown type or malformed checkpoint payload) is a hard replay error
// instead. Without sync_each_record the log survives process death (page
// cache); power-loss durability needs sync_each_record = true.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace numdist::serve {

/// First 4 bytes of every WAL segment: "NDWL" on disk.
inline constexpr uint32_t kWalMagic = 0x4C57444E;
inline constexpr uint16_t kWalVersion = 1;
/// Bytes of the segment header preceding the first record.
inline constexpr uint64_t kWalHeaderBytes = 8;
/// Per-record body ceiling: a frame record holds at most one
/// kMaxFrameBytes frame, a checkpoint at most a handful of sketches.
/// A larger claimed length is classified as a torn/corrupt record.
inline constexpr uint64_t kMaxWalRecordBytes = 256u << 20;

/// Record discriminator (first body byte). Values are part of the on-disk
/// format: never renumber, only append.
enum class WalRecordType : uint8_t {
  kFrame = 1,       ///< One accepted wire frame, verbatim.
  kCheckpoint = 2,  ///< Full-state snapshot: replay resets, then imports.
  kSeqCheckpoint = 3,  ///< Dedup-window snapshot: replay resets the window.
};

struct WalOptions {
  /// Compact the log (checkpoint + GC) after this many appended frame
  /// records (0 = only compact when the owner asks, e.g. at drain).
  uint64_t checkpoint_every_frames = 0;
  /// fsync every appended record before its append call returns
  /// (power-loss durability): AppendFrames fsyncs once for its whole
  /// batch — group commit, so a collector fsyncs once per reactor batch,
  /// before any ack of it. Off by default: surviving process death needs
  /// no fsync, only the page cache.
  bool sync_each_record = false;
  /// Seal the active segment once it reaches this many bytes and open the
  /// next (0 = one unbounded segment). A size bound only: the layout is
  /// the same segment directory either way.
  uint64_t segment_bytes = 0;
};

/// One client epoch's exactly-once dedup state as checkpointed in a
/// type-3 record: every sequence number <= `floor` has been absorbed,
/// plus the out-of-order `sparse` set above the floor.
struct WalSeqEntry {
  uint64_t epoch = 0;
  uint64_t floor = 0;
  std::vector<uint64_t> sparse;
};

/// What a replay pass found. `tail` is OK when the final segment ends
/// exactly on a record boundary; otherwise it is the typed torn-tail
/// error (truncation or CRC mismatch) and `clean_bytes` is where the final
/// segment's intact prefix ends — the offset WalLog::Open truncates to
/// before appending.
struct WalReplayStats {
  uint64_t frames = 0;
  uint64_t checkpoints = 0;
  uint64_t seq_checkpoints = 0;
  uint64_t clean_bytes = 0;
  /// Segment files replayed.
  uint64_t segments = 0;
  Status tail = Status::OK();
};

/// Replay callbacks. `on_frame` receives each logged frame verbatim;
/// `on_checkpoint` receives the checkpoint's sketch frames and must RESET
/// the consumer's state to them (not merge — a mid-log checkpoint already
/// contains every earlier frame's contribution); `on_seq_checkpoint`
/// likewise RESETS the consumer's dedup window. A callback error aborts
/// the replay with that error.
struct WalConsumer {
  std::function<Status(std::string_view frame)> on_frame;
  std::function<Status(const std::vector<std::string>& sketches)>
      on_checkpoint;
  std::function<Status(const std::vector<WalSeqEntry>& entries)>
      on_seq_checkpoint;
};

/// Replays the segment directory at `path` through `consumer`, read-only:
/// lists the segments, refuses a numbering gap, and walks them in order,
/// allowing a torn tail only in the final segment. A missing or empty
/// directory is an empty log (zero records, OK tail); a regular file at
/// `path` is InvalidArgument (a log from the old single-file layout
/// replays as-is once moved to `path`/wal-00000001.ndwl). Safe beside a
/// live writer: when its compaction unlinks a segment before the replay
/// reaches it, the replay goes on past it and the checkpoint segment ahead
/// resets the state. See WalReplayStats for the torn-tail contract.
Result<WalReplayStats> ReplayWal(const std::string& path,
                                 const WalConsumer& consumer);

/// \brief The collector's write-ahead log: replays existing state through
/// `consumer`, then appends to the final segment at its clean prefix.
class WalLog {
 public:
  /// Creates the directory at `path` when missing (syncing its parent when
  /// sync_each_record asks for power-loss durability), replays it through
  /// `consumer` exactly as ReplayWal does, then opens the final segment for
  /// appending at the replay's clean prefix — truncating any torn tail — or
  /// creates segment 1 for a fresh log. Replay findings are kept in
  /// recovery().
  static Result<WalLog> Open(const std::string& path,
                             const WalOptions& options,
                             const WalConsumer& consumer);
  ~WalLog();
  WalLog(WalLog&& other) noexcept;
  WalLog& operator=(WalLog&&) = delete;

  /// Appends one accepted wire frame as a frame record; AppendFrames of
  /// that one frame.
  Status AppendFrame(std::string_view frame);

  /// Appends `frames` as frame records, in order, with one writev(2) per
  /// 512 records; the bytes are identical to appending them one by one.
  /// With sync_each_record, fsyncs once before returning. Seals the
  /// active segment and opens the next once it reaches segment_bytes,
  /// checked after the last record, so a batch never straddles two
  /// segments.
  Status AppendFrames(std::span<const std::string_view> frames);

  /// Compaction: starts a fresh segment holding one checkpoint record
  /// with `sketches` (plus a type-3 record with `seqs` when non-empty),
  /// fsyncs it and its dirent, then unlinks every older segment
  /// oldest-first. After Compact the log replays to exactly the
  /// checkpointed state. An error from Compact or AppendFrame is fatal:
  /// the owner stops appending, and the log on disk still replays to a
  /// state it held.
  Status Compact(const std::vector<std::string>& sketches,
                 const std::vector<WalSeqEntry>& seqs = {});

  /// fsyncs the active segment.
  Status Sync();

  /// What replay found when this log was opened.
  const WalReplayStats& recovery() const { return recovery_; }
  /// Bytes in the active segment (header + intact records).
  uint64_t bytes() const { return bytes_; }

 private:
  WalLog() = default;

  /// Makes segment `seq` the active one, opened for appending at
  /// `resume_at` (truncating past it); below the header size the segment
  /// is (re)initialized with a fresh header.
  Status OpenSegment(uint64_t seq, uint64_t resume_at);
  Status Write(std::string_view bytes);

  std::string dir_;
  WalOptions options_;
  WalReplayStats recovery_;
  /// The active segment's descriptor; -1 after a move.
  int fd_ = -1;
  uint64_t bytes_ = 0;
  /// Oldest live and active (highest) segment numbers; 1-based.
  uint64_t first_seq_ = 0;
  uint64_t active_seq_ = 0;
};

}  // namespace numdist::serve
