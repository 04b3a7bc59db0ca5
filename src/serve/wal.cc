#include "serve/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "kernels/kernels.h"

namespace numdist::serve {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal("wal: " + what + " failed (" +
                          std::strerror(errno) + ")");
}

// Writes every byte of the `count` iovecs at `iov` with writev(2),
// resuming after a short write; consumes the iovecs in place.
Status WriteAllFd(int fd, iovec* iov, int count) {
  while (count > 0) {
    const ssize_t wrote = writev(fd, iov, count);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    size_t left = static_cast<size_t>(wrote);
    for (; count > 0 && left >= iov->iov_len; ++iov, --count) {
      left -= iov->iov_len;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::OK();
}

// Frame records per writev(2) in WalLog::AppendFrames: two iovecs each
// (record head, frame), within Linux's IOV_MAX of 1024. Bounds the
// staging memory of a batch of any size.
constexpr size_t kRecordsPerWrite = 512;
// A frame record's head: u32 body length, u32 CRC-32C, the type byte.
constexpr size_t kFrameRecordHeadBytes = 9;

// Reads exactly `len` bytes unless EOF intervenes; returns bytes read.
Result<size_t> ReadUpTo(int fd, char* dst, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t got = read(fd, dst + off, len - off);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    if (got == 0) break;
    off += static_cast<size_t>(got);
  }
  return off;
}

void AppendHeader(std::string* out) {
  ByteWriter writer(out);
  writer.PutU32(kWalMagic);
  writer.PutU16(kWalVersion);
  writer.PutU16(0);
}

// Record = u32 body length, u32 CRC-32C(body), body.
void AppendRecord(std::string_view body, std::string* out) {
  ByteWriter writer(out);
  writer.PutU32(static_cast<uint32_t>(body.size()));
  writer.PutU32(kernels::Crc32c(body));
  writer.PutBytes(body.data(), body.size());
}

std::string CheckpointBody(const std::vector<std::string>& sketches) {
  std::string body;
  ByteWriter writer(&body);
  writer.PutU8(static_cast<uint8_t>(WalRecordType::kCheckpoint));
  writer.PutU32(static_cast<uint32_t>(sketches.size()));
  for (const std::string& sketch : sketches) {
    writer.PutU32(static_cast<uint32_t>(sketch.size()));
    writer.PutBytes(sketch.data(), sketch.size());
  }
  return body;
}

std::string SeqCheckpointBody(const std::vector<WalSeqEntry>& entries) {
  std::string body;
  ByteWriter writer(&body);
  writer.PutU8(static_cast<uint8_t>(WalRecordType::kSeqCheckpoint));
  writer.PutU32(static_cast<uint32_t>(entries.size()));
  for (const WalSeqEntry& entry : entries) {
    writer.PutU64(entry.epoch);
    writer.PutU64(entry.floor);
    writer.PutU32(static_cast<uint32_t>(entry.sparse.size()));
    for (uint64_t seq : entry.sparse) writer.PutU64(seq);
  }
  return body;
}

// The torn-tail taxonomy: truncation and checksum failures are what a
// crashed write leaves behind, so they end replay with the prefix state
// instead of failing it.
Status TornTail(uint64_t offset, const std::string& why) {
  return Status::OutOfRange("wal: torn tail at byte " +
                            std::to_string(offset) + ": " + why);
}

// A valid-CRC record whose payload does not decode is corruption a torn
// write cannot explain, so a short field is InvalidArgument here too, never
// the OutOfRange that marks a torn tail.
Status Malformed(const Status& decoded) {
  return decoded.ok() ? decoded : Status::InvalidArgument(decoded.message());
}

Status DecodeCheckpointBody(std::string_view payload,
                            std::vector<std::string>* sketches) {
  ByteReader in(payload);
  NUMDIST_ASSIGN_OR_RETURN(const uint32_t count, in.U32());
  sketches->clear();
  sketches->reserve(std::min<size_t>(count, in.remaining() / 4));
  for (uint32_t i = 0; i < count; ++i) {
    NUMDIST_ASSIGN_OR_RETURN(const uint32_t len, in.U32());
    if (len > in.remaining()) {
      return Status::InvalidArgument(
          "wal: checkpoint sketch length exceeds the record payload");
    }
    std::string sketch(len, '\0');
    NUMDIST_RETURN_NOT_OK(in.Bytes(sketch.data(), len));
    sketches->push_back(std::move(sketch));
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument(
        "wal: trailing byte(s) after checkpoint payload");
  }
  return Status::OK();
}

Status DecodeSeqCheckpointBody(std::string_view payload,
                               std::vector<WalSeqEntry>* entries) {
  ByteReader in(payload);
  NUMDIST_ASSIGN_OR_RETURN(const uint32_t count, in.U32());
  entries->clear();
  // Each entry needs at least its epoch/floor/count fields (20 bytes);
  // bound before reserving so a hostile count cannot drive allocation.
  if (count > in.remaining() / 20) {
    return Status::InvalidArgument(
        "wal: seq checkpoint entry count exceeds the record payload");
  }
  entries->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WalSeqEntry entry;
    NUMDIST_ASSIGN_OR_RETURN(entry.epoch, in.U64());
    NUMDIST_ASSIGN_OR_RETURN(entry.floor, in.U64());
    NUMDIST_ASSIGN_OR_RETURN(const uint32_t sparse_count, in.U32());
    if (sparse_count > in.remaining() / sizeof(uint64_t)) {
      return Status::InvalidArgument(
          "wal: seq checkpoint sparse count exceeds the record payload");
    }
    entry.sparse.reserve(sparse_count);
    for (uint32_t j = 0; j < sparse_count; ++j) {
      NUMDIST_ASSIGN_OR_RETURN(const uint64_t seq, in.U64());
      entry.sparse.push_back(seq);
    }
    entries->push_back(std::move(entry));
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument(
        "wal: trailing byte(s) after seq checkpoint payload");
  }
  return Status::OK();
}

// Replays one segment, already open at offset 0, from its header on.
Result<WalReplayStats> ReplaySegment(int fd, const std::string& path,
                                     const WalConsumer& consumer) {
  WalReplayStats stats;
  char header[kWalHeaderBytes];
  NUMDIST_ASSIGN_OR_RETURN(const size_t header_got,
                           ReadUpTo(fd, header, sizeof(header)));
  if (header_got == 0) return stats;  // empty segment: empty history
  if (header_got < sizeof(header)) {
    stats.tail = TornTail(0, "segment shorter than the file header");
    return stats;
  }
  {
    ByteReader in(std::string_view(header, sizeof(header)));
    const uint32_t magic = in.U32().ValueOrDie();
    const uint16_t version = in.U16().ValueOrDie();
    if (magic != kWalMagic) {
      return Status::InvalidArgument(
          "wal: bad magic in '" + path + "' (not a numdist WAL)");
    }
    if (version != kWalVersion) {
      return Status::FailedPrecondition(
          "wal: unsupported WAL version " + std::to_string(version) +
          " (this build reads version " + std::to_string(kWalVersion) + ")");
    }
  }
  stats.clean_bytes = kWalHeaderBytes;

  std::string body;
  std::vector<std::string> sketches;
  std::vector<WalSeqEntry> seq_entries;
  for (;;) {
    char record_header[8];
    NUMDIST_ASSIGN_OR_RETURN(const size_t got,
                             ReadUpTo(fd, record_header, sizeof(record_header)));
    if (got == 0) break;  // clean record boundary
    if (got < sizeof(record_header)) {
      stats.tail = TornTail(stats.clean_bytes, "record header cut short");
      return stats;
    }
    ByteReader in(std::string_view(record_header, sizeof(record_header)));
    const uint32_t len = in.U32().ValueOrDie();
    const uint32_t crc = in.U32().ValueOrDie();
    if (len == 0) {
      // A zero length with a zero CRC is exactly what a zero-filled
      // (preallocated) tail reads as; classify it as torn, not as a
      // record.
      stats.tail = TornTail(stats.clean_bytes, "empty record body");
      return stats;
    }
    if (len > kMaxWalRecordBytes) {
      stats.tail = TornTail(stats.clean_bytes,
                            "record length " + std::to_string(len) +
                                " exceeds the record ceiling");
      return stats;
    }
    body.resize(len);
    NUMDIST_ASSIGN_OR_RETURN(const size_t body_got,
                             ReadUpTo(fd, body.data(), len));
    if (body_got < len) {
      stats.tail = TornTail(stats.clean_bytes, "record body cut short");
      return stats;
    }
    if (kernels::Crc32c(body) != crc) {
      stats.tail = TornTail(stats.clean_bytes, "record CRC mismatch");
      return stats;
    }
    // From here the record is intact: malformed content is corruption a
    // torn write cannot explain, and therefore a hard error.
    const auto type = static_cast<WalRecordType>(
        static_cast<uint8_t>(body[0]));
    const std::string_view payload(body.data() + 1, body.size() - 1);
    switch (type) {
      case WalRecordType::kFrame:
        if (consumer.on_frame) {
          NUMDIST_RETURN_NOT_OK(consumer.on_frame(payload));
        }
        ++stats.frames;
        break;
      case WalRecordType::kCheckpoint:
        NUMDIST_RETURN_NOT_OK(
            Malformed(DecodeCheckpointBody(payload, &sketches)));
        if (consumer.on_checkpoint) {
          NUMDIST_RETURN_NOT_OK(consumer.on_checkpoint(sketches));
        }
        ++stats.checkpoints;
        break;
      case WalRecordType::kSeqCheckpoint:
        NUMDIST_RETURN_NOT_OK(
            Malformed(DecodeSeqCheckpointBody(payload, &seq_entries)));
        if (consumer.on_seq_checkpoint) {
          NUMDIST_RETURN_NOT_OK(consumer.on_seq_checkpoint(seq_entries));
        }
        ++stats.seq_checkpoints;
        break;
      default:
        return Status::InvalidArgument(
            "wal: unknown record type " +
            std::to_string(static_cast<int>(type)) + " at byte " +
            std::to_string(stats.clean_bytes) + " of '" + path + "'");
    }
    stats.clean_bytes += sizeof(record_header) + len;
  }
  return stats;
}

// Segment files are named wal-00000001.ndwl, wal-00000002.ndwl, ...;
// numbering is 1-based and zero-padded so lexicographic order matches
// numeric order for the first hundred million segments.
std::string SegmentFileName(uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.ndwl",
                static_cast<unsigned long long>(seq));
  return name;
}

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  return dir + "/" + SegmentFileName(seq);
}

// Parses "wal-<digits>.ndwl" → segment number; 0 for anything else
// (segment numbers are 1-based, so 0 doubles as "not a segment").
uint64_t ParseSegmentName(const std::string& name) {
  if (name.rfind("wal-", 0) != 0) return 0;
  if (name.size() < 10 || name.substr(name.size() - 5) != ".ndwl") return 0;
  uint64_t seq = 0;
  for (size_t i = 4; i < name.size() - 5; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return 0;
    if (seq > (UINT64_MAX - 9) / 10) return 0;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

// Lists the segment numbers present in `dir`, ascending; a missing `dir`
// is an empty log. Files that do not match the segment naming are
// ignored.
Result<std::vector<uint64_t>> ListSegments(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return std::vector<uint64_t>{};
    if (errno == ENOTDIR) {
      return Status::InvalidArgument(
          "wal: '" + dir + "' is not a directory; a WAL is a directory of " +
          "segments (a log from the single-file layout replays as-is once " +
          "moved to '" + SegmentPath(dir, 1) + "')");
    }
    return Errno("opendir '" + dir + "'");
  }
  std::vector<uint64_t> seqs;
  for (;;) {
    errno = 0;
    const dirent* entry = readdir(d);
    if (entry == nullptr) {
      if (errno != 0) {
        const Status st = Errno("readdir '" + dir + "'");
        closedir(d);
        return st;
      }
      break;
    }
    const uint64_t seq = ParseSegmentName(entry->d_name);
    if (seq > 0) seqs.push_back(seq);
  }
  closedir(d);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

// Lists the segment run in `dir`, refusing a hole: GC deletes
// oldest-first and the writer appends highest-last, so the live set must
// be one contiguous run, and a hole means lost records.
Result<std::vector<uint64_t>> ListRun(const std::string& dir) {
  NUMDIST_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListSegments(dir));
  for (size_t i = 1; i < seqs.size(); ++i) {
    if (seqs[i] != seqs[i - 1] + 1) {
      return Status::InvalidArgument(
          "wal: segment gap in '" + dir + "': " + SegmentFileName(seqs[i - 1]) +
          " is followed by " + SegmentFileName(seqs[i]));
    }
  }
  return seqs;
}

// Replays the segment run in `dir`; `*last` receives the final segment's
// number (0 for an empty log).
Result<WalReplayStats> ReplayDir(const std::string& dir,
                                 const WalConsumer& consumer,
                                 uint64_t* last) {
  NUMDIST_ASSIGN_OR_RETURN(std::vector<uint64_t> run, ListRun(dir));
  WalReplayStats stats;
  size_t i = 0;
  while (i < run.size()) {
    const std::string path = SegmentPath(dir, run[i]);
    const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0 && errno == ENOENT) {
      // A live writer's compaction unlinked the segment after the
      // listing, which it does only once a newer checkpoint segment is
      // durable: go on with the run past it, whose checkpoint resets
      // whatever the unread records would have built.
      NUMDIST_ASSIGN_OR_RETURN(std::vector<uint64_t> relisted, ListRun(dir));
      if (!relisted.empty() && relisted.front() > run[i]) {
        run = std::move(relisted);
        i = 0;
        continue;
      }
      errno = ENOENT;
    }
    if (fd < 0) return Errno("open '" + path + "'");
    struct FdCloser {
      int fd;
      ~FdCloser() { close(fd); }
    } closer{fd};
    NUMDIST_ASSIGN_OR_RETURN(const WalReplayStats segment,
                             ReplaySegment(fd, path, consumer));
    if (!segment.tail.ok() && i + 1 < run.size()) {
      // Only the final segment can end mid-write: sealed segments were
      // fsynced before the next was opened, so a torn record here is
      // corruption, not a crash artifact.
      return Status::InvalidArgument("wal: torn record in sealed segment '" +
                                     path + "': " + segment.tail.message());
    }
    stats.frames += segment.frames;
    stats.checkpoints += segment.checkpoints;
    stats.seq_checkpoints += segment.seq_checkpoints;
    stats.clean_bytes = segment.clean_bytes;
    stats.tail = segment.tail;
    ++stats.segments;
    ++i;
  }
  *last = run.empty() ? 0 : run.back();
  return stats;
}

// fsyncs a directory, making entries just created or unlinked in it
// durable against power loss (file-content fsync alone does not persist
// a dirent). Filesystems that reject directory fsync (EINVAL) are
// treated as OK: on those a dirent is as durable as it gets.
Status SyncDir(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open dir '" + dir + "'");
  Status st = Status::OK();
  if (fsync(fd) != 0 && errno != EINVAL) st = Errno("fsync dir '" + dir + "'");
  close(fd);
  return st;
}

// The directory holding `path`'s final component. Trailing slashes name
// the same entry ("a/wal/" is "a/wal"), so they never make `path` its own
// parent.
std::string ParentDir(std::string path) {
  while (path.size() > 1 && path.back() == '/') path.pop_back();
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

Result<WalReplayStats> ReplayWal(const std::string& path,
                                 const WalConsumer& consumer) {
  uint64_t last = 0;
  return ReplayDir(path, consumer, &last);
}

Result<WalLog> WalLog::Open(const std::string& path, const WalOptions& options,
                            const WalConsumer& consumer) {
  if (mkdir(path.c_str(), 0755) == 0) {
    // The new directory's own entry lives in its parent. Power loss could
    // drop the directory with every fsynced record in it, so the
    // power-loss tier (sync_each_record) syncs the parent once.
    if (options.sync_each_record) {
      NUMDIST_RETURN_NOT_OK(SyncDir(ParentDir(path)));
    }
  } else if (errno != EEXIST) {
    return Errno("mkdir '" + path + "'");
  }
  WalLog log;
  log.dir_ = path;
  log.options_ = options;
  uint64_t last = 0;
  NUMDIST_ASSIGN_OR_RETURN(log.recovery_, ReplayDir(path, consumer, &last));
  if (last == 0) {
    // Fresh log: create segment 1 and persist its dirent.
    log.first_seq_ = 1;
    NUMDIST_RETURN_NOT_OK(log.OpenSegment(1, 0));
    NUMDIST_RETURN_NOT_OK(SyncDir(path));
  } else {
    log.first_seq_ = last + 1 - log.recovery_.segments;
    NUMDIST_RETURN_NOT_OK(log.OpenSegment(last, log.recovery_.clean_bytes));
  }
  return log;
}

WalLog::~WalLog() {
  if (fd_ >= 0) close(fd_);
}

WalLog::WalLog(WalLog&& other) noexcept
    : dir_(std::move(other.dir_)),
      options_(other.options_),
      recovery_(std::move(other.recovery_)),
      fd_(std::exchange(other.fd_, -1)),
      bytes_(other.bytes_),
      first_seq_(other.first_seq_),
      active_seq_(other.active_seq_) {}

Status WalLog::OpenSegment(uint64_t seq, uint64_t resume_at) {
  const std::string path = SegmentPath(dir_, seq);
  const int fd =
      open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open '" + path + "'");
  if (fd_ >= 0) close(fd_);
  fd_ = fd;
  active_seq_ = seq;
  // Resume after the replayed clean prefix: the torn tail (if any) is
  // discarded here so a crashed write can never precede fresh records. A
  // fresh (or unreadably short) segment starts over from its header.
  const bool fresh = resume_at < kWalHeaderBytes;
  bytes_ = fresh ? 0 : resume_at;
  if (ftruncate(fd_, static_cast<off_t>(bytes_)) != 0) {
    return Errno("ftruncate '" + path + "'");
  }
  if (!fresh) return Status::OK();
  std::string header;
  AppendHeader(&header);
  return Write(header);
}

Status WalLog::Write(std::string_view bytes) {
  iovec iov{const_cast<char*>(bytes.data()), bytes.size()};
  NUMDIST_RETURN_NOT_OK(WriteAllFd(fd_, &iov, 1));
  bytes_ += bytes.size();
  return Status::OK();
}

Status WalLog::AppendFrame(std::string_view frame) {
  return AppendFrames(std::span<const std::string_view>(&frame, 1));
}

Status WalLog::AppendFrames(std::span<const std::string_view> frames) {
  if (frames.empty()) return Status::OK();
  constexpr auto kType = static_cast<uint8_t>(WalRecordType::kFrame);
  // A frame record's body is the type byte, then the frame: chaining the
  // CRC over the two checksums it without copying the frame.
  const uint32_t type_crc = kernels::Crc32c(&kType, 1);
  std::string heads;
  heads.reserve(std::min(frames.size(), kRecordsPerWrite) *
                kFrameRecordHeadBytes);
  iovec iov[2 * kRecordsPerWrite];
  for (size_t first = 0; first < frames.size(); first += kRecordsPerWrite) {
    const size_t count = std::min(kRecordsPerWrite, frames.size() - first);
    const std::span<const std::string_view> chunk =
        frames.subspan(first, count);
    heads.clear();
    ByteWriter writer(&heads);
    uint64_t chunk_bytes = 0;
    for (const std::string_view frame : chunk) {
      writer.PutU32(static_cast<uint32_t>(1 + frame.size()));
      writer.PutU32(kernels::Crc32c(frame, type_crc));
      writer.PutU8(kType);
      chunk_bytes += kFrameRecordHeadBytes + frame.size();
    }
    for (size_t k = 0; k < count; ++k) {
      iov[2 * k] = {heads.data() + k * kFrameRecordHeadBytes,
                    kFrameRecordHeadBytes};
      iov[2 * k + 1] = {const_cast<char*>(chunk[k].data()), chunk[k].size()};
    }
    NUMDIST_RETURN_NOT_OK(WriteAllFd(fd_, iov, static_cast<int>(2 * count)));
    bytes_ += chunk_bytes;
  }
  // Group commit: one fsync covers every record of the batch. A batch
  // seals its segment only after its last record; the seal fsyncs so a
  // sealed segment can never be torn, and the new segment's dirent is
  // synced so replay after power loss sees the run the writer left.
  const bool seal =
      options_.segment_bytes > 0 && bytes_ >= options_.segment_bytes;
  if (options_.sync_each_record || seal) NUMDIST_RETURN_NOT_OK(Sync());
  if (seal) {
    NUMDIST_RETURN_NOT_OK(OpenSegment(active_seq_ + 1, 0));
    NUMDIST_RETURN_NOT_OK(SyncDir(dir_));
  }
  return Status::OK();
}

Status WalLog::Compact(const std::vector<std::string>& sketches,
                       const std::vector<WalSeqEntry>& seqs) {
  // A rotation whose fresh segment starts with the checkpoint. Until GC
  // starts, the new segment is the final one, so a crash inside it is an
  // ordinary torn tail over the intact older run; once it and its dirent
  // are durable, every older segment is garbage, unlinked oldest-first so
  // a crash mid-GC leaves a contiguous run that still ends in it.
  NUMDIST_RETURN_NOT_OK(OpenSegment(active_seq_ + 1, 0));
  std::string records;
  AppendRecord(CheckpointBody(sketches), &records);
  if (!seqs.empty()) AppendRecord(SeqCheckpointBody(seqs), &records);
  NUMDIST_RETURN_NOT_OK(Write(records));
  NUMDIST_RETURN_NOT_OK(Sync());
  NUMDIST_RETURN_NOT_OK(SyncDir(dir_));
  for (; first_seq_ < active_seq_; ++first_seq_) {
    const std::string old_path = SegmentPath(dir_, first_seq_);
    if (unlink(old_path.c_str()) != 0 && errno != ENOENT) {
      return Errno("unlink '" + old_path + "'");
    }
  }
  return SyncDir(dir_);
}

Status WalLog::Sync() {
  if (fsync(fd_) != 0) {
    return Errno("fsync '" + SegmentPath(dir_, active_seq_) + "'");
  }
  return Status::OK();
}

}  // namespace numdist::serve
