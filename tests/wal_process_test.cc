// Kill-and-restart crash recovery across REAL processes: a live
// collector_cli with a write-ahead log attached is SIGKILLed mid-stream
// at seeded frame offsets, restarted from the log, and fed the rest of
// the stream — the drained sketch must be byte-identical to an
// uninterrupted run over the same frames. Covers the stdio collector,
// a double crash, and the epoll network server (whose parallel
// absorption order is nondeterministic, so recovery diffs the log
// against the sent frame multiset), also killed after its own mid-serve
// WAL checkpoints. Tool locations come from CMake
// (NUMDIST_*_PATH); the test self-skips when the tools were not built.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "data/datasets.h"
#include "net/socket.h"
#include "protocol/sharded.h"
#include "serve/collector.h"
#include "serve/wal.h"
#include "wire/wire.h"

namespace numdist {
namespace {

#if defined(NUMDIST_COLLECTOR_CLI_PATH) && defined(NUMDIST_REPORT_CLIENT_PATH)

constexpr const char* kMethodFlags[] = {"--method=sw-ems", "--epsilon=1.0",
                                        "--buckets=32"};

wire::MethodSpec TestSpec() {
  return wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
}

// The client fleet's frames, built in-process (byte-identical to
// report_client with the same seed/shard layout — the wire encoders are
// shared code).
std::vector<std::string> MakeFrames(size_t shards, size_t shard_size,
                                    uint64_t seed) {
  const wire::MethodSpec spec = TestSpec();
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
    const Status enc =
        wire::EncodeReportFrame(spec, *protocol, *chunk, &frame);
    EXPECT_TRUE(enc.ok()) << enc.ToString();
    frames.push_back(frame);
  }
  return frames;
}

std::string Prefixed(const std::string& frame) {
  std::string out;
  ByteWriter(&out).PutU32(static_cast<uint32_t>(frame.size()));
  out.append(frame);
  return out;
}

void WriteFramesFile(const std::string& path,
                     const std::vector<std::string>& frames) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& frame : frames) {
    const std::string p = Prefixed(frame);
    out.write(p.data(), static_cast<std::streamsize>(p.size()));
  }
  ASSERT_TRUE(out.good()) << path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool WriteAllFd(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

struct ChildProc {
  pid_t pid = -1;
  int stdin_fd = -1;
};

// fork/exec collector_cli with the shared method flags plus `extra`,
// optionally with a pipe on its stdin; stderr goes to /dev/null.
ChildProc SpawnCollector(const std::vector<std::string>& extra,
                         bool with_stdin) {
  int fds[2] = {-1, -1};
  if (with_stdin) {
    if (pipe(fds) != 0) return {};
  }
  std::vector<std::string> args;
  args.push_back(NUMDIST_COLLECTOR_CLI_PATH);
  for (const char* flag : kMethodFlags) args.push_back(flag);
  for (const std::string& e : extra) args.push_back(e);

  const pid_t pid = fork();
  if (pid == 0) {
    if (with_stdin) {
      dup2(fds[0], STDIN_FILENO);
      close(fds[0]);
      close(fds[1]);
    }
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  if (with_stdin) close(fds[0]);
  return {pid, with_stdin ? fds[1] : -1};
}

int WaitChild(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

// Replays the log read-only, collecting the logged frames. Checkpoints
// reset the collection (they subsume earlier records); the last one's
// report count lands in `checkpoint_reports` when given (0 without one).
serve::WalReplayStats InspectWal(const std::string& path,
                                 std::vector<std::string>* frames,
                                 uint64_t* checkpoint_reports = nullptr) {
  frames->clear();
  if (checkpoint_reports != nullptr) *checkpoint_reports = 0;
  serve::WalConsumer consumer;
  consumer.on_frame = [frames](std::string_view frame) {
    frames->emplace_back(frame);
    return Status::OK();
  };
  consumer.on_checkpoint = [&](const std::vector<std::string>& sketches) {
    frames->clear();
    if (checkpoint_reports == nullptr) return Status::OK();
    NUMDIST_ASSIGN_OR_RETURN(serve::CollectorSession decoded,
                             serve::CollectorSession::Make(TestSpec()));
    NUMDIST_RETURN_NOT_OK(decoded.ResetToSketches(sketches));
    *checkpoint_reports = decoded.num_reports();
    return Status::OK();
  };
  auto stats = serve::ReplayWal(path, consumer);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return stats.ok() ? stats.value() : serve::WalReplayStats{};
}

// Polls until the log holds >= want frame records (the collector runs
// asynchronously; the log is the ground truth for what it accepted).
bool WaitForWalFrames(const std::string& path, size_t want) {
  std::vector<std::string> frames;
  for (int spin = 0; spin < 2000; ++spin) {
    InspectWal(path, &frames);
    if (frames.size() >= want) return true;
    usleep(5000);
  }
  return false;
}

// The headline scenario at one seeded kill offset: feed `kill_after`
// frames, SIGKILL the live collector once the log confirms them,
// restart from the log with the REST of the stream, and byte-compare
// the drained sketch file against an uninterrupted real-binary run.
void RunKillAndRestart(uint64_t seed, const std::vector<std::string>& frames,
                       const std::string& ref_sketch_bytes) {
  std::mt19937_64 rng(seed);
  const size_t kill_after =
      1 + static_cast<size_t>(rng() % (frames.size() - 2));
  const std::string tag = "wal_process_" + std::to_string(seed);
  const std::string wal = testing::TempDir() + tag + ".wal";
  const std::string resume_sketch = testing::TempDir() + tag + ".sketch";
  std::filesystem::remove_all(wal);

  // Phase 1: live collector, killed mid-stream.
  ChildProc victim = SpawnCollector({"--wal=" + wal, "--out=/dev/null"},
                                    /*with_stdin=*/true);
  ASSERT_GT(victim.pid, 0);
  for (size_t i = 0; i < kill_after; ++i) {
    ASSERT_TRUE(WriteAllFd(victim.stdin_fd, Prefixed(frames[i])));
  }
  ASSERT_TRUE(WaitForWalFrames(wal, kill_after))
      << "collector logged fewer than " << kill_after << " frames";
  ASSERT_EQ(kill(victim.pid, SIGKILL), 0);
  WaitChild(victim.pid);
  close(victim.stdin_fd);

  // The log's clean prefix is exactly the frames we fed, in order.
  std::vector<std::string> logged;
  const serve::WalReplayStats stats = InspectWal(wal, &logged);
  ASSERT_EQ(logged.size(), kill_after) << "seed " << seed;
  for (size_t i = 0; i < logged.size(); ++i) {
    ASSERT_EQ(logged[i], frames[i]) << "seed " << seed << " frame " << i;
  }
  EXPECT_TRUE(stats.tail.ok() ||
              stats.tail.code() == StatusCode::kOutOfRange)
      << stats.tail.ToString();

  // Phase 2: restart from the log, feed the remainder, drain cleanly.
  const std::string rest = testing::TempDir() + tag + ".rest";
  WriteFramesFile(rest, std::vector<std::string>(frames.begin() + kill_after,
                                                 frames.end()));
  ChildProc resumed = SpawnCollector(
      {"--wal=" + wal, "--in=" + rest, "--out=" + resume_sketch},
      /*with_stdin=*/false);
  ASSERT_GT(resumed.pid, 0);
  const int status = WaitChild(resumed.pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "restart exited " << status;

  // Byte-identical drained sketch.
  EXPECT_EQ(ReadFileBytes(resume_sketch), ref_sketch_bytes)
      << "seed " << seed << " kill_after " << kill_after;

  // The clean drain compacted the log to one checkpoint.
  std::vector<std::string> after;
  const serve::WalReplayStats compacted = InspectWal(wal, &after);
  EXPECT_EQ(compacted.checkpoints, 1u);
  EXPECT_EQ(compacted.frames, 0u);

  std::filesystem::remove_all(wal);
  std::remove(rest.c_str());
  std::remove(resume_sketch.c_str());
}

TEST(WalProcessTest, SigkilledCollectorRestartsByteIdentical) {
  const std::vector<std::string> frames =
      MakeFrames(/*shards=*/10, /*shard_size=*/200, /*seed=*/7);

  // Uninterrupted reference run through the real binary.
  const std::string all = testing::TempDir() + "wal_process_all.bin";
  const std::string ref = testing::TempDir() + "wal_process_ref.sketch";
  WriteFramesFile(all, frames);
  ChildProc reference =
      SpawnCollector({"--in=" + all, "--out=" + ref}, /*with_stdin=*/false);
  ASSERT_GT(reference.pid, 0);
  const int status = WaitChild(reference.pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  const std::string ref_bytes = ReadFileBytes(ref);
  ASSERT_FALSE(ref_bytes.empty());

  // Three distinct seeded kill offsets (the acceptance bar).
  for (const uint64_t seed : {101u, 202u, 303u}) {
    RunKillAndRestart(seed, frames, ref_bytes);
  }
  std::remove(all.c_str());
  std::remove(ref.c_str());
}

// Two crashes in a row: kill, restart and kill again mid-remainder,
// restart once more — still byte-identical.
TEST(WalProcessTest, DoubleCrashStillRecoversExactly) {
  const std::vector<std::string> frames =
      MakeFrames(/*shards=*/8, /*shard_size=*/150, /*seed=*/19);
  const std::string wal = testing::TempDir() + "wal_process_double.wal";
  const std::string out = testing::TempDir() + "wal_process_double.sketch";
  std::filesystem::remove_all(wal);

  size_t fed = 0;
  for (const size_t kill_after : {3u, 6u}) {
    ChildProc victim = SpawnCollector({"--wal=" + wal, "--out=/dev/null"},
                                      /*with_stdin=*/true);
    ASSERT_GT(victim.pid, 0);
    for (; fed < kill_after; ++fed) {
      ASSERT_TRUE(WriteAllFd(victim.stdin_fd, Prefixed(frames[fed])));
    }
    ASSERT_TRUE(WaitForWalFrames(wal, kill_after));
    ASSERT_EQ(kill(victim.pid, SIGKILL), 0);
    WaitChild(victim.pid);
    close(victim.stdin_fd);
  }

  const std::string rest = testing::TempDir() + "wal_process_double.rest";
  WriteFramesFile(rest,
                  std::vector<std::string>(frames.begin() + fed, frames.end()));
  ChildProc resumed = SpawnCollector(
      {"--wal=" + wal, "--in=" + rest, "--out=" + out}, /*with_stdin=*/false);
  ASSERT_GT(resumed.pid, 0);
  const int status = WaitChild(resumed.pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // In-process reference (same wire bytes as an uninterrupted binary run).
  serve::CollectorSession ref_session =
      serve::CollectorSession::Make(TestSpec()).ValueOrDie();
  for (const std::string& frame : frames) {
    ASSERT_TRUE(ref_session.HandleFrame(frame).ok());
  }
  EXPECT_EQ(ReadFileBytes(out),
            Prefixed(ref_session.EncodeSketch().ValueOrDie()));

  std::filesystem::remove_all(wal);
  std::remove(rest.c_str());
  std::remove(out.c_str());
}

// The epoll network server under SIGKILL, optionally after its own
// mid-serve WAL checkpoints (`checkpoint_every` > 0). Its parallel
// absorption order is nondeterministic, so after the kill the logged
// records are diffed against the sent frame multiset and only the
// truly-unlogged frames are refed. A checkpoint folds a prefix of the
// stream: with one connection WAL order equals send order, so it covers
// exactly the first reports / shard_size frames.
void RunNetworkKillAndRestart(const std::string& tag, uint64_t seed,
                              uint64_t checkpoint_every, bool wal_sync) {
  constexpr size_t kShardSize = 100;
  const std::vector<std::string> frames =
      MakeFrames(/*shards=*/12, kShardSize, seed);
  const std::string base = testing::TempDir() + "wal_process_" + tag;
  const std::string wal = base + ".wal";
  const std::string port_file = base + ".port";
  const std::string out = base + ".sketch";
  std::filesystem::remove_all(wal);
  std::remove(port_file.c_str());

  std::vector<std::string> flags = {"--listen=tcp:0",
                                    "--port-file=" + port_file,
                                    "--wal=" + wal, "--out=/dev/null"};
  if (checkpoint_every > 0) {
    flags.push_back("--wal-checkpoint-every=" +
                    std::to_string(checkpoint_every));
  }
  if (wal_sync) flags.push_back("--wal-sync");
  ChildProc server = SpawnCollector(flags, /*with_stdin=*/false);
  ASSERT_GT(server.pid, 0);
  std::string endpoint_name;
  for (int spin = 0; spin < 2000 && endpoint_name.empty(); ++spin) {
    std::ifstream pf(port_file);
    std::getline(pf, endpoint_name);
    if (endpoint_name.empty()) usleep(5000);
  }
  ASSERT_FALSE(endpoint_name.empty()) << "server never published its port";

  // Stream frames over a real TCP connection, then kill mid-stream once
  // the log (checkpoint + records) covers at least a third of them — and,
  // when checkpointing, once it holds a server checkpoint.
  auto endpoint = net::ParseEndpoint(endpoint_name);
  ASSERT_TRUE(endpoint.ok()) << endpoint.status().ToString();
  auto conn = net::Dial(endpoint.value());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  for (const std::string& frame : frames) {
    ASSERT_TRUE(net::WriteAll(conn.value().get(), Prefixed(frame)).ok());
    usleep(2000);
  }
  std::vector<std::string> logged;
  uint64_t checkpoint_reports = 0;
  bool covered = false;
  for (int spin = 0; spin < 2000 && !covered; ++spin) {
    InspectWal(wal, &logged, &checkpoint_reports);
    covered = checkpoint_reports / kShardSize + logged.size() >=
                  frames.size() / 3 &&
              (checkpoint_every == 0 || checkpoint_reports > 0);
    if (!covered) usleep(5000);
  }
  ASSERT_EQ(kill(server.pid, SIGKILL), 0);
  WaitChild(server.pid);
  ASSERT_TRUE(covered) << "the log never covered a third of the stream";

  // Whatever subset the server logged after its checkpoint, each logged
  // frame is one we sent; the complement is what the restart must absorb.
  InspectWal(wal, &logged, &checkpoint_reports);
  ASSERT_EQ(checkpoint_reports % kShardSize, 0u);
  const size_t checkpointed = checkpoint_reports / kShardSize;
  ASSERT_LE(checkpointed, frames.size());
  const std::vector<std::string> unfolded(frames.begin() + checkpointed,
                                          frames.end());
  std::map<std::string, int> remaining;
  for (const std::string& frame : unfolded) ++remaining[frame];
  for (const std::string& frame : logged) {
    auto it = remaining.find(frame);
    ASSERT_NE(it, remaining.end()) << "log holds a frame never sent";
    ASSERT_GT(it->second, 0) << "log holds a frame more often than sent";
    --it->second;
  }
  std::vector<std::string> rest_frames;
  for (const std::string& frame : unfolded) {
    auto it = remaining.find(frame);
    if (it->second > 0) {
      --it->second;
      rest_frames.push_back(frame);
    }
  }

  const std::string rest = base + ".rest";
  WriteFramesFile(rest, rest_frames);
  ChildProc resumed = SpawnCollector(
      {"--wal=" + wal, "--in=" + rest, "--out=" + out}, /*with_stdin=*/false);
  ASSERT_GT(resumed.pid, 0);
  const int status = WaitChild(resumed.pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // Absorption order differed across the crash, but merging is exact and
  // commutative: the recovered sketch is byte-identical to the reference.
  serve::CollectorSession ref_session =
      serve::CollectorSession::Make(TestSpec()).ValueOrDie();
  for (const std::string& frame : frames) {
    ASSERT_TRUE(ref_session.HandleFrame(frame).ok());
  }
  EXPECT_EQ(ReadFileBytes(out),
            Prefixed(ref_session.EncodeSketch().ValueOrDie()));

  std::filesystem::remove_all(wal);
  std::remove(port_file.c_str());
  std::remove(rest.c_str());
  std::remove(out.c_str());
}

TEST(WalProcessTest, NetworkServerKillAndRestartRecovers) {
  RunNetworkKillAndRestart("net", /*seed=*/31, /*checkpoint_every=*/0,
                           /*wal_sync=*/false);
}

// The server's own MaybeCheckpointWal compactions, which no session-level
// test reaches.
TEST(WalProcessTest, NetworkServerKillAfterCheckpointRecovers) {
  RunNetworkKillAndRestart("ckpt", /*seed=*/37, /*checkpoint_every=*/4,
                           /*wal_sync=*/false);
}

// The server's group commit (--wal-sync: one fsync per reactor batch,
// before any of its acks), which no other test appends through.
TEST(WalProcessTest, NetworkServerKillWithWalSyncRecovers) {
  RunNetworkKillAndRestart("sync", /*seed=*/41, /*checkpoint_every=*/0,
                           /*wal_sync=*/true);
}

#else

TEST(WalProcessTest, SkippedWithoutTools) {
  GTEST_SKIP() << "collector_cli / report_client were not built "
                  "(NUMDIST_BUILD_TOOLS=OFF)";
}

#endif

}  // namespace
}  // namespace numdist
