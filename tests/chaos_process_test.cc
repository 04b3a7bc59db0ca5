// Chaos tier: fault-tolerant collection proven across REAL processes and
// real TCP sockets (the `chaos` ctest label; CI repeats this suite and
// runs it under ASan+UBSan).
//
// The three headline scenarios of docs/ARCHITECTURE.md "Replication &
// failover", each ending in a byte-compare against an uninterrupted
// single-collector run over the acknowledged frames:
//
//   1. SIGKILL the primary at a seeded replication offset -> the standby
//      promotes itself and its sketch is byte-identical.
//   2. The client retries through >= 3 injected connection resets
//      (net/fault.h, seeded) -> the deduplicated aggregate is
//      byte-identical.
//   3. SIGKILL the collector between retries with a segmented WAL -> the
//      restarted collector re-acks the full retransmission (exactly-once
//      across the restart) and the aggregate is byte-identical; the log
//      really rolled across > 1 segment file.
//
// Tool locations come from CMake (NUMDIST_*_PATH); the suite self-skips
// when the tools were not built.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "protocol/sharded.h"
#include "serve/collector.h"
#include "wire/wire.h"

namespace numdist {
namespace {

#if defined(NUMDIST_COLLECTOR_CLI_PATH) && defined(NUMDIST_REPORT_CLIENT_PATH)

constexpr size_t kShardSize = 200;
constexpr uint64_t kClientSeed = 7;

wire::MethodSpec TestSpec() {
  return wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
}

std::vector<std::string> MethodFlags() {
  return {"--method=sw-ems", "--epsilon=1.0", "--buckets=32"};
}

// The exact frames report_client --uniform=N --shard-size=K --seed=S
// emits, rebuilt in-process (shared encoders; tests/wal_process_test.cc
// relies on the same identity). Sequence stamping does not perturb the
// decoded reports, so the reference aggregate ignores it.
std::vector<std::string> ClientFrames(size_t shards) {
  const wire::MethodSpec spec = TestSpec();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  std::vector<double> values;
  const size_t n = shards * kShardSize;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back((static_cast<double>(i) + 0.5) / static_cast<double>(n));
  }
  std::vector<std::string> frames;
  for (size_t i = 0; i < shards; ++i) {
    Rng rng(ShardSeed(kClientSeed, i));
    auto chunk = protocol
                     ->EncodePerturbBatch(std::span<const double>(values)
                                              .subspan(i * kShardSize,
                                                       kShardSize),
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

// The uninterrupted reference: every frame absorbed once, in order, into
// one in-process session — the bytes a clean single-collector run emits.
std::string ReferenceSketch(size_t shards) {
  serve::CollectorSession session =
      serve::CollectorSession::Make(TestSpec()).ValueOrDie();
  for (const std::string& frame : ClientFrames(shards)) {
    EXPECT_TRUE(session.HandleFrame(frame).ok());
  }
  return Prefixed(session.EncodeSketch().ValueOrDie());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// fork/exec a tool with stderr captured to `stderr_path` (empty =
// /dev/null) — chaos assertions read the typed retry/fault stderr lines.
pid_t SpawnTool(const char* binary, const std::vector<std::string>& args,
                const std::string& stderr_path = "") {
  std::vector<std::string> full;
  full.push_back(binary);
  for (const std::string& a : args) full.push_back(a);
  const pid_t pid = fork();
  if (pid == 0) {
    const int err = open(
        stderr_path.empty() ? "/dev/null" : stderr_path.c_str(),
        O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err >= 0) dup2(err, STDERR_FILENO);
    std::vector<char*> argv;
    for (std::string& a : full) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

int WaitChild(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

std::string WaitForPortFile(const std::string& port_file) {
  std::string endpoint;
  for (int spin = 0; spin < 2000 && endpoint.empty(); ++spin) {
    std::ifstream pf(port_file);
    std::getline(pf, endpoint);
    if (endpoint.empty()) usleep(5000);
  }
  return endpoint;
}

size_t CountWalSegments(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  size_t count = 0;
  while (struct dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind("wal-", 0) == 0 &&
        name.size() > 5 && name.substr(name.size() - 5) == ".ndwl") {
      ++count;
    }
  }
  closedir(d);
  return count;
}

std::vector<std::string> ClientFlags(size_t shards,
                                     const std::string& endpoint,
                                     uint64_t epoch) {
  std::vector<std::string> flags = MethodFlags();
  flags.push_back("--uniform=" + std::to_string(shards * kShardSize));
  flags.push_back("--shard-size=" + std::to_string(kShardSize));
  flags.push_back("--seed=" + std::to_string(kClientSeed));
  flags.push_back("--connect=" + endpoint);
  flags.push_back("--retry");
  flags.push_back("--epoch=" + std::to_string(epoch));
  flags.push_back("--retry-backoff-ms=1");
  flags.push_back("--retry-deadline-ms=60000");
  return flags;
}

// Scenario 1. A primary replicating to a hot standby is SIGKILLed after
// the client's acked prefix — `kill_after` frames, drawn from the seed —
// has been replicated. The promoted standby's sketch must be
// byte-identical to an uninterrupted run over exactly those frames: an
// ack means "durable AND on the standby", so the acked prefix survives
// the primary's death bit-for-bit.
void RunFailover(uint64_t seed) {
  Rng rng(seed);
  const size_t kill_after = 3 + static_cast<size_t>(rng.UniformInt(9));
  const std::string tag =
      testing::TempDir() + "chaos_failover_" + std::to_string(seed);
  const std::string standby_port = tag + ".sb.port";
  const std::string primary_port = tag + ".pr.port";
  const std::string standby_sketch = tag + ".sb.sketch";
  std::remove(standby_port.c_str());
  std::remove(primary_port.c_str());

  std::vector<std::string> standby_args = MethodFlags();
  standby_args.insert(standby_args.end(),
                      {"--standby", "--listen=tcp:127.0.0.1:0",
                       "--port-file=" + standby_port,
                       "--out=" + standby_sketch});
  const pid_t standby = SpawnTool(NUMDIST_COLLECTOR_CLI_PATH, standby_args);
  ASSERT_GT(standby, 0);
  const std::string standby_at = WaitForPortFile(standby_port);
  ASSERT_FALSE(standby_at.empty()) << "standby never published its port";

  std::vector<std::string> primary_args = MethodFlags();
  primary_args.insert(primary_args.end(),
                      {"--listen=tcp:127.0.0.1:0",
                       "--port-file=" + primary_port,
                       "--replicate-to=" + standby_at, "--out=/dev/null"});
  const pid_t primary = SpawnTool(NUMDIST_COLLECTOR_CLI_PATH, primary_args);
  ASSERT_GT(primary, 0);
  const std::string primary_at = WaitForPortFile(primary_port);
  ASSERT_FALSE(primary_at.empty()) << "primary never published its port";

  // The client's exit-0 means every frame was acked, and each ack was
  // sent only after the frame reached the standby's socket.
  const pid_t client = SpawnTool(
      NUMDIST_REPORT_CLIENT_PATH,
      ClientFlags(kill_after, primary_at, /*epoch=*/seed));
  ASSERT_GT(client, 0);
  const int client_status = WaitChild(client);
  ASSERT_TRUE(WIFEXITED(client_status) && WEXITSTATUS(client_status) == 0)
      << "client exited " << client_status;

  // SIGKILL: no drain, no flush beyond what the kernel already holds.
  ASSERT_EQ(kill(primary, SIGKILL), 0);
  WaitChild(primary);

  // The standby sees the replication stream end and promotes itself.
  const int standby_status = WaitChild(standby);
  ASSERT_TRUE(WIFEXITED(standby_status) && WEXITSTATUS(standby_status) == 0)
      << "standby exited " << standby_status;

  EXPECT_EQ(ReadFileBytes(standby_sketch), ReferenceSketch(kill_after))
      << "seed " << seed << " kill_after " << kill_after;

  std::remove(standby_port.c_str());
  std::remove(primary_port.c_str());
  std::remove(standby_sketch.c_str());
}

TEST(ChaosProcessTest, PromotedStandbySketchByteIdentical) {
  for (const uint64_t seed : {11u, 23u, 47u}) {
    RunFailover(seed);
  }
}

// Scenario 2. The client's connection is RST at seeded byte offsets on
// its first 3 attempts (net/fault.h). The retry layer reconnects with
// backoff and retransmits the unacked window verbatim; the collector's
// dedup window drops any frame that had already landed. Absorbed frames
// = exactly the sent multiset, so the sketch is byte-identical.
TEST(ChaosProcessTest, ClientRetriesThroughInjectedResets) {
  const size_t shards = 12;
  const std::string tag = testing::TempDir() + "chaos_resets";
  const std::string port_file = tag + ".port";
  const std::string sketch = tag + ".sketch";
  const std::string client_err = tag + ".client.err";
  std::remove(port_file.c_str());

  std::vector<std::string> server_args = MethodFlags();
  server_args.insert(server_args.end(),
                     {"--listen=tcp:127.0.0.1:0",
                      "--port-file=" + port_file, "--out=" + sketch});
  const pid_t server = SpawnTool(NUMDIST_COLLECTOR_CLI_PATH, server_args);
  ASSERT_GT(server, 0);
  const std::string at = WaitForPortFile(port_file);
  ASSERT_FALSE(at.empty());

  std::vector<std::string> client_args = ClientFlags(shards, at, /*epoch=*/3);
  client_args.insert(client_args.end(),
                     {"--fault-resets=3", "--fault-seed=99",
                      "--fault-max-byte=2000"});
  const pid_t client =
      SpawnTool(NUMDIST_REPORT_CLIENT_PATH, client_args, client_err);
  ASSERT_GT(client, 0);
  const int client_status = WaitChild(client);
  ASSERT_TRUE(WIFEXITED(client_status) && WEXITSTATUS(client_status) == 0)
      << "client exited " << client_status;

  // The typed stderr line proves all 3 scripted resets actually fired
  // (and were survived), not that the plan happened to stay idle.
  const std::string err = ReadFileBytes(client_err);
  EXPECT_NE(err.find("3 injected fault(s)"), std::string::npos) << err;

  ASSERT_EQ(kill(server, SIGTERM), 0);
  const int server_status = WaitChild(server);
  ASSERT_TRUE(WIFEXITED(server_status) && WEXITSTATUS(server_status) == 0);

  EXPECT_EQ(ReadFileBytes(sketch), ReferenceSketch(shards));

  std::remove(port_file.c_str());
  std::remove(sketch.c_str());
  std::remove(client_err.c_str());
}

// Scenario 3. Exactly-once across a collector restart: every frame is
// acked and logged (segmented WAL), the collector is SIGKILLed, and the
// client's full retransmission (same epoch, same seqs — the crash-resume
// shape) hits the restarted collector. Replaying the log re-claims every
// (epoch, seq), so all retransmits dedup to re-acks and the aggregate
// counts each report exactly once.
TEST(ChaosProcessTest, ExactlyOnceAcrossSegmentedWalRestart) {
  const size_t shards = 12;
  const uint64_t epoch = 5;
  const std::string tag = testing::TempDir() + "chaos_restart";
  const std::string wal_dir = tag + ".wal";
  const std::string sketch = tag + ".sketch";
  const std::string server_err = tag + ".server.err";
  system(("rm -rf " + wal_dir).c_str());

  std::vector<std::string> base_args = MethodFlags();
  base_args.insert(base_args.end(),
                   {"--wal=" + wal_dir, "--wal-segment-bytes=512",
                    "--listen=tcp:127.0.0.1:0"});

  std::vector<std::string> first_args = base_args;
  const std::string port1 = tag + ".port1";
  std::remove(port1.c_str());
  first_args.insert(first_args.end(),
                    {"--port-file=" + port1, "--out=/dev/null"});
  const pid_t first = SpawnTool(NUMDIST_COLLECTOR_CLI_PATH, first_args);
  ASSERT_GT(first, 0);
  const std::string at1 = WaitForPortFile(port1);
  ASSERT_FALSE(at1.empty());

  const pid_t client_a = SpawnTool(NUMDIST_REPORT_CLIENT_PATH,
                                   ClientFlags(shards, at1, epoch));
  ASSERT_GT(client_a, 0);
  const int a_status = WaitChild(client_a);
  ASSERT_TRUE(WIFEXITED(a_status) && WEXITSTATUS(a_status) == 0);

  ASSERT_EQ(kill(first, SIGKILL), 0);
  WaitChild(first);

  // The small segment budget really rotated the log mid-run.
  EXPECT_GT(CountWalSegments(wal_dir), 1u) << wal_dir;

  std::vector<std::string> second_args = base_args;
  const std::string port2 = tag + ".port2";
  std::remove(port2.c_str());
  second_args.insert(second_args.end(),
                     {"--port-file=" + port2, "--out=" + sketch});
  const pid_t second =
      SpawnTool(NUMDIST_COLLECTOR_CLI_PATH, second_args, server_err);
  ASSERT_GT(second, 0);
  const std::string at2 = WaitForPortFile(port2);
  ASSERT_FALSE(at2.empty());

  // Same epoch, same frames, same seqs: the crash-resume retransmission.
  const pid_t client_b = SpawnTool(NUMDIST_REPORT_CLIENT_PATH,
                                   ClientFlags(shards, at2, epoch));
  ASSERT_GT(client_b, 0);
  const int b_status = WaitChild(client_b);
  ASSERT_TRUE(WIFEXITED(b_status) && WEXITSTATUS(b_status) == 0);

  ASSERT_EQ(kill(second, SIGTERM), 0);
  const int second_status = WaitChild(second);
  ASSERT_TRUE(WIFEXITED(second_status) && WEXITSTATUS(second_status) == 0);

  // Every retransmit was recognized: the recovered dedup window dropped
  // all 12, and the aggregate holds each report exactly once.
  const std::string err = ReadFileBytes(server_err);
  EXPECT_NE(err.find("12 duplicate(s) dropped"), std::string::npos) << err;
  EXPECT_EQ(ReadFileBytes(sketch), ReferenceSketch(shards));

  system(("rm -rf " + wal_dir).c_str());
  std::remove(port1.c_str());
  std::remove(port2.c_str());
  std::remove(sketch.c_str());
  std::remove(server_err.c_str());
}

#else

TEST(ChaosProcessTest, SkippedWithoutTools) {
  GTEST_SKIP() << "collector_cli / report_client were not built "
                  "(NUMDIST_BUILD_TOOLS=OFF)";
}

#endif

}  // namespace
}  // namespace numdist
