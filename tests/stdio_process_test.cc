// collector_cli's stdio and file-coordinator modes across real processes.
// Its input (stdin, --in, or each --merge file) is one connection of
// net::CollectorServer, so it must behave like any other connection
// whatever the fd is: a pipe, a regular file or /dev/null (both of which
// epoll refuses), or a client that sends its next frame only after reading
// the previous ack. Acks go to stdout and the sketch only to --out; the
// output is one sketch frame per tenant, as in --listen mode; a stream cut
// mid-frame fails without writing a sketch; the file coordinator keeps its
// typed refusals and merges more files than the soft descriptor limit;
// --estimate-out holds one cumulative sketch per estimate tick, the last
// of which is the drained sketch; and a malformed flag value, a
// --tenant-budget field included, exits 2 before anything is opened. Tool
// locations come from CMake (NUMDIST_*_PATH); the test self-skips when the
// tools were not built.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "protocol/sharded.h"
#include "serve/collector.h"
#include "serve/framing.h"
#include "wire/wire.h"

namespace numdist {
namespace {

#if defined(NUMDIST_COLLECTOR_CLI_PATH) && defined(NUMDIST_REPORT_CLIENT_PATH)

const char kCommonFlags[] = " --method=sw-ems --epsilon=1.0 --buckets=32";

const char kCollector[] = NUMDIST_COLLECTOR_CLI_PATH;
std::string Tmp(const std::string& name) {
  return testing::TempDir() + "stdio_process_" + name;
}

wire::MethodSpec TestSpec() {
  return wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
}

// Seeded report frames, built in-process (the encoders are shared code).
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
    EXPECT_TRUE(wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok());
    frames.push_back(frame);
  }
  return frames;
}

std::vector<std::string> Stamped(std::vector<std::string> frames,
                                 uint64_t epoch) {
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(
        wire::StampSequenceContext(&frames[i], {.epoch = epoch, .seq = i + 1})
            .ok());
  }
  return frames;
}

std::string Prefixed(const std::vector<std::string>& frames) {
  std::ostringstream out;
  for (const std::string& frame : frames) {
    EXPECT_TRUE(serve::WriteFrame(out, frame).ok());
  }
  return out.str();
}

// The one sketch frame a collector emits for untagged `frames`, prefixed.
std::string ReferenceSketch(const std::vector<std::string>& frames) {
  auto session = serve::CollectorSession::Make(TestSpec()).ValueOrDie();
  for (const std::string& frame : frames) {
    EXPECT_TRUE(session.HandleFrame(frame).ok());
  }
  return Prefixed({session.EncodeSketch().ValueOrDie()});
}

std::vector<std::string> Unprefixed(const std::string& bytes) {
  serve::FrameDecoder decoder;
  EXPECT_TRUE(decoder.Feed(bytes).ok());
  std::vector<std::string> frames;
  std::string frame;
  while (decoder.Next(&frame)) frames.push_back(frame);
  EXPECT_TRUE(decoder.AtEnd().ok()) << decoder.AtEnd().ToString();
  return frames;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

// Runs a shell script; returns its exit code.
int Sh(const std::string& script) {
  const int status = std::system(script.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// A shell command line running `tool` with the test's method and `flags`
// (which may carry redirections), its stderr sent to `stderr_path`.
std::string ToolCmd(const char* tool, const std::string& flags,
                    const std::string& stderr_path = "/dev/null") {
  return std::string("'") + tool + "'" + kCommonFlags + " " + flags +
         " 2>'" + stderr_path + "'";
}

std::string CollectorCmd(const std::string& flags,
                         const std::string& stderr_path = "/dev/null") {
  return ToolCmd(kCollector, flags, stderr_path);
}

// Runs collector_cli; returns its exit code.
int Collect(const std::string& flags) { return Sh(CollectorCmd(flags)); }

TEST(StdioProcessTest, EpollRefusedStdinMatchesAPipe) {
  const std::vector<std::string> frames = MakeFrames(6, 300, 7);
  const std::string in = Tmp("frames.bin");
  WriteFile(in, Prefixed(frames));
  const std::string pipe_out = Tmp("pipe.sketch");
  const std::string file_out = Tmp("file.sketch");
  const std::string redirect_out = Tmp("redirect.sketch");
  ASSERT_EQ(Sh("cat '" + in + "' | " + CollectorCmd("--out=" + pipe_out)), 0);
  ASSERT_EQ(Collect("--in=" + in + " --out=" + file_out), 0);
  ASSERT_EQ(Collect("--out=" + redirect_out + " <'" + in + "'"), 0);
  const std::string expected = ReferenceSketch(frames);
  EXPECT_EQ(ReadFile(pipe_out), expected);
  EXPECT_EQ(ReadFile(file_out), expected);
  EXPECT_EQ(ReadFile(redirect_out), expected);

  // /dev/null is an empty stream, exactly like an empty pipe.
  const std::string null_out = Tmp("null.sketch");
  const std::string empty_out = Tmp("empty.sketch");
  ASSERT_EQ(Collect("--out=" + null_out + " </dev/null"), 0);
  ASSERT_EQ(Sh(": | " + CollectorCmd("--out=" + empty_out)), 0);
  EXPECT_EQ(ReadFile(null_out), ReferenceSketch({}));
  EXPECT_EQ(ReadFile(empty_out), ReferenceSketch({}));
  for (const std::string& path :
       {in, pipe_out, file_out, redirect_out, null_out, empty_out}) {
    std::remove(path.c_str());
  }
}

TEST(StdioProcessTest, AcksGoToStdoutAndTheSketchToOut) {
  const std::vector<std::string> plain = MakeFrames(3, 200, 11);
  const std::vector<std::string> stamped = Stamped(plain, 21);
  // Seq 2 is re-sent (the lost-ack retry shape): acked twice, absorbed once.
  const std::string in = Tmp("stamped.bin");
  WriteFile(in, Prefixed({stamped[0], stamped[1], stamped[1], stamped[2]}));
  const std::string sketch = Tmp("stamped.sketch");
  const std::string acks = Tmp("stamped.acks");
  ASSERT_EQ(Collect("--in=" + in + " --out=" + sketch + " >'" + acks + "'"),
            0);
  EXPECT_EQ(ReadFile(sketch), ReferenceSketch(plain))
      << "--out holds the sketch alone";
  const std::vector<std::string> ack_frames = Unprefixed(ReadFile(acks));
  ASSERT_EQ(ack_frames.size(), 4u);
  const uint64_t expected_seqs[] = {1, 2, 2, 3};
  for (size_t i = 0; i < ack_frames.size(); ++i) {
    const auto ack = wire::DecodeAckFrame(ack_frames[i]);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack->epoch, 21u);
    EXPECT_EQ(ack->seq, expected_seqs[i]);
  }

  // The sketch file merges, and estimates exactly like unstamped frames.
  const std::string plain_in = Tmp("plain.bin");
  const std::string plain_sketch = Tmp("plain.sketch");
  WriteFile(plain_in, Prefixed(plain));
  ASSERT_EQ(Collect("--in=" + plain_in + " --out=" + plain_sketch), 0);
  const std::string stamped_csv = Tmp("stamped.csv");
  const std::string plain_csv = Tmp("plain.csv");
  ASSERT_EQ(Collect("--merge=" + sketch + " --csv >'" + stamped_csv + "'"), 0);
  ASSERT_EQ(Collect("--merge=" + plain_sketch + " --csv >'" + plain_csv + "'"),
            0);
  EXPECT_FALSE(ReadFile(plain_csv).empty());
  EXPECT_EQ(ReadFile(stamped_csv), ReadFile(plain_csv));

  // Without --out the sketch follows the acks on stdout.
  const std::string both = Tmp("stdout.bin");
  ASSERT_EQ(Collect("--in=" + in + " >'" + both + "'"), 0);
  const std::vector<std::string> out_frames = Unprefixed(ReadFile(both));
  ASSERT_EQ(out_frames.size(), 5u);
  EXPECT_EQ(std::vector<std::string>(out_frames.begin(), out_frames.end() - 1),
            ack_frames);
  EXPECT_EQ(Prefixed({out_frames.back()}), ReferenceSketch(plain));
  for (const std::string& path : {in, sketch, acks, plain_in, plain_sketch,
                                  stamped_csv, plain_csv, both}) {
    std::remove(path.c_str());
  }
}

// Reads one length-prefixed frame from `fd`, waiting at most `timeout_ms`
// for each read. False on timeout, EOF, or a malformed stream.
bool ReadOneFrame(int fd, serve::FrameDecoder* decoder, std::string* frame,
                  int timeout_ms) {
  while (!decoder->Next(frame)) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, timeout_ms) <= 0) return false;
    char buf[4096];
    const ssize_t got = read(fd, buf, sizeof(buf));
    if (got <= 0) return false;
    if (!decoder->Feed(std::string_view(buf, static_cast<size_t>(got))).ok()) {
      return false;
    }
  }
  return true;
}

// A client that writes frame k+1 only after reading ack k: the collector
// must never sit in a read of its input while it owes that ack.
TEST(StdioProcessTest, LockStepClientRunsToCompletion) {
  const std::vector<std::string> plain = MakeFrames(5, 100, 13);
  const std::vector<std::string> stamped = Stamped(plain, 4);
  int to_child[2], from_child[2];
  ASSERT_EQ(pipe(to_child), 0);
  ASSERT_EQ(pipe(from_child), 0);
  std::vector<std::string> args = {kCollector, "--method=sw-ems",
                                   "--epsilon=1.0", "--buckets=32"};
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]}) {
      close(fd);
    }
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  ASSERT_GT(pid, 0);
  close(to_child[0]);
  close(from_child[1]);
  serve::FrameDecoder decoder;
  std::string frame;
  bool lock_step = true;
  for (size_t i = 0; i < stamped.size() && lock_step; ++i) {
    const std::string bytes = Prefixed({stamped[i]});
    lock_step = write(to_child[1], bytes.data(), bytes.size()) ==
                    static_cast<ssize_t>(bytes.size()) &&
                ReadOneFrame(from_child[0], &decoder, &frame, 10000);
    if (!lock_step) break;
    const auto ack = wire::DecodeAckFrame(frame);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack->seq, i + 1);
  }
  close(to_child[1]);
  const bool got_sketch =
      lock_step && ReadOneFrame(from_child[0], &decoder, &frame, 10000);
  if (!got_sketch) kill(pid, SIGKILL);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  close(from_child[0]);
  ASSERT_TRUE(lock_step) << "no ack arrived within 10 s of its frame";
  ASSERT_TRUE(got_sketch);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  EXPECT_EQ(Prefixed({frame}), ReferenceSketch(plain));
}

// A torn input fails the run and empties --out, whichever way it arrives:
// --in, a pipe, or a --merge file. Each --out starts out holding stale
// bytes, so an untouched --out cannot pass for an emptied one.
TEST(StdioProcessTest, MidFrameEofFailsAndLeavesOutEmpty) {
  const std::string bytes = Prefixed(MakeFrames(3, 200, 17));
  const std::string in = Tmp("cut.bin");
  WriteFile(in, bytes.substr(0, bytes.size() - 9));
  const std::string from_file = Tmp("cut_file.sketch");
  const std::string from_pipe = Tmp("cut_pipe.sketch");
  const std::string from_merge = Tmp("cut_merge.sketch");
  for (const std::string& out : {from_file, from_pipe, from_merge}) {
    WriteFile(out, "stale sketch");
  }
  EXPECT_NE(Collect("--in=" + in + " --out=" + from_file), 0);
  EXPECT_NE(Sh("cat '" + in + "' | " + CollectorCmd("--out=" + from_pipe)), 0);
  EXPECT_NE(Collect("--merge=" + in + " --emit-sketch --out=" + from_merge), 0);
  EXPECT_EQ(ReadFile(from_file), "");
  EXPECT_EQ(ReadFile(from_pipe), "");
  EXPECT_EQ(ReadFile(from_merge), "");
  for (const std::string& path : {in, from_file, from_pipe, from_merge}) {
    std::remove(path.c_str());
  }
}

// The file coordinator's refusals. A missing file and a zero-byte file
// (the empty --out a failed collector leaves) are typed errors, and
// --merge=FILES next to another input (--listen, --in) is a usage error.
// A flat merge of 100 files under a soft limit of 64 descriptors gives
// the one-process fold of their frames.
TEST(StdioProcessTest, MergeFilesRefusalsAndDescriptorLimit) {
  const std::string err = Tmp("merge.err");
  const std::string missing = Tmp("merge_missing.sketch");
  const std::string empty = Tmp("merge_empty.sketch");
  std::remove(missing.c_str());
  WriteFile(empty, "");
  EXPECT_EQ(Sh(CollectorCmd("--merge=" + missing + " --csv", err)), 1);
  EXPECT_NE(ReadFile(err).find("cannot open"), std::string::npos)
      << ReadFile(err);
  EXPECT_EQ(Sh(CollectorCmd("--merge=" + empty + " --csv", err)), 1);
  EXPECT_NE(ReadFile(err).find("holds no sketch frame"), std::string::npos)
      << ReadFile(err);

  const std::vector<std::string> frames = MakeFrames(100, 50, 29);
  const std::string out = Tmp("merge_wide.sketch");
  std::string paths;
  std::vector<std::string> files;
  for (size_t i = 0; i < frames.size(); ++i) {
    files.push_back(Tmp("merge_leaf" + std::to_string(i) + ".sketch"));
    WriteFile(files.back(), ReferenceSketch({frames[i]}));
    paths += (i == 0 ? "" : ",") + files.back();
  }
  EXPECT_EQ(Collect("--merge=" + files[0] + " --listen=tcp:0 --csv"), 2);
  EXPECT_EQ(Collect("--merge=" + files[0] + " --in=" + files[1] + " --csv"),
            2);
  EXPECT_EQ(Sh("ulimit -Sn 64 && " +
               CollectorCmd("--merge=" + paths + " --emit-sketch --out=" + out,
                            err)),
            0)
      << ReadFile(err);
  EXPECT_EQ(ReadFile(out), ReferenceSketch(frames));
  files.insert(files.end(), {err, empty, out});
  for (const std::string& path : files) std::remove(path.c_str());
}

// An out-of-range --buckets is refused with a typed error before anything
// is sized by it: a well-formed 2^32 + 64 reaches the granularity check
// (exit 1), and -1 is a usage error naming the flag (exit 2), never 2^64 - 1.
TEST(StdioProcessTest, OutOfRangeBucketsIsATypedError) {
  const std::string err = Tmp("buckets.err");
  EXPECT_EQ(Sh(CollectorCmd(
                "--buckets=4294967360 --in=/dev/null --out=/dev/null", err)),
            1);
  std::string message = ReadFile(err);
  EXPECT_NE(message.find("error: InvalidArgument: wire: granularity"),
            std::string::npos)
      << message;
  EXPECT_EQ(Sh(CollectorCmd("--buckets=-1 --in=/dev/null --out=/dev/null",
                            err)),
            2);
  message = ReadFile(err);
  EXPECT_NE(message.find("error: InvalidArgument: --buckets:"),
            std::string::npos)
      << message;
  std::remove(err.c_str());
}

// --tenant-budget=ID:MAX_REPORTS[:MAX_EPSILON] against one 100-report
// tenant-7 stream at epsilon 1: a cap below the stream refuses it (exit
// 1), and a negative, malformed or empty field, or an ID past 2^32 - 1, is
// a usage error naming the flag (exit 2) before --out is opened, never a
// cap silently switched off.
TEST(StdioProcessTest, TenantBudgetIsParsedWhole) {
  const std::string frames = Tmp("budget_frames.bin");
  const std::string out = Tmp("budget.sketch");
  const std::string err = Tmp("budget.err");
  ASSERT_EQ(Sh(ToolCmd(NUMDIST_REPORT_CLIENT_PATH,
                       "--uniform=100 --tenant=7 --out=" + frames)),
            0);
  const auto collect = [&](const std::string& budget) {
    std::remove(out.c_str());
    return Sh(CollectorCmd(
        "--tenant-budget=" + budget + " --in=" + frames + " --out=" + out,
        err));
  };
  EXPECT_EQ(collect("7:5"), 1);
  EXPECT_NE(ReadFile(err).find("tenant 7 over report budget"),
            std::string::npos)
      << ReadFile(err);
  EXPECT_EQ(collect("7:0:0.5"), 1);
  EXPECT_NE(ReadFile(err).find("tenant 7 over epsilon budget"),
            std::string::npos)
      << ReadFile(err);
  for (const char* budget :
       {"7:-5", "7:0:-0.5", "7:5x", "7:5:", "4294967296:5"}) {
    EXPECT_EQ(collect(budget), 2) << budget;
    EXPECT_NE(ReadFile(err).find("error: InvalidArgument: --tenant-budget:"),
              std::string::npos)
        << budget << ": " << ReadFile(err);
    EXPECT_FALSE(std::ifstream(out).good()) << budget << " opened --out";
  }
  for (const std::string& path : {frames, out, err}) {
    std::remove(path.c_str());
  }
}

// A malformed or out-of-type-range flag value is a usage error naming the
// flag (exit 2) before --out is opened: report_client's u32 --tenant does
// not wrap 2^32 + 7 onto tenant 7, and a non-numeric --estimate-half-life
// does not read as 0 (no forgetting).
TEST(StdioProcessTest, MalformedFlagValueIsAUsageError) {
  const std::string out = Tmp("malformed.out");
  const std::string err = Tmp("malformed.err");
  const struct {
    const char* tool;
    const char* flags;
    const char* flag;
  } cases[] = {
      {NUMDIST_REPORT_CLIENT_PATH, "--uniform=100 --tenant=4294967303",
       "--tenant"},
      {kCollector,
       "--in=/dev/null --estimate-every-frames=1 --estimate-half-life=abc",
       "--estimate-half-life"},
  };
  for (const auto& c : cases) {
    std::remove(out.c_str());
    EXPECT_EQ(Sh(ToolCmd(c.tool, std::string(c.flags) + " --out=" + out, err)),
              2)
        << c.flags;
    EXPECT_NE(ReadFile(err).find(std::string("error: InvalidArgument: ") +
                                 c.flag + ":"),
              std::string::npos)
        << ReadFile(err);
    EXPECT_FALSE(std::ifstream(out).good()) << c.flags << " opened --out";
  }
  std::remove(err.c_str());
}

// Script lines that start a --listen collector in the background as $pid
// and wait until it has published its endpoint in `port_file`.
std::string ListenInBackground(const std::string& port_file,
                               const std::string& flags,
                               const std::string& stderr_path = "/dev/null") {
  std::string lines = CollectorCmd(
      "--listen=tcp:0 --port-file=" + port_file + " " + flags, stderr_path);
  lines += " &\npid=$!\n";
  lines += "for i in $(seq 200); do [ -s " + port_file +
           " ] && break; sleep 0.05; done\n";
  lines += "[ -s " + port_file + " ] || { kill $pid; exit 11; }\n";
  return lines;
}

// One tenant-tagged client stream plus one untagged stream: stdio, a
// --listen server, and a stdio leaf dialing --out=tcp: into a --listen
// collector all emit the same bytes, one sketch frame per tenant.
TEST(StdioProcessTest, TenantTaggedStdioMatchesListen) {
  const auto client = [](const std::string& flags) {
    return ToolCmd(NUMDIST_REPORT_CLIENT_PATH,
                   "--uniform=4000 --shard-size=500 " + flags);
  };
  const char* const streams[] = {"--seed=7 --tenant=5", "--seed=8"};
  const std::string both =
      "{ " + client(streams[0]) + "; " + client(streams[1]) + "; }";
  const std::string stdio = Tmp("tenant_stdio.sketch");
  const std::string listen = Tmp("tenant_listen.sketch");
  const std::string upstream = Tmp("tenant_upstream.sketch");
  const std::string port = Tmp("tenant_port.txt");
  const std::string port2 = Tmp("tenant_port2.txt");
  for (const std::string& path : {port, port2}) std::remove(path.c_str());

  std::string script =
      both + " | " + CollectorCmd("--out=" + stdio) + " || exit 8\n";
  script += ListenInBackground(port, "--out=" + listen);
  for (const char* flags : streams) {
    script += client(flags + std::string(" --connect=\"$(cat ") + port + ")\"");
    script += " || exit 9\n";
  }
  script += "kill -TERM $pid\nwait $pid || exit 10\n";
  script += ListenInBackground(port2, "--out=" + upstream);
  script += both + " | " + CollectorCmd("--out=\"$(cat " + port2 + ")\"");
  script += " || { kill $pid; exit 12; }\n";
  script += "kill -TERM $pid\nwait $pid || exit 13\n";
  ASSERT_EQ(Sh(script), 0) << script;

  const std::string bytes = ReadFile(stdio);
  EXPECT_EQ(ReadFile(listen), bytes);
  EXPECT_EQ(ReadFile(upstream), bytes);
  const std::vector<std::string> frames = Unprefixed(bytes);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(wire::PeekFrame(frames[0]).ValueOrDie().tenant,
            wire::kDefaultTenant);
  EXPECT_EQ(wire::PeekFrame(frames[1]).ValueOrDie().tenant, 5u);
  for (const std::string& path : {stdio, listen, upstream, port, port2}) {
    std::remove(path.c_str());
  }
}

// --estimate-out is one cumulative sketch frame per estimate tick. A
// --listen collector estimating every frame serves one client connection,
// whose frames it absorbs in stream order. Read back, every frame of the
// stream decodes as a sketch under the collector's spec, its report count
// is that tick's (the stderr tick line) and never decreases, and its
// counts are the fold of exactly the frames absorbed by then. The last
// tick follows the last absorb, so the last frame is the drained sketch.
TEST(StdioProcessTest, EstimateOutIsOneCumulativeSketchPerTick) {
  // 10 frames of 20 000 one-byte reports: about 200 KB, which the
  // collector reads at most 64 KiB per round, so ticks land at several
  // prefixes of the stream.
  const uint64_t kReportsPerFrame = 20000;
  const auto client = [&](const std::string& flags) {
    return ToolCmd(NUMDIST_REPORT_CLIENT_PATH,
                   "--uniform=200000 --shard-size=" +
                       std::to_string(kReportsPerFrame) + " --seed=19 " +
                       flags);
  };
  const std::string frames_path = Tmp("estimate_frames.bin");
  const std::string port = Tmp("estimate_port.txt");
  const std::string out = Tmp("estimate.sketch");
  const std::string estimates_path = Tmp("estimates.bin");
  const std::string log = Tmp("estimate.log");
  std::remove(port.c_str());
  std::string script = client("--out=" + frames_path) + " || exit 10\n";
  script += ListenInBackground(port,
                               "--out=" + out +
                                   " --estimate-every-frames=1"
                                   " --estimate-out=" + estimates_path,
                               log);
  script += client("--connect=\"$(cat " + port + ")\"") +
            " || { kill $pid; exit 12; }\n";
  script += "kill -TERM $pid\nwait $pid || exit 13\n";
  ASSERT_EQ(Sh(script), 0) << script;

  // One "estimate tick K: reports=R ..." line per tick, in order.
  std::vector<uint64_t> tick_reports;
  std::istringstream lines(ReadFile(log));
  for (std::string line; std::getline(lines, line);) {
    unsigned long long tick = 0;
    unsigned long long reports = 0;
    if (std::sscanf(line.c_str(), "estimate tick %llu: reports=%llu", &tick,
                    &reports) == 2) {
      EXPECT_EQ(tick, tick_reports.size() + 1);
      tick_reports.push_back(reports);
    }
  }
  const std::vector<std::string> estimates =
      Unprefixed(ReadFile(estimates_path));
  ASSERT_GT(estimates.size(), 1u);
  ASSERT_EQ(estimates.size(), tick_reports.size());

  const std::vector<std::string> frames = Unprefixed(ReadFile(frames_path));
  ASSERT_EQ(frames.size(), 10u);
  const wire::MethodSpec spec = TestSpec();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  auto prefix = serve::CollectorSession::Make(spec).ValueOrDie();
  size_t absorbed = 0;
  uint64_t last_reports = 0;
  for (size_t k = 0; k < estimates.size(); ++k) {
    SCOPED_TRACE("tick " + std::to_string(k + 1));
    const auto sketch = wire::DecodeSketchFrame(
        spec, *protocol, wire::FrameBytes(estimates[k]));
    ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
    const uint64_t reports = (*sketch)->num_reports();
    EXPECT_EQ(reports, tick_reports[k]);
    EXPECT_GE(reports, last_reports);
    last_reports = reports;
    ASSERT_EQ(reports % kReportsPerFrame, 0u);
    ASSERT_LE(reports / kReportsPerFrame, frames.size());
    while (absorbed < reports / kReportsPerFrame) {
      ASSERT_TRUE(prefix.HandleFrame(frames[absorbed++]).ok());
    }
    EXPECT_EQ(estimates[k], prefix.EncodeSketch().ValueOrDie());
  }
  EXPECT_EQ(absorbed, frames.size());
  EXPECT_EQ(Prefixed({estimates.back()}), ReadFile(out));
  for (const std::string& path :
       {frames_path, port, out, estimates_path, log}) {
    std::remove(path.c_str());
  }
}

// The stdio collector and the file coordinator estimate like a --listen
// collector. The input file takes four 64 KiB reads, and the cadence of 3
// does not divide its 10 frames: ticks follow the reads that complete
// frames 3, 6 and 9, and only the drain tick covers frame 10. So the
// --estimate-out stream ends with the --out sketch, byte for byte.
TEST(StdioProcessTest, StdioEstimateOutEndsWithTheDrainedSketch) {
  // 10 frames of 20 000 one-byte reports: about 200 KB.
  const std::vector<std::string> frames = MakeFrames(10, 20000, 23);
  const std::string in = Tmp("stdio_estimate_frames.bin");
  WriteFile(in, Prefixed(frames));
  const std::string out = Tmp("stdio_estimate.sketch");
  const std::string estimates_path = Tmp("stdio_estimates.bin");
  for (const std::string& input :
       {"--in=" + in, "--merge=" + in + " --emit-sketch"}) {
    SCOPED_TRACE(input);
    ASSERT_EQ(Collect(input + " --out=" + out +
                      " --estimate-every-frames=3 --estimate-out=" +
                      estimates_path),
              0);
    const std::string sketch = ReadFile(out);
    EXPECT_EQ(sketch, ReferenceSketch(frames));
    const std::vector<std::string> estimates =
        Unprefixed(ReadFile(estimates_path));
    ASSERT_GT(estimates.size(), 1u);
    EXPECT_EQ(Prefixed({estimates.back()}), sketch);
  }
  for (const std::string& path : {in, out, estimates_path}) {
    std::remove(path.c_str());
  }
}

#else

TEST(StdioProcessTest, SkippedWithoutTools) {
  GTEST_SKIP() << "collector_cli / report_client were not built "
                  "(NUMDIST_BUILD_TOOLS=OFF)";
}

#endif

}  // namespace
}  // namespace numdist
