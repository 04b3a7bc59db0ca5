// Cross-process determinism (the acceptance invariant of the wire +
// collector stack): N real child OS processes — report_client fleets piped
// into collector_cli daemons — produce sketch files whose merged
// reconstruction is byte-identical to a single-process sharded run with
// the same seed, and the coordinator CLI prints the same estimate in any
// merge order. Tool locations come from CMake (NUMDIST_*_PATH); the test
// self-skips when the tools were not built.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
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

std::vector<double> TestValues(size_t n) { return GoldenRatioValues(n); }

std::string WriteValuesFile(const std::vector<double>& values) {
  const std::string path = testing::TempDir() + "wire_process_values.csv";
  std::ofstream out(path);
  for (double v : values) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g\n", v);
    out << buf;
  }
  EXPECT_TRUE(out.good());
  return path;
}

// Runs a shell pipeline; returns its exit code.
int RunPipeline(const std::string& command) {
  const int rc = std::system(command.c_str());
  return rc;
}

// Captures stdout of a command via popen.
std::string RunAndCapture(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return "";
  std::string output;
  char buf[4096];
  size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output.append(buf, got);
  }
  EXPECT_EQ(pclose(pipe), 0) << command;
  return output;
}

struct ProcessRunConfig {
  std::string method;
  double epsilon = 1.0;
  size_t buckets = 64;
};

void RunCrossProcessCheck(const ProcessRunConfig& config) {
  const std::string collector = NUMDIST_COLLECTOR_CLI_PATH;
  const std::string client = NUMDIST_REPORT_CLIENT_PATH;
  const uint64_t seed = 7;
  const size_t shard_size = 4096;
  const size_t processes = 2;

  const std::vector<double> values = TestValues(20000);
  const std::string values_path = WriteValuesFile(values);

  // In-process sharded reference with the same seed and shard layout.
  const auto spec =
      wire::ParseMethodSpec(config.method, config.epsilon,
                            static_cast<uint32_t>(config.buckets))
          .ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  ShardOptions opts;
  opts.shard_size = shard_size;
  opts.threads = 2;
  auto reference =
      RunProtocolSharded(*protocol, values, seed, opts).ValueOrDie();

  const std::string common_flags =
      " --method=" + config.method +
      " --epsilon=" + std::to_string(config.epsilon) +
      " --buckets=" + std::to_string(config.buckets);

  // Child process pairs: client k of P | collector k -> sketch file k.
  std::vector<std::string> sketch_paths;
  for (size_t k = 0; k < processes; ++k) {
    const std::string sketch_path = testing::TempDir() + "wire_process_" +
                                    config.method + "_" + std::to_string(k) +
                                    ".sketch";
    sketch_paths.push_back(sketch_path);
    const std::string command =
        "'" + client + "'" + common_flags + " --input='" + values_path +
        "'" + " --seed=" + std::to_string(seed) +
        " --shard-size=" + std::to_string(shard_size) +
        " --offset=" + std::to_string(k) +
        " --stride=" + std::to_string(processes) + " 2>/dev/null | '" +
        collector + "'" + common_flags + " --out='" + sketch_path +
        "' 2>/dev/null";
    ASSERT_EQ(RunPipeline(command), 0) << command;
  }

  // Coordinator (in-process): merge the children's sketch files.
  auto coordinator = serve::CollectorSession::Make(spec).ValueOrDie();
  for (const std::string& path : sketch_paths) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    serve::FrameDecoder decoder;
    ASSERT_TRUE(decoder
                    .Feed(std::string(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()))
                    .ok())
        << path;
    std::string frame;
    ASSERT_TRUE(decoder.Next(&frame)) << path;
    ASSERT_TRUE(coordinator.HandleFrame(frame).ok()) << path;
  }
  EXPECT_EQ(coordinator.num_reports(), values.size());
  auto merged = coordinator.Reconstruct().ValueOrDie();

  // Byte-identical to the single-process sharded run.
  ASSERT_EQ(merged.distribution.size(), reference.distribution.size());
  EXPECT_EQ(0, std::memcmp(merged.distribution.data(),
                           reference.distribution.data(),
                           reference.distribution.size() * sizeof(double)))
      << config.method;

  // Coordinator CLI agrees, and merge order does not matter.
  const std::string forward = RunAndCapture(
      "'" + collector + "'" + common_flags + " --merge='" + sketch_paths[0] +
      "," + sketch_paths[1] + "' --csv 2>/dev/null");
  const std::string reverse = RunAndCapture(
      "'" + collector + "'" + common_flags + " --merge='" + sketch_paths[1] +
      "," + sketch_paths[0] + "' --csv 2>/dev/null");
  EXPECT_EQ(forward, reverse) << config.method;

  // The CLI's printed distribution matches the in-process estimate exactly
  // (%.17g round-trips doubles).
  std::vector<double> printed;
  std::stringstream ss(forward);
  std::string line;
  std::getline(ss, line);  // header
  while (std::getline(ss, line)) {
    const size_t comma = line.find(',');
    ASSERT_NE(comma, std::string::npos) << line;
    printed.push_back(strtod(line.c_str() + comma + 1, nullptr));
  }
  ASSERT_EQ(printed.size(), merged.distribution.size()) << config.method;
  for (size_t i = 0; i < printed.size(); ++i) {
    EXPECT_EQ(printed[i], merged.distribution[i])
        << config.method << " bucket " << i;
  }

  std::remove(values_path.c_str());
  for (const std::string& path : sketch_paths) std::remove(path.c_str());
}

TEST(WireProcessTest, TwoChildProcessesMatchSingleProcessShardedRun) {
  RunCrossProcessCheck({.method = "sw-ems", .epsilon = 1.0, .buckets = 64});
}

TEST(WireProcessTest, CrossProcessOlhPipelineIsBitIdentical) {
  RunCrossProcessCheck(
      {.method = "cfo-olh-16", .epsilon = 1.0, .buckets = 64});
}

// A 2-level coordinator tree built from the real binaries: four leaf
// collectors, two interior --merge --emit-sketch coordinators, one root —
// the root's CSV and re-emitted sketch bytes must equal the flat
// single-coordinator merge of all four leaves.
TEST(WireProcessTest, TwoLevelCoordinatorTreeMatchesFlatMerge) {
  const std::string collector = NUMDIST_COLLECTOR_CLI_PATH;
  const std::string client = NUMDIST_REPORT_CLIENT_PATH;
  const std::string common_flags =
      " --method=sw-ems --epsilon=1.0 --buckets=64";
  const std::string tmp = testing::TempDir();

  const std::vector<double> values = TestValues(16000);
  const std::string values_path = WriteValuesFile(values);

  // Four leaf collectors over a 4-way shard partition.
  std::vector<std::string> leaves;
  for (size_t k = 0; k < 4; ++k) {
    const std::string sketch = tmp + "tree_leaf_" + std::to_string(k) +
                               ".sketch";
    leaves.push_back(sketch);
    const std::string command =
        "'" + client + "'" + common_flags + " --input='" + values_path +
        "' --seed=7 --shard-size=2048 --offset=" + std::to_string(k) +
        " --stride=4 2>/dev/null | '" + collector + "'" + common_flags +
        " --out='" + sketch + "' 2>/dev/null";
    ASSERT_EQ(RunPipeline(command), 0) << command;
  }

  // Interior coordinators re-emit merged sketches instead of estimating.
  const std::string left = tmp + "tree_left.sketch";
  const std::string right = tmp + "tree_right.sketch";
  ASSERT_EQ(RunPipeline("'" + collector + "'" + common_flags + " --merge='" +
                        leaves[0] + "," + leaves[1] +
                        "' --emit-sketch --out='" + left + "' 2>/dev/null"),
            0);
  ASSERT_EQ(RunPipeline("'" + collector + "'" + common_flags + " --merge='" +
                        leaves[2] + "," + leaves[3] +
                        "' --emit-sketch --out='" + right + "' 2>/dev/null"),
            0);

  // Root of the tree vs the flat merge: identical CSV estimates...
  const std::string tree_csv = RunAndCapture(
      "'" + collector + "'" + common_flags + " --merge='" + left + "," +
      right + "' --csv 2>/dev/null");
  const std::string flat_csv = RunAndCapture(
      "'" + collector + "'" + common_flags + " --merge='" + leaves[0] + "," +
      leaves[1] + "," + leaves[2] + "," + leaves[3] + "' --csv 2>/dev/null");
  EXPECT_FALSE(tree_csv.empty());
  EXPECT_EQ(tree_csv, flat_csv);

  // ...and byte-identical re-emitted root sketch files.
  const std::string tree_root = tmp + "tree_root.sketch";
  const std::string flat_root = tmp + "tree_flat.sketch";
  ASSERT_EQ(RunPipeline("'" + collector + "'" + common_flags + " --merge='" +
                        left + "," + right + "' --emit-sketch --out='" +
                        tree_root + "' 2>/dev/null"),
            0);
  ASSERT_EQ(RunPipeline("'" + collector + "'" + common_flags + " --merge='" +
                        leaves[0] + "," + leaves[1] + "," + leaves[2] + "," +
                        leaves[3] + "' --emit-sketch --out='" + flat_root +
                        "' 2>/dev/null"),
            0);
  std::ifstream a(tree_root, std::ios::binary);
  std::ifstream b(flat_root, std::ios::binary);
  const std::string a_bytes((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string b_bytes((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(a_bytes.empty());
  EXPECT_EQ(a_bytes, b_bytes);

  std::remove(values_path.c_str());
  for (const std::string& path :
       {leaves[0], leaves[1], leaves[2], leaves[3], left, right, tree_root,
        flat_root}) {
    std::remove(path.c_str());
  }
}

#else

TEST(WireProcessTest, SkippedWithoutTools) {
  GTEST_SKIP() << "collector_cli / report_client were not built "
                  "(NUMDIST_BUILD_TOOLS=OFF)";
}

#endif

}  // namespace
}  // namespace numdist
