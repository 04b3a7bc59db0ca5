// Wire codec guarantees (wire/wire.h, docs/WIRE_FORMAT.md):
//  - encode -> decode is the identity for report chunks and accumulator
//    sketches, across every method family x epsilon {0.5, 1, 4} x
//    d {16, 256, 1024};
//  - merging decoded sketches reproduces the bit-identical in-process
//    aggregate (and therefore the bit-identical reconstruction);
//  - an SW report frame (one output-bucket index per report) absorbs to
//    the counts of SwEstimator::Aggregate over the raw reports, on both
//    pipelines and at every index width;
//  - malformed input — truncated at any byte, bad magic, version skew,
//    unknown enums, mismatched method/epsilon/dimension context, trailing
//    bytes, corrupted counts, out-of-domain report indices — is a typed
//    error, never UB.
#include "wire/wire.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "data/datasets.h"
#include "protocol/sharded.h"
#include "protocol/sw_protocol.h"
#include "serve/collector.h"

namespace numdist {
namespace {

// Deterministic quasi-random values in (0, 1): cheap, seedless, and
// identical on every platform.
std::vector<double> TestValues(size_t n) { return GoldenRatioValues(n); }

void ExpectSameState(const AccumulatorState& a, const AccumulatorState& b,
                     const std::string& context) {
  EXPECT_EQ(a.num_reports, b.num_reports) << context;
  ASSERT_EQ(a.tables.size(), b.tables.size()) << context;
  for (size_t t = 0; t < a.tables.size(); ++t) {
    EXPECT_EQ(a.tables[t].n, b.tables[t].n) << context << " table " << t;
    EXPECT_EQ(a.tables[t].counts, b.tables[t].counts)
        << context << " table " << t;
  }
}

// The method family grid the property tests sweep. All of 16/256/1024 are
// powers of 4, so the HH tree constraint d = beta^h holds throughout; 16
// bins divide all three granularities.
std::vector<wire::MethodSpec> SpecsFor(double epsilon, uint32_t d) {
  std::vector<wire::MethodSpec> specs;
  for (const char* name :
       {"sw-ems", "sw-em", "cfo-16", "cfo-grr-16", "cfo-olh-16", "cfo-oue-16",
        "hh", "hh-admm", "haar-hrr"}) {
    specs.push_back(wire::ParseMethodSpec(name, epsilon, d).ValueOrDie());
  }
  return specs;
}

TEST(WireRoundTrip, ChunkAndSketchIdentityAcrossMethodsEpsilonsAndD) {
  const std::vector<double> values = TestValues(400);
  const std::span<const double> half1(values.data(), 200);
  const std::span<const double> half2(values.data() + 200, 200);

  for (const double epsilon : {0.5, 1.0, 4.0}) {
    for (const uint32_t d : {16u, 256u, 1024u}) {
      for (const wire::MethodSpec& spec : SpecsFor(epsilon, d)) {
        const std::string context =
            wire::MethodSpecName(spec) + " eps=" + std::to_string(epsilon) +
            " d=" + std::to_string(d);
        auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();

        // Two chunks from fixed client streams.
        Rng rng1(ShardSeed(9, 0)), rng2(ShardSeed(9, 1));
        auto chunk1 = protocol->EncodePerturbBatch(half1, rng1).ValueOrDie();
        auto chunk2 = protocol->EncodePerturbBatch(half2, rng2).ValueOrDie();

        // Reference: absorb both chunks directly.
        auto direct = protocol->MakeAccumulator();
        ASSERT_TRUE(direct->Absorb(*chunk1).ok()) << context;
        ASSERT_TRUE(direct->Absorb(*chunk2).ok()) << context;

        // Property 1: chunk encode -> decode -> absorb == direct absorb.
        auto via_frames = protocol->MakeAccumulator();
        for (const ReportChunk* chunk : {chunk1.get(), chunk2.get()}) {
          std::string frame;
          ASSERT_TRUE(
              wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok())
              << context;
          auto decoded = wire::DecodeReportFrame(spec, *protocol,
                                                 wire::FrameBytes(frame));
          ASSERT_TRUE(decoded.ok()) << context << ": "
                                    << decoded.status().ToString();
          ASSERT_TRUE(via_frames->Absorb(**decoded).ok()) << context;
        }
        ExpectSameState(direct->ExportState(), via_frames->ExportState(),
                        context + " [report frames]");

        // Property 2: sketch encode -> decode is the identity.
        std::string sketch;
        ASSERT_TRUE(wire::EncodeSketchFrame(spec, *direct, &sketch).ok())
            << context;
        auto imported = wire::DecodeSketchFrame(spec, *protocol,
                                                wire::FrameBytes(sketch));
        ASSERT_TRUE(imported.ok()) << context << ": "
                                   << imported.status().ToString();
        ExpectSameState(direct->ExportState(), (*imported)->ExportState(),
                        context + " [sketch frame]");

        // Property 3: merging sketches that crossed the wire reproduces
        // the in-process aggregate exactly.
        auto shard1 = protocol->MakeAccumulator();
        auto shard2 = protocol->MakeAccumulator();
        ASSERT_TRUE(shard1->Absorb(*chunk1).ok()) << context;
        ASSERT_TRUE(shard2->Absorb(*chunk2).ok()) << context;
        std::string frame1, frame2;
        ASSERT_TRUE(wire::EncodeSketchFrame(spec, *shard1, &frame1).ok());
        ASSERT_TRUE(wire::EncodeSketchFrame(spec, *shard2, &frame2).ok());
        auto merged = wire::DecodeSketchFrame(spec, *protocol,
                                              wire::FrameBytes(frame1))
                          .ValueOrDie();
        auto other = wire::DecodeSketchFrame(spec, *protocol,
                                             wire::FrameBytes(frame2))
                         .ValueOrDie();
        ASSERT_TRUE(merged->Merge(*other).ok()) << context;
        ExpectSameState(direct->ExportState(), merged->ExportState(),
                        context + " [sketch merge]");
      }
    }
  }
}

TEST(WireRoundTrip, DiscretePipelineChunksSurviveTheWire) {
  SwEstimatorOptions options;
  options.epsilon = 1.0;
  options.d = 64;
  options.pipeline = SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
  auto protocol = MakeSwProtocol(options).ValueOrDie();
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 64).ValueOrDie();

  const std::vector<double> values = TestValues(500);
  Rng rng(77);
  auto chunk = protocol->EncodePerturbBatch(values, rng).ValueOrDie();
  std::string frame;
  ASSERT_TRUE(wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok());
  auto decoded =
      wire::DecodeReportFrame(spec, *protocol, wire::FrameBytes(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  auto direct = protocol->MakeAccumulator();
  auto via_wire = protocol->MakeAccumulator();
  ASSERT_TRUE(direct->Absorb(*chunk).ok());
  ASSERT_TRUE(via_wire->Absorb(**decoded).ok());
  ExpectSameState(direct->ExportState(), via_wire->ExportState(), "discrete");

  // A continuous-pipeline endpoint must reject the discrete chunk.
  SwEstimatorOptions continuous = options;
  continuous.pipeline = SwEstimatorOptions::Pipeline::kRandomizeBeforeBucketize;
  auto continuous_protocol = MakeSwProtocol(continuous).ValueOrDie();
  auto rejected = wire::DecodeReportFrame(spec, *continuous_protocol,
                                          wire::FrameBytes(frame));
  EXPECT_FALSE(rejected.ok());
}

// SW frames carry each report's output-bucket index, which the client
// computes with the collector's own OutputBucketOf. So a frame absorbs to
// exactly the counts of the f64 server path: Aggregate over the raw
// reports PerturbBatch draws from the same seed.
TEST(WireRoundTrip, SwIndexFramesCountLikeAggregateOverRawReports) {
  using Pipeline = SwEstimatorOptions::Pipeline;
  std::vector<SwEstimatorOptions> configs;
  for (const Pipeline pipeline : {Pipeline::kRandomizeBeforeBucketize,
                                  Pipeline::kBucketizeBeforeRandomize}) {
    for (const double epsilon : {0.5, 1.0, 4.0}) {
      for (const size_t d : {16u, 256u, 1024u}) {
        configs.push_back(
            {.epsilon = epsilon, .d = d, .pipeline = pipeline});
      }
    }
  }
  // 70 000 output buckets take 4-byte indices.
  configs.push_back({.epsilon = 1.0, .d = 256, .d_out = 70000});

  const std::vector<double> values = TestValues(1500);
  for (const SwEstimatorOptions& options : configs) {
    const std::string context =
        std::string(options.pipeline == Pipeline::kBucketizeBeforeRandomize
                        ? "discrete"
                        : "continuous") +
        " eps=" + std::to_string(options.epsilon) +
        " d=" + std::to_string(options.d) +
        " d_out=" + std::to_string(options.d_out);
    const SwEstimator estimator = SwEstimator::Make(options).ValueOrDie();
    auto protocol = MakeSwProtocol(options).ValueOrDie();
    const auto spec =
        wire::ParseMethodSpec("sw-ems", options.epsilon,
                              static_cast<uint32_t>(options.d))
            .ValueOrDie();

    Rng client_rng(41);
    auto chunk = protocol->EncodePerturbBatch(values, client_rng).ValueOrDie();
    std::string frame;
    ASSERT_TRUE(wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok())
        << context;
    auto decoded =
        wire::DecodeReportFrame(spec, *protocol, wire::FrameBytes(frame));
    ASSERT_TRUE(decoded.ok()) << context << ": "
                              << decoded.status().ToString();
    auto acc = protocol->MakeAccumulator();
    ASSERT_TRUE(acc->Absorb(**decoded).ok()) << context;

    Rng reference_rng(41);
    std::vector<double> reports;
    estimator.PerturbBatch(values, reference_rng, &reports);
    const std::vector<uint64_t> expected = estimator.Aggregate(reports);
    const AccumulatorState state = acc->ExportState();
    ASSERT_EQ(state.tables.size(), 1u) << context;
    EXPECT_EQ(state.num_reports, values.size()) << context;
    EXPECT_EQ(std::vector<uint64_t>(state.tables[0].counts.begin(),
                                    state.tables[0].counts.end()),
              expected)
        << context;
  }
}

TEST(WireRoundTrip, SwReportFramesCarryOneNarrowIndexPerReport) {
  // 38 bytes of preamble, method block, pipeline flag, output buckets and
  // count, then one index per report: 1 byte up to 256 output buckets, 2
  // up to 65 536, 4 beyond.
  const std::vector<double> values = TestValues(500);
  for (const auto& [d, bytes] : {std::pair<uint32_t, size_t>{256, 538},
                                 {1024, 1038},
                                 {70000, 2038}}) {
    const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, d).ValueOrDie();
    auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
    Rng rng(5);
    auto chunk = protocol->EncodePerturbBatch(values, rng).ValueOrDie();
    std::string frame;
    ASSERT_TRUE(wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok());
    EXPECT_EQ(frame.size(), bytes) << "d=" << d;
  }
}

// Resident memory of this process in bytes (/proc/self/statm).
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0;
  size_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST(WireRoundTrip, EncodingAtTheLargestGranularityBuildsNoPerBucketState) {
  // A protocol that only encodes must not pay for reconstruction state:
  // the SW operator's band tables (over 100 MB at d = 2^20 for the
  // continuous pipeline, about 40 MB for the discrete one) are built by
  // the first product, not by the protocol.
  const std::vector<double> values = TestValues(500);
  const size_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  SwEstimatorOptions discrete;
  discrete.epsilon = 1.0;
  discrete.d = wire::kMaxGranularity;
  discrete.pipeline = SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
  std::vector<ProtocolPtr> protocols;
  for (int i = 0; i < 5; ++i) {
    const auto spec = wire::ParseMethodSpec("sw-ems", 1.0,
                                            wire::kMaxGranularity)
                          .ValueOrDie();
    protocols.push_back(i < 4 ? wire::MakeProtocolForSpec(spec).ValueOrDie()
                              : MakeSwProtocol(discrete).ValueOrDie());
    Rng rng(11 + i);
    auto chunk = protocols.back()->EncodePerturbBatch(values, rng).ValueOrDie();
    std::string frame;
    ASSERT_TRUE(
        wire::EncodeReportFrame(spec, *protocols.back(), *chunk, &frame).ok());
  }
  EXPECT_LT(ResidentBytes(), before + (size_t{16} << 20));
}

TEST(WireRoundTrip, ReconstructionAfterTheWireIsBitIdentical) {
  const std::vector<double> values = TestValues(20000);
  for (const char* name : {"sw-ems", "cfo-olh-16"}) {
    const auto spec = wire::ParseMethodSpec(name, 1.0, 64).ValueOrDie();
    auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();

    // In-process sharded reference.
    ShardOptions opts;
    opts.shard_size = 4096;
    opts.threads = 2;
    auto reference = AccumulateSharded(*protocol, values, 7, opts).ValueOrDie();
    auto reference_out = protocol->Reconstruct(*reference).ValueOrDie();

    // The same chunks, each crossing the wire as a report frame into one
    // of two "collector" accumulators, whose sketches then cross the wire
    // to a "coordinator".
    const size_t num_shards = (values.size() + opts.shard_size - 1) /
                              opts.shard_size;
    auto collector0 = protocol->MakeAccumulator();
    auto collector1 = protocol->MakeAccumulator();
    for (size_t i = 0; i < num_shards; ++i) {
      const size_t begin = i * opts.shard_size;
      const size_t len = std::min(opts.shard_size, values.size() - begin);
      Rng rng(ShardSeed(7, i));
      auto chunk = protocol
                       ->EncodePerturbBatch(
                           std::span<const double>(values).subspan(begin, len),
                           rng)
                       .ValueOrDie();
      std::string frame;
      ASSERT_TRUE(
          wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok());
      auto decoded =
          wire::DecodeReportFrame(spec, *protocol, wire::FrameBytes(frame))
              .ValueOrDie();
      Accumulator& target = (i % 2 == 0) ? *collector0 : *collector1;
      ASSERT_TRUE(target.Absorb(*decoded).ok());
    }
    std::string sketch0, sketch1;
    ASSERT_TRUE(wire::EncodeSketchFrame(spec, *collector0, &sketch0).ok());
    ASSERT_TRUE(wire::EncodeSketchFrame(spec, *collector1, &sketch1).ok());
    auto coordinator =
        wire::DecodeSketchFrame(spec, *protocol, wire::FrameBytes(sketch0))
            .ValueOrDie();
    auto remote =
        wire::DecodeSketchFrame(spec, *protocol, wire::FrameBytes(sketch1))
            .ValueOrDie();
    ASSERT_TRUE(coordinator->Merge(*remote).ok());
    auto wire_out = protocol->Reconstruct(*coordinator).ValueOrDie();

    ASSERT_EQ(reference_out.distribution.size(), wire_out.distribution.size());
    EXPECT_EQ(0, std::memcmp(reference_out.distribution.data(),
                             wire_out.distribution.data(),
                             wire_out.distribution.size() * sizeof(double)))
        << name;
  }
}

TEST(WireSpec, ParseMethodSpecCoversTheCliNames) {
  EXPECT_EQ(wire::ParseMethodSpec("sw-ems", 1.0, 64)->method,
            wire::MethodId::kSwEms);
  EXPECT_EQ(wire::ParseMethodSpec("cfo-32", 1.0, 64)->param, 32u);
  EXPECT_EQ(wire::ParseMethodSpec("cfo-grr-8", 1.0, 64)->method,
            wire::MethodId::kCfoGrr);
  EXPECT_EQ(wire::ParseMethodSpec("cfo-olh-16", 1.0, 64)->method,
            wire::MethodId::kCfoOlh);
  EXPECT_EQ(wire::ParseMethodSpec("cfo-oue-16", 1.0, 64)->method,
            wire::MethodId::kCfoOue);
  EXPECT_EQ(wire::ParseMethodSpec("hh", 1.0, 64)->param, 4u);
  EXPECT_EQ(wire::ParseMethodSpec("hh-admm", 1.0, 64)->method,
            wire::MethodId::kHhAdmm);
  EXPECT_EQ(wire::ParseMethodSpec("haar-hrr", 1.0, 64)->method,
            wire::MethodId::kHaarHrr);
  EXPECT_FALSE(wire::ParseMethodSpec("sw", 1.0, 64).ok());
  EXPECT_FALSE(wire::ParseMethodSpec("cfo-", 1.0, 64).ok());
  EXPECT_FALSE(wire::ParseMethodSpec("cfo-12x", 1.0, 64).ok());
  // The bin-count ceiling must hold for every digit count.
  EXPECT_FALSE(wire::ParseMethodSpec("cfo-grr-100001", 1.0, 64).ok());
  EXPECT_FALSE(wire::ParseMethodSpec("cfo-grr-999999", 1.0, 64).ok());
  EXPECT_FALSE(
      wire::ParseMethodSpec("cfo-grr-99999999999999999999", 1.0, 64).ok());
  EXPECT_EQ(wire::ParseMethodSpec("cfo-grr-100000", 1.0, 64)->param, 100000u);
  // Round trip through the display name.
  for (const char* name : {"sw-ems", "cfo-16", "cfo-olh-32", "hh-admm"}) {
    EXPECT_EQ(wire::MethodSpecName(*wire::ParseMethodSpec(name, 1.0, 64)),
              name);
  }
}

// The granularity d is range-checked before anything is sized by it, and
// without narrowing: 2^32 + 64 must not pass as 64. A spec built field by
// field meets the same check when its protocol is made (cfo-16 at d = 0
// would otherwise pass, since 16 divides 0).
TEST(WireSpec, GranularityOutsideTwoToTwoToTheTwentyIsRefused) {
  constexpr uint64_t kTop = uint64_t{1} << 20;
  for (const uint64_t d : {uint64_t{0}, uint64_t{1}, kTop + 1,
                           (uint64_t{1} << 32) + 64}) {
    for (const char* name : {"sw-ems", "cfo-16", "hh"}) {
      EXPECT_EQ(wire::ParseMethodSpec(name, 1.0, d).status().code(),
                StatusCode::kInvalidArgument)
          << name << " d=" << d;
    }
  }
  for (const uint64_t d : {uint64_t{2}, kTop}) {
    const Result<wire::MethodSpec> spec = wire::ParseMethodSpec("hh", 1.0, d);
    ASSERT_TRUE(spec.ok()) << d << ": " << spec.status().ToString();
    EXPECT_EQ(spec->d, d);
  }

  wire::MethodSpec direct =
      wire::ParseMethodSpec("cfo-16", 1.0, 64).ValueOrDie();
  for (const uint32_t d : {0u, 1u, static_cast<uint32_t>(kTop) + 16}) {
    direct.d = d;
    EXPECT_EQ(wire::MakeProtocolForSpec(direct).status().code(),
              StatusCode::kInvalidArgument)
        << "d=" << d;
  }
}

TEST(WireSpec, SwEstimatorOptionsForSpecIsTheProtocolsMapping) {
  // Both SW specs map to an estimator whose output buckets match the
  // spec's accumulator count layout, with the spec's post-processing.
  for (const char* name : {"sw-ems", "sw-em"}) {
    const wire::MethodSpec spec =
        wire::ParseMethodSpec(name, 0.5, 256).ValueOrDie();
    const SwEstimatorOptions options =
        wire::SwEstimatorOptionsForSpec(spec).ValueOrDie();
    EXPECT_EQ(options.epsilon, 0.5) << name;
    EXPECT_EQ(options.d, 256u) << name;
    EXPECT_EQ(options.post, spec.method == wire::MethodId::kSwEms
                                ? SwEstimatorOptions::Post::kEms
                                : SwEstimatorOptions::Post::kEm)
        << name;
    const SwEstimator estimator = SwEstimator::Make(options).ValueOrDie();
    auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
    const AccumulatorState state = protocol->MakeAccumulator()->ExportState();
    ASSERT_EQ(state.tables.size(), 1u) << name;
    EXPECT_EQ(state.tables[0].counts.size(), estimator.output_buckets())
        << name;
  }
  // Every other family is refused.
  for (const char* name : {"cfo-16", "hh", "haar-hrr"}) {
    const auto options = wire::SwEstimatorOptionsForSpec(
        wire::ParseMethodSpec(name, 1.0, 64).ValueOrDie());
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

// ---------------------------------------------------------------------------
// Malformed input. A small SW frame keeps the truncation sweep cheap.

class WireRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = wire::ParseMethodSpec("sw-ems", 1.0, 16).ValueOrDie();
    protocol_ = wire::MakeProtocolForSpec(spec_).ValueOrDie();
    const std::vector<double> values = TestValues(8);
    Rng rng(3);
    chunk_ = protocol_->EncodePerturbBatch(values, rng).ValueOrDie();
    ASSERT_TRUE(wire::EncodeReportFrame(spec_, *protocol_, *chunk_,
                                        &report_frame_)
                    .ok());
    acc_ = protocol_->MakeAccumulator();
    ASSERT_TRUE(acc_->Absorb(*chunk_).ok());
    ASSERT_TRUE(wire::EncodeSketchFrame(spec_, *acc_, &sketch_frame_).ok());
  }

  Status DecodeReport(const std::string& frame) {
    return wire::DecodeReportFrame(spec_, *protocol_, wire::FrameBytes(frame))
        .status();
  }
  Status DecodeSketch(const std::string& frame) {
    return wire::DecodeSketchFrame(spec_, *protocol_, wire::FrameBytes(frame))
        .status();
  }

  wire::MethodSpec spec_;
  ProtocolPtr protocol_;
  std::unique_ptr<ReportChunk> chunk_;
  std::unique_ptr<Accumulator> acc_;
  std::string report_frame_;
  std::string sketch_frame_;
};

TEST_F(WireRejectionTest, EveryTruncationIsATypedError) {
  for (size_t len = 0; len < report_frame_.size(); ++len) {
    const Status st = DecodeReport(report_frame_.substr(0, len));
    EXPECT_FALSE(st.ok()) << "report frame truncated to " << len << " bytes";
  }
  for (size_t len = 0; len < sketch_frame_.size(); ++len) {
    const Status st = DecodeSketch(sketch_frame_.substr(0, len));
    EXPECT_FALSE(st.ok()) << "sketch frame truncated to " << len << " bytes";
  }
}

TEST_F(WireRejectionTest, BadMagicVersionSkewFlagsAndFrameType) {
  std::string frame = report_frame_;
  frame[0] = static_cast<char>(frame[0] ^ 0xFF);
  Status st = DecodeReport(frame);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("magic"), std::string::npos);

  frame = report_frame_;
  frame[4] = static_cast<char>(wire::kVersion + 1);  // version low byte
  st = DecodeReport(frame);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("version"), std::string::npos);

  // A version-1 frame (f64 SW reports) is skew too, never a misread.
  frame = report_frame_;
  frame[4] = 1;
  st = DecodeReport(frame);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("version 1"), std::string::npos);

  frame = report_frame_;
  frame[7] = 1;  // tenant flag on a frame without a tenant block
  EXPECT_FALSE(DecodeReport(frame).ok());

  frame = report_frame_;
  frame[6] = 9;  // unknown frame type
  EXPECT_FALSE(DecodeReport(frame).ok());
  EXPECT_FALSE(wire::PeekFrame(wire::FrameBytes(frame)).ok());

  // Type 3 is retired: an unknown frame type like any other.
  frame = report_frame_;
  frame[6] = 3;
  const auto retired = wire::PeekFrame(wire::FrameBytes(frame));
  EXPECT_EQ(retired.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(retired.status().message(), "wire: unknown frame type 3");
  EXPECT_FALSE(DecodeReport(frame).ok());

  // Right preamble, wrong frame kind for the call.
  EXPECT_FALSE(DecodeReport(sketch_frame_).ok());
  EXPECT_FALSE(DecodeSketch(report_frame_).ok());
  EXPECT_FALSE(wire::DecodeAckFrame(report_frame_).ok());
}

TEST_F(WireRejectionTest, UnknownMethodIdIsRejected) {
  std::string frame = report_frame_;
  frame[8] = 99;  // method id byte
  EXPECT_FALSE(DecodeReport(frame).ok());
  EXPECT_FALSE(wire::PeekFrame(wire::FrameBytes(frame)).ok());
}

TEST_F(WireRejectionTest, ContextMismatchesAreRejected) {
  // Wrong method at the endpoint.
  const auto em_spec = wire::ParseMethodSpec("sw-em", 1.0, 16).ValueOrDie();
  auto em_protocol = wire::MakeProtocolForSpec(em_spec).ValueOrDie();
  Status st = wire::DecodeReportFrame(em_spec, *em_protocol,
                                      wire::FrameBytes(report_frame_))
                  .status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("method"), std::string::npos);

  // Wrong epsilon (bit-exact comparison).
  const auto eps_spec = wire::ParseMethodSpec("sw-ems", 2.0, 16).ValueOrDie();
  auto eps_protocol = wire::MakeProtocolForSpec(eps_spec).ValueOrDie();
  st = wire::DecodeReportFrame(eps_spec, *eps_protocol,
                               wire::FrameBytes(report_frame_))
           .status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("epsilon"), std::string::npos);

  // Wrong granularity.
  const auto d_spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  auto d_protocol = wire::MakeProtocolForSpec(d_spec).ValueOrDie();
  st = wire::DecodeSketchFrame(d_spec, *d_protocol,
                               wire::FrameBytes(sketch_frame_))
           .status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("granularity"), std::string::npos);
}

TEST_F(WireRejectionTest, TrailingBytesAreRejected) {
  Status st = DecodeReport(report_frame_ + std::string(1, '\0'));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("trailing"), std::string::npos);
  st = DecodeSketch(sketch_frame_ + std::string(3, 'x'));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("trailing"), std::string::npos);
}

TEST_F(WireRejectionTest, CorruptedSketchCountsAreRejected) {
  // Sketch payload layout: preamble (8) + method block (17) + num_reports
  // (8) + table count (4) + table n (8) + length (8) puts the first i64
  // count at offset 53. Forcing its sign bit makes it negative, which the
  // SW import integrity checks must refuse.
  ASSERT_GT(sketch_frame_.size(), 61u);
  std::string frame = sketch_frame_;
  frame[60] = static_cast<char>(0x80);
  EXPECT_FALSE(DecodeSketch(frame).ok());
}

TEST_F(WireRejectionTest, PoisonedCfoCountsAreRejected) {
  // CFO sketch cells are per-user 0/1 contributions, so any imported
  // count outside [0, n] is corruption, not data.
  const auto spec = wire::ParseMethodSpec("cfo-grr-16", 1.0, 16).ValueOrDie();
  auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  Rng rng(4);
  auto chunk = protocol->EncodePerturbBatch(TestValues(50), rng).ValueOrDie();
  auto acc = protocol->MakeAccumulator();
  ASSERT_TRUE(acc->Absorb(*chunk).ok());

  AccumulatorState negative = acc->ExportState();
  negative.tables[0].counts[0] = -1;
  EXPECT_FALSE(protocol->MakeAccumulator()->ImportState(negative).ok());

  AccumulatorState oversized = acc->ExportState();
  oversized.tables[0].counts[0] =
      static_cast<int64_t>(oversized.num_reports) + 1;
  EXPECT_FALSE(protocol->MakeAccumulator()->ImportState(oversized).ok());

  // The untouched export still imports cleanly.
  EXPECT_TRUE(protocol->MakeAccumulator()->ImportState(acc->ExportState())
                  .ok());
}

TEST_F(WireRejectionTest, PoisonedHierarchyCountsAreRejected) {
  // HH level tables are categorical FO counts in [0, n]; Haar level
  // tables are signed correlations in [-n, n]. Anything outside the band
  // is corruption.
  for (const char* name : {"hh", "haar-hrr"}) {
    const auto spec = wire::ParseMethodSpec(name, 1.0, 16).ValueOrDie();
    auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
    Rng rng(6);
    auto chunk =
        protocol->EncodePerturbBatch(TestValues(50), rng).ValueOrDie();
    auto acc = protocol->MakeAccumulator();
    ASSERT_TRUE(acc->Absorb(*chunk).ok()) << name;

    // Find a level that received reports and push a count out of band.
    AccumulatorState oversized = acc->ExportState();
    for (AccumulatorTable& table : oversized.tables) {
      if (table.n > 0) {
        table.counts[0] = static_cast<int64_t>(table.n) + 1;
        break;
      }
    }
    EXPECT_FALSE(protocol->MakeAccumulator()->ImportState(oversized).ok())
        << name;

    if (std::string(name) == "hh") {
      AccumulatorState negative = acc->ExportState();
      negative.tables[0].counts[0] = -1;
      EXPECT_FALSE(protocol->MakeAccumulator()->ImportState(negative).ok())
          << name;
    }

    // The untouched export still imports cleanly.
    EXPECT_TRUE(
        protocol->MakeAccumulator()->ImportState(acc->ExportState()).ok())
        << name;
  }
}

TEST_F(WireRejectionTest, OutOfDomainIndicesAreRejected) {
  // An SW report is an output-bucket index, and Absorb indexes the count
  // vector with it, so the decoder must refuse any index >= the output
  // buckets at every index width. Report payload layout: preamble (8) +
  // method block (17) + pipeline flag (1) + output buckets (4) + count (8)
  // puts the first index at offset 38. A collector handed such a frame
  // keeps its sketch byte for byte.
  struct Case {
    uint32_t d;  // = output buckets on the continuous pipeline
    size_t width;
    std::vector<uint32_t> bad;
  };
  const std::vector<Case> cases = {
      {16, 1, {16, 0xFF}},
      {1024, 2, {1024, 0xFFFF}},
      {70000, 4, {70000, 0xFFFFFFFF}},
  };
  for (const Case& c : cases) {
    const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, c.d).ValueOrDie();
    auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
    Rng rng(3);
    auto chunk = protocol->EncodePerturbBatch(TestValues(8), rng).ValueOrDie();
    std::string frame;
    ASSERT_TRUE(wire::EncodeReportFrame(spec, *protocol, *chunk, &frame).ok());
    ASSERT_EQ(frame.size(), 38 + 8 * c.width) << "d=" << c.d;

    auto session = serve::CollectorSession::Make(spec).ValueOrDie();
    ASSERT_TRUE(session.HandleFrame(frame).ok());
    const std::string sketch = session.EncodeSketch().ValueOrDie();
    for (const uint32_t index : c.bad) {
      for (const size_t report : {size_t{0}, size_t{7}}) {
        const std::string context = "d=" + std::to_string(c.d) +
                                    " index=" + std::to_string(index) +
                                    " report=" + std::to_string(report);
        std::string hostile = frame;
        for (size_t b = 0; b < c.width; ++b) {
          hostile[38 + report * c.width + b] =
              static_cast<char>((index >> (8 * b)) & 0xFF);
        }
        const Status st = wire::DecodeReportFrame(spec, *protocol,
                                                  wire::FrameBytes(hostile))
                              .status();
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << context;
        EXPECT_NE(st.message().find("output domain"), std::string::npos)
            << context << ": " << st.ToString();
        EXPECT_EQ(session.HandleFrame(hostile).code(),
                  StatusCode::kInvalidArgument)
            << context;
        EXPECT_EQ(session.EncodeSketch().ValueOrDie(), sketch) << context;
      }
    }
  }
}

TEST_F(WireRejectionTest, WrappingCountSumsAreRejected) {
  // Counts whose u64 sum wraps mod 2^64 back onto the report count must
  // not pass the import integrity checks: each addition is
  // overflow-checked, so "sum == n via wraparound" is a typed error, not
  // an accepted state.
  AccumulatorState state = acc_->ExportState();
  ASSERT_EQ(state.tables.size(), 1u);
  ASSERT_GE(state.tables[0].counts.size(), 5u);
  const uint64_t n = state.num_reports;
  std::fill(state.tables[0].counts.begin(), state.tables[0].counts.end(),
            int64_t{0});
  // Four 2^62 terms sum to 2^64 ≡ 0, then + n lands exactly on n.
  for (size_t i = 0; i < 4; ++i) {
    state.tables[0].counts[i] = int64_t{1} << 62;
  }
  state.tables[0].counts[4] = static_cast<int64_t>(n);
  auto fresh = protocol_->MakeAccumulator();
  EXPECT_FALSE(fresh->ImportState(state).ok());
}

// ---------------------------------------------------------------------------
// Sequence context and ack frames: the exactly-once substrate under client
// retry (net/retry.h). Stamping must be payload-preserving, acks must
// round-trip bit-exactly, and every malformed shape is a typed error.

TEST_F(WireRejectionTest, StampedFramesDecodeToTheSamePayload) {
  // A stamped report frame peeks with the sequence context visible and
  // decodes to the identical chunk.
  std::string stamped = report_frame_;
  ASSERT_TRUE(
      wire::StampSequenceContext(&stamped, {.epoch = 7, .seq = 3}).ok());
  const wire::FrameInfo info =
      wire::PeekFrame(wire::FrameBytes(stamped)).ValueOrDie();
  EXPECT_EQ(info.type, wire::FrameType::kReports);
  ASSERT_TRUE(info.has_seq);
  EXPECT_EQ(info.seq.epoch, 7u);
  EXPECT_EQ(info.seq.seq, 3u);
  auto decoded =
      wire::DecodeReportFrame(spec_, *protocol_, wire::FrameBytes(stamped));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto via_stamped = protocol_->MakeAccumulator();
  ASSERT_TRUE(via_stamped->Absorb(**decoded).ok());
  ExpectSameState(acc_->ExportState(), via_stamped->ExportState(),
                  "stamped report");

  // Same property for sketch frames (the retry sender numbers both kinds).
  std::string sketch = sketch_frame_;
  ASSERT_TRUE(
      wire::StampSequenceContext(&sketch, {.epoch = 1, .seq = 1}).ok());
  auto imported =
      wire::DecodeSketchFrame(spec_, *protocol_, wire::FrameBytes(sketch));
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  ExpectSameState(acc_->ExportState(), (*imported)->ExportState(),
                  "stamped sketch");
}

TEST_F(WireRejectionTest, StampRejectsTheReservedAndIllegalShapes) {
  // seq 0 is reserved (sequence numbers start at 1).
  std::string frame = report_frame_;
  EXPECT_FALSE(
      wire::StampSequenceContext(&frame, {.epoch = 1, .seq = 0}).ok());
  EXPECT_EQ(frame, report_frame_) << "a rejected stamp must not mutate";

  // Double-stamping is a typed error, not a silent second block.
  ASSERT_TRUE(
      wire::StampSequenceContext(&frame, {.epoch = 1, .seq = 1}).ok());
  EXPECT_FALSE(
      wire::StampSequenceContext(&frame, {.epoch = 1, .seq = 2}).ok());

  // Ack frames and frames of the retired type 3 never carry a sequence
  // context.
  std::string retired = sketch_frame_;
  retired[6] = 3;
  EXPECT_FALSE(
      wire::StampSequenceContext(&retired, {.epoch = 1, .seq = 1}).ok());
  std::string ack;
  ASSERT_TRUE(wire::EncodeAckFrame({.epoch = 1, .seq = 1}, &ack).ok());
  EXPECT_FALSE(
      wire::StampSequenceContext(&ack, {.epoch = 1, .seq = 1}).ok());
}

TEST_F(WireRejectionTest, AckFramesRoundTripAndRejectStrictly) {
  const wire::FrameSeq seq = {.epoch = 0xDEADBEEFCAFEF00Dull,
                              .seq = (1ull << 53) + 17};
  std::string ack;
  ASSERT_TRUE(wire::EncodeAckFrame(seq, &ack).ok());
  const wire::FrameInfo info =
      wire::PeekFrame(wire::FrameBytes(ack)).ValueOrDie();
  EXPECT_EQ(info.type, wire::FrameType::kAck);
  ASSERT_TRUE(info.has_seq);
  const wire::FrameSeq decoded = wire::DecodeAckFrame(ack).ValueOrDie();
  EXPECT_EQ(decoded.epoch, seq.epoch);
  EXPECT_EQ(decoded.seq, seq.seq);

  // Every truncation is a typed error, never UB.
  for (size_t len = 0; len < ack.size(); ++len) {
    EXPECT_FALSE(wire::DecodeAckFrame(ack.substr(0, len)).ok())
        << "ack truncated to " << len << " bytes";
  }
  // Trailing bytes, a non-ack frame, and an acked seq of 0 are rejected.
  EXPECT_FALSE(wire::DecodeAckFrame(ack + std::string(1, '\0')).ok());
  EXPECT_FALSE(wire::DecodeAckFrame(report_frame_).ok());
  std::string zero_seq;
  ASSERT_TRUE(wire::EncodeAckFrame({.epoch = 3, .seq = 1}, &zero_seq).ok());
  // The u64 seq sits in the last 8 payload bytes; zero them.
  for (size_t i = zero_seq.size() - 8; i < zero_seq.size(); ++i) {
    zero_seq[i] = '\0';
  }
  EXPECT_FALSE(wire::DecodeAckFrame(zero_seq).ok());
}

}  // namespace
}  // namespace numdist
