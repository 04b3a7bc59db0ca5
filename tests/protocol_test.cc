// Batched-path guarantees: accumulator merges are associative, shard/thread
// layout never changes estimates, and chunk-based and report-based server
// paths agree bit-for-bit for every frequency oracle.
#include "protocol/protocol.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "data/datasets.h"
#include "eval/runner.h"
#include "fo/adaptive.h"
#include "fo/grr.h"
#include "fo/hrr.h"
#include "fo/olh.h"
#include "fo/oue.h"
#include "protocol/cfo_protocol.h"
#include "protocol/sharded.h"
#include "protocol/sw_protocol.h"
#include "wire/wire.h"

namespace numdist {
namespace {

std::vector<double> TestValues(size_t n) {
  Rng rng(1234);
  return GenerateDataset(DatasetId::kBeta, n, rng);
}

ProtocolPtr MakeMethod(const char* name, double epsilon, size_t d) {
  return wire::MakeProtocolForSpec(
             wire::ParseMethodSpec(name, epsilon, d).ValueOrDie())
      .ValueOrDie();
}

// Reconstructed outputs must agree exactly: same distribution vector and
// same range-query answers.
void ExpectSameOutput(const MethodOutput& a, const MethodOutput& b,
                      const std::string& context) {
  EXPECT_EQ(a.distribution, b.distribution) << context;
  ASSERT_TRUE(a.range_query && b.range_query) << context;
  for (const auto& [lo, alpha] :
       std::vector<std::pair<double, double>>{{0.0, 1.0}, {0.2, 0.3},
                                              {0.55, 0.1}}) {
    EXPECT_DOUBLE_EQ(a.range_query(lo, alpha), b.range_query(lo, alpha))
        << context << " range(" << lo << "," << alpha << ")";
  }
}

TEST(ProtocolTest, AbsorbThenMergeIsAssociativeForEveryMethod) {
  const std::vector<double> values = TestValues(3000);
  const size_t d = 64;
  for (const char* name : kTable2Suite) {
    auto protocol = MakeMethod(name, 1.0, d);

    // Three chunks with fixed per-chunk streams.
    std::vector<std::unique_ptr<ReportChunk>> chunks;
    for (size_t i = 0; i < 3; ++i) {
      Rng rng(ShardSeed(7, i));
      chunks.push_back(protocol
                           ->EncodePerturbBatch(
                               std::span<const double>(values).subspan(
                                   i * 1000, 1000),
                               rng)
                           .ValueOrDie());
    }

    // Grouping 1: everything into one accumulator, in order.
    auto flat = protocol->MakeAccumulator();
    for (const auto& chunk : chunks) ASSERT_TRUE(flat->Absorb(*chunk).ok());

    // Grouping 2: (A) merge (B+C), i.e. a different association.
    auto left = protocol->MakeAccumulator();
    ASSERT_TRUE(left->Absorb(*chunks[0]).ok());
    auto right = protocol->MakeAccumulator();
    ASSERT_TRUE(right->Absorb(*chunks[1]).ok());
    ASSERT_TRUE(right->Absorb(*chunks[2]).ok());
    ASSERT_TRUE(left->Merge(*right).ok());

    EXPECT_EQ(flat->num_reports(), left->num_reports()) << name;
    ExpectSameOutput(protocol->Reconstruct(*flat).ValueOrDie(),
                     protocol->Reconstruct(*left).ValueOrDie(), name);
  }
}

TEST(ProtocolTest, ShardedAccumulationIsThreadCountIndependent) {
  const std::vector<double> values = TestValues(5000);
  const size_t d = 64;
  for (const char* name : kTable2Suite) {
    auto protocol = MakeMethod(name, 1.0, d);
    ShardOptions opts;
    opts.shard_size = 512;
    opts.threads = 1;
    const MethodOutput single =
        RunProtocolSharded(*protocol, values, 99, opts).ValueOrDie();
    opts.threads = 4;
    const MethodOutput multi =
        RunProtocolSharded(*protocol, values, 99, opts).ValueOrDie();
    ExpectSameOutput(single, multi, name);
  }
}

TEST(ProtocolTest, RejectsForeignChunksAndAccumulators) {
  const std::vector<double> values = TestValues(100);
  auto sw = MakeMethod("sw-ems", 1.0, 32);
  auto hh = MakeMethod("hh", 1.0, 64);
  Rng rng(5);
  auto sw_chunk = sw->EncodePerturbBatch(values, rng).ValueOrDie();
  auto hh_acc = hh->MakeAccumulator();
  EXPECT_FALSE(hh_acc->Absorb(*sw_chunk).ok());
  auto sw_acc = sw->MakeAccumulator();
  EXPECT_FALSE(sw_acc->Merge(*hh_acc).ok());
  EXPECT_FALSE(hh->Reconstruct(*sw_acc).ok());
}

TEST(ProtocolTest, RejectsSameFamilyChunksOfDifferentShape) {
  const std::vector<double> values = TestValues(200);
  Rng rng(6);
  // Same concrete chunk types, different configuration: the accumulator
  // must reject them instead of indexing out of bounds.
  auto cfo64 = MakeCfoBinningProtocol(1.0, 64, 64).ValueOrDie();
  auto cfo16 = MakeCfoBinningProtocol(1.0, 64, 16).ValueOrDie();
  auto chunk64 = cfo64->EncodePerturbBatch(values, rng).ValueOrDie();
  auto acc16 = cfo16->MakeAccumulator();
  EXPECT_FALSE(acc16->Absorb(*chunk64).ok());

  auto hh64 = MakeMethod("hh", 1.0, 64);
  auto hh256 = MakeMethod("hh", 1.0, 256);
  auto chunk256 = hh256->EncodePerturbBatch(values, rng).ValueOrDie();
  auto hh64_acc = hh64->MakeAccumulator();
  EXPECT_FALSE(hh64_acc->Absorb(*chunk256).ok());

  auto sw32 = MakeMethod("sw-ems", 1.0, 32);
  auto sw64 = MakeMethod("sw-ems", 1.0, 64);
  auto sw_chunk64 = sw64->EncodePerturbBatch(values, rng).ValueOrDie();
  auto sw32_acc = sw32->MakeAccumulator();
  EXPECT_FALSE(sw32_acc->Absorb(*sw_chunk64).ok());

  // SW accumulators of different d refuse to merge either way, and a
  // refused merge leaves the target untouched.
  auto sw64_acc = sw64->MakeAccumulator();
  ASSERT_TRUE(sw64_acc->Absorb(*sw_chunk64).ok());
  const Status merged = sw32_acc->Merge(*sw64_acc);
  EXPECT_EQ(merged.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sw32_acc->num_reports(), 0u);
  EXPECT_EQ(sw64_acc->Merge(*sw32_acc).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sw64_acc->num_reports(), values.size());

  // So do SW accumulators of equal d but a different output granularity.
  SwEstimatorOptions wide;
  wide.d = 64;
  wide.d_out = 128;
  auto sw64_wide = MakeSwProtocol(wide).ValueOrDie();
  EXPECT_EQ(sw64_wide->MakeAccumulator()->Merge(*sw64_acc).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, ReconstructRequiresReports) {
  auto sw = MakeMethod("sw-ems", 1.0, 32);
  auto acc = sw->MakeAccumulator();
  EXPECT_FALSE(sw->Reconstruct(*acc).ok());
}

TEST(ProtocolTest, CfoBinningRunsOverEveryOracleFamily) {
  const std::vector<double> values = TestValues(4000);
  for (FoKind kind :
       {FoKind::kAdaptive, FoKind::kGrr, FoKind::kOlh, FoKind::kOue}) {
    auto protocol =
        MakeCfoBinningProtocol(1.0, 64, 16, kind).ValueOrDie();
    Rng rng(11);
    const MethodOutput out = RunProtocol(*protocol, values, rng).ValueOrDie();
    ASSERT_EQ(out.distribution.size(), 64u) << protocol->name();
    double sum = 0.0;
    for (double p : out.distribution) {
      EXPECT_GE(p, 0.0) << protocol->name();
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6) << protocol->name();
  }
}

// --- Estimate vs EstimateFromCounts/Sketch consistency per oracle ---

TEST(FoSketchTest, GrrSketchMatchesEstimateFromCounts) {
  const Grr grr = Grr::Make(1.0, 16).ValueOrDie();
  Rng rng(21);
  std::vector<uint32_t> reports;
  std::vector<uint64_t> counts(16, 0);
  FoSketch sketch = grr.MakeSketch();
  for (size_t i = 0; i < 4000; ++i) {
    const uint32_t r = grr.Perturb(static_cast<uint32_t>(i % 16), rng);
    reports.push_back(r);
    ++counts[r];
    grr.Absorb(r, &sketch);
  }
  const std::vector<double> from_reports = grr.Estimate(reports);
  const std::vector<double> from_counts =
      grr.EstimateFromCounts(counts, reports.size());
  const std::vector<double> from_sketch = grr.EstimateFromSketch(sketch);
  for (size_t v = 0; v < 16; ++v) {
    EXPECT_DOUBLE_EQ(from_reports[v], from_counts[v]);
    EXPECT_DOUBLE_EQ(from_counts[v], from_sketch[v]);
  }
}

TEST(FoSketchTest, OlhSketchMatchesSupportCountEstimate) {
  const Olh olh = Olh::Make(1.0, 32).ValueOrDie();
  Rng rng(22);
  std::vector<OlhReport> reports;
  FoSketch sketch = olh.MakeSketch();
  for (size_t i = 0; i < 2000; ++i) {
    const OlhReport r = olh.Perturb(static_cast<uint32_t>(i % 32), rng);
    reports.push_back(r);
    olh.Absorb(r, &sketch);
  }
  const std::vector<uint64_t> support = olh.SupportCounts(reports);
  ASSERT_EQ(sketch.n, reports.size());
  for (size_t v = 0; v < 32; ++v) {
    EXPECT_EQ(static_cast<uint64_t>(sketch.counts[v]), support[v]);
  }
  const std::vector<double> from_reports = olh.Estimate(reports);
  const std::vector<double> from_sketch = olh.EstimateFromSketch(sketch);
  for (size_t v = 0; v < 32; ++v) {
    EXPECT_DOUBLE_EQ(from_reports[v], from_sketch[v]);
  }
}

TEST(FoSketchTest, OueSketchMatchesEstimateFromOnes) {
  const Oue oue = Oue::Make(1.0, 16).ValueOrDie();
  Rng rng(23);
  std::vector<uint64_t> ones(16, 0);
  FoSketch sketch = oue.MakeSketch();
  const size_t n = 3000;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<uint8_t> bits =
        oue.Perturb(static_cast<uint32_t>(i % 16), rng);
    for (size_t j = 0; j < 16; ++j) ones[j] += bits[j];
    oue.Absorb(bits, &sketch);
  }
  const std::vector<double> from_ones = oue.EstimateFromOnes(ones, n);
  const std::vector<double> from_sketch = oue.EstimateFromSketch(sketch);
  for (size_t v = 0; v < 16; ++v) {
    EXPECT_DOUBLE_EQ(from_ones[v], from_sketch[v]);
  }
}

TEST(FoSketchTest, OueRunMatchesPerturbAbsorbPipeline) {
  const Oue oue = Oue::Make(1.0, 8).ValueOrDie();
  std::vector<uint32_t> values;
  for (size_t i = 0; i < 2000; ++i) {
    values.push_back(static_cast<uint32_t>(i % 8));
  }
  Rng rng_run(24);
  const std::vector<double> from_run = oue.Run(values, rng_run);
  Rng rng_batch(24);
  FoSketch sketch = oue.MakeSketch();
  for (uint32_t v : values) oue.Absorb(oue.Perturb(v, rng_batch), &sketch);
  const std::vector<double> from_sketch = oue.EstimateFromSketch(sketch);
  for (size_t v = 0; v < 8; ++v) {
    EXPECT_DOUBLE_EQ(from_run[v], from_sketch[v]);
  }
}

TEST(FoSketchTest, HrrSketchMatchesEstimate) {
  const Hrr hrr = Hrr::Make(1.0, 16).ValueOrDie();
  Rng rng(25);
  std::vector<HrrReport> reports;
  FoSketch sketch = hrr.MakeSketch();
  for (size_t i = 0; i < 3000; ++i) {
    const HrrReport r = hrr.Perturb(static_cast<uint32_t>(i % 16), rng);
    reports.push_back(r);
    hrr.Absorb(r, &sketch);
  }
  const std::vector<double> from_reports = hrr.Estimate(reports);
  const std::vector<double> from_sketch = hrr.EstimateFromSketch(sketch);
  for (size_t v = 0; v < 16; ++v) {
    EXPECT_DOUBLE_EQ(from_reports[v], from_sketch[v]);
  }
}

TEST(FoSketchTest, AdaptiveRunMatchesPerturbAbsorbPipeline) {
  // Cover both dispatch arms: small domain -> GRR, large domain -> OLH.
  for (size_t domain : {size_t{4}, size_t{256}}) {
    const AdaptiveFo fo = AdaptiveFo::Make(1.0, domain).ValueOrDie();
    std::vector<uint32_t> values;
    for (size_t i = 0; i < 1500; ++i) {
      values.push_back(static_cast<uint32_t>(i % domain));
    }
    Rng rng_run(26);
    const std::vector<double> from_run = fo.Run(values, rng_run);
    Rng rng_batch(26);
    FoSketch sketch = fo.MakeSketch();
    for (uint32_t v : values) fo.Absorb(fo.Perturb(v, rng_batch), &sketch);
    const std::vector<double> from_sketch = fo.EstimateFromSketch(sketch);
    for (size_t v = 0; v < domain; ++v) {
      EXPECT_DOUBLE_EQ(from_run[v], from_sketch[v]) << "domain " << domain;
    }
  }
}

TEST(FoSketchTest, MergeIsExactAcrossShards) {
  const Olh olh = Olh::Make(1.0, 24).ValueOrDie();
  Rng rng(27);
  FoSketch all = olh.MakeSketch();
  FoSketch shard_a = olh.MakeSketch();
  FoSketch shard_b = olh.MakeSketch();
  for (size_t i = 0; i < 1000; ++i) {
    const OlhReport r = olh.Perturb(static_cast<uint32_t>(i % 24), rng);
    olh.Absorb(r, &all);
    olh.Absorb(r, i % 2 == 0 ? &shard_a : &shard_b);
  }
  shard_a.Merge(shard_b);
  EXPECT_EQ(all.n, shard_a.n);
  EXPECT_EQ(all.counts, shard_a.counts);
}

}  // namespace
}  // namespace numdist
