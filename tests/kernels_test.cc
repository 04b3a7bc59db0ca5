// Dispatch-equivalence tier: the scalar and AVX2 kernel builds must be
// BIT-EXACT (kernels.h contract). Verified at three levels:
//   1. kernel-by-kernel, on sizes that exercise the blocked main loop, the
//      tails, and the degenerate lengths;
//   2. whole reconstructions: EstimateEm over the dense and
//      sliding-window models once per dispatch, byte-compared;
//   3. whole encode paths: every protocol family's EncodePerturbBatch wire
//      payload, and a full sharded pipeline run, byte-compared across
//      dispatch.
// Crc32c is checked against the standard's known answers on every tier,
// since the WAL tests reseal records with the same function they check.
// Every sweep compares the scalar reference against the AVX2 tier: on a
// host without AVX2, forcing it falls back to scalar, so those
// comparisons degrade to trivially true rather than crashing — the CI
// matrix runs the whole suite under each NUMDIST_FORCE_ISA value for the
// same reason.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/em.h"
#include "core/observation_model.h"
#include "core/square_wave.h"
#include "core/sw_estimator.h"
#include "kernels/kernels.h"
#include "protocol/cfo_protocol.h"
#include "protocol/hierarchy_protocol.h"
#include "protocol/sharded.h"
#include "protocol/sw_protocol.h"

namespace numdist {
namespace {

using kernels::Isa;

// True when the two dispatch paths genuinely differ on this host.
bool HasTwoPaths() { return kernels::Avx2Available(); }

// The vector tiers every scalar-reference sweep is diffed against. On a
// host lacking a tier, forcing it falls back to scalar.
const Isa kVectorIsas[] = {Isa::kAvx2};

// Restores normal dispatch however a test exits.
struct IsaGuard {
  ~IsaGuard() { kernels::ResetIsaForTest(); }
};

std::vector<double> RandomVector(size_t n, uint64_t seed, double lo = -1.0,
                                 double hi = 1.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(lo, hi);
  return v;
}

// Sizes covering empty, sub-tail, one block, block+tail, and long inputs.
const size_t kSizes[] = {0, 1, 3, 7, 8, 15, 16, 17, 31, 33, 64, 257, 1000};

TEST(KernelDispatchTest, ReductionsAreBitExactAcrossIsas) {
  IsaGuard guard;
  for (size_t n : kSizes) {
    const std::vector<double> a = RandomVector(n, 11 + n);
    const std::vector<double> b = RandomVector(n, 23 + n);

    struct Reductions {
      double dot = 0.0;
      double sum = 0.0;
    };
    auto run = [&](Isa isa) {
      kernels::ForceIsaForTest(isa);
      Reductions r;
      r.dot = kernels::Dot(a.data(), b.data(), n);
      r.sum = kernels::Sum(a.data(), n);
      return r;
    };
    const Reductions scalar = run(Isa::kScalar);
    for (const Isa isa : kVectorIsas) {
      const Reductions vector = run(isa);
      // Bit equality, not EXPECT_DOUBLE_EQ: the contract is the same bits.
      EXPECT_EQ(std::memcmp(&scalar.dot, &vector.dot, sizeof(double)), 0)
          << "Dot n=" << n << " isa=" << kernels::IsaName(isa);
      EXPECT_EQ(std::memcmp(&scalar.sum, &vector.sum, sizeof(double)), 0)
          << "Sum n=" << n << " isa=" << kernels::IsaName(isa);
    }
  }
}

TEST(KernelDispatchTest, ElementwiseKernelsAreBitExactAcrossIsas) {
  IsaGuard guard;
  for (size_t n : kSizes) {
    const std::vector<double> x0 = RandomVector(n, 31 + n);
    const std::vector<double> x1 = RandomVector(n, 41 + n);
    const std::vector<double> base = RandomVector(n, 59 + n);

    auto run = [&](Isa isa) {
      kernels::ForceIsaForTest(isa);
      std::vector<double> y = base;
      kernels::Axpy(y.data(), 0.77, x0.data(), n);
      kernels::Axpy(y.data(), 0.21, x1.data(), n);
      const double total = kernels::MulAndSum(y.data(), x0.data(), n);
      kernels::Scale(y.data(), 1.0 / (total + 10.0), n);
      return y;
    };
    const std::vector<double> scalar = run(Isa::kScalar);
    for (const Isa isa : kVectorIsas) {
      const std::vector<double> vector = run(isa);
      ASSERT_EQ(scalar.size(), vector.size());
      if (n > 0) {
        EXPECT_EQ(
            std::memcmp(scalar.data(), vector.data(), n * sizeof(double)), 0)
            << "elementwise chain n=" << n
            << " isa=" << kernels::IsaName(isa);
      }
    }
  }
}

// A random band table in kernels::BandRows layout over n inputs: k edge
// positions per side, blocks and interiors anywhere in bounds, and a
// huge coefficient on the padding position of an odd k, which must add
// nothing.
struct RandomBands {
  std::vector<kernels::BandRow> rows;
  std::vector<double> coef;
};

RandomBands MakeRandomBands(size_t n_rows, size_t n, size_t k,
                            uint64_t seed) {
  Rng rng(seed);
  RandomBands bands;
  const size_t groups = (k + 1) / 2;
  for (size_t j = 0; j < n_rows; ++j) {
    const auto at = [&](size_t limit) {
      return static_cast<uint32_t>(rng.UniformInt(limit + 1));
    };
    const uint32_t lo = at(n);
    const uint32_t hi = lo + at(n - lo);
    bands.rows.push_back({lo, hi, at(n - k), at(n - k)});
    for (size_t c = 0; c < 4 * groups; ++c) {
      const size_t pos = 2 * (c / 4) + c % 2;
      bands.coef.push_back(pos < k ? rng.Uniform(0.0, 2.0) : 1e300);
    }
  }
  return bands;
}

TEST(KernelDispatchTest, BandKernelsAreBitExactAcrossIsas) {
  IsaGuard guard;
  // Lengths off the 4-wide blocks, and edge widths that fill whole and
  // half 4-wide groups.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{6},
                         size_t{17}, size_t{258}, size_t{1023}}) {
    const std::vector<double> x = RandomVector(n, 131 + n);
    for (const size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{4}, size_t{7}}) {
      if (k > n) continue;
      const size_t n_rows = 2 * n + 5;
      const RandomBands bands = MakeRandomBands(n_rows, n, k, 7 * n + k);
      auto run = [&](Isa isa) {
        kernels::ForceIsaForTest(isa);
        std::vector<double> out(n + 1 + n_rows);
        kernels::PrefixSum(x.data(), n, out.data());
        kernels::BandRows(bands.rows.data(), bands.coef.data(), n_rows, k,
                          out.data(), x.data(), 0.375, 1.25,
                          out.data() + n + 1);
        return out;
      };
      const std::vector<double> scalar = run(Isa::kScalar);
      for (const Isa isa : kVectorIsas) {
        const std::vector<double> vector = run(isa);
        EXPECT_EQ(std::memcmp(scalar.data(), vector.data(),
                              scalar.size() * sizeof(double)),
                  0)
            << "PrefixSum + BandRows n=" << n << " k=" << k
            << " isa=" << kernels::IsaName(isa);
      }
    }
  }
}

TEST(KernelDispatchTest, BandKernelsMatchTheirDefinitions) {
  const size_t n = 37;
  const size_t k = 5;
  const std::vector<double> x = RandomVector(n, 5, 0.0, 1.0);
  std::vector<double> prefix(n + 1);
  kernels::PrefixSum(x.data(), n, prefix.data());
  double running = 0.0;
  EXPECT_EQ(prefix[0], 0.0);
  for (size_t i = 0; i < n; ++i) {
    running += x[i];
    EXPECT_NEAR(prefix[i + 1], running, 1e-14) << i;
  }
  const size_t n_rows = 11;
  const RandomBands bands = MakeRandomBands(n_rows, n, k, 3);
  std::vector<double> y(n_rows);
  kernels::BandRows(bands.rows.data(), bands.coef.data(), n_rows, k,
                    prefix.data(), x.data(), 0.5, 2.0, y.data());
  const size_t stride = 4 * ((k + 1) / 2);
  for (size_t j = 0; j < n_rows; ++j) {
    const kernels::BandRow& r = bands.rows[j];
    double want = 0.5 + 2.0 * (prefix[r.hi] - prefix[r.lo]);
    for (size_t t = 0; t < k; ++t) {
      const double* c = bands.coef.data() + j * stride + 4 * (t / 2) + t % 2;
      want += c[0] * x[r.left + t] + c[2] * x[r.right + t];
    }
    EXPECT_NEAR(y[j], want, 1e-13) << j;
  }
}

TEST(KernelDispatchTest, LessThanAndGrrMapAgreeAcrossIsas) {
  IsaGuard guard;
  for (size_t n : kSizes) {
    const std::vector<double> u = RandomVector(n, 71 + n, 0.0, 1.0);
    std::vector<uint32_t> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = static_cast<uint32_t>(i % 17);

    auto run = [&](Isa isa) {
      kernels::ForceIsaForTest(isa);
      std::vector<uint8_t> bits(n, 0xee);
      kernels::LessThan(u.data(), 0.4, bits.data(), n);
      std::vector<uint32_t> out(n, 0xdeadbeef);
      kernels::GrrResponseMap(u.data(), values.data(), out.data(), n, 0.3,
                              1.0 / 0.7, 17);
      return std::make_pair(bits, out);
    };
    const auto scalar = run(Isa::kScalar);
    for (const Isa isa : kVectorIsas) {
      const auto vector = run(isa);
      EXPECT_EQ(scalar.first, vector.first)
          << "LessThan n=" << n << " isa=" << kernels::IsaName(isa);
      EXPECT_EQ(scalar.second, vector.second)
          << "GrrResponseMap n=" << n << " isa=" << kernels::IsaName(isa);
    }
  }
}

TEST(KernelDispatchTest, GrrResponseMapRealizesTheScheme) {
  // Spot-check the single-draw semantics against a direct evaluation.
  const uint32_t domain = 11;
  const double p = 0.22;
  const double inv_rest = 1.0 / (1.0 - p);
  const std::vector<double> u = RandomVector(500, 123, 0.0, 1.0);
  std::vector<uint32_t> values(u.size());
  for (size_t i = 0; i < u.size(); ++i) {
    values[i] = static_cast<uint32_t>((i * 5) % domain);
  }
  std::vector<uint32_t> out(u.size());
  kernels::GrrResponseMap(u.data(), values.data(), out.data(), u.size(), p,
                          inv_rest, domain);
  for (size_t i = 0; i < u.size(); ++i) {
    if (u[i] < p) {
      EXPECT_EQ(out[i], values[i]) << i;
    } else {
      const double t = (u[i] - p) * inv_rest;
      uint32_t r = static_cast<uint32_t>(t * (domain - 1));
      if (r > domain - 2) r = domain - 2;
      const uint32_t want = r >= values[i] ? r + 1 : r;
      EXPECT_EQ(out[i], want) << i;
      EXPECT_NE(out[i], values[i]) << i;  // rejects never report the truth
    }
  }
}

// ---- Whole-path equivalence.

std::vector<uint64_t> SwCounts(size_t d, size_t n, uint64_t seed) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  Rng rng(seed);
  std::vector<double> reports;
  reports.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    reports.push_back(sw.Perturb(rng.Bernoulli(0.5) ? 0.3 : 0.7, rng));
  }
  return sw.BucketizeReports(reports, d);
}

TEST(KernelDispatchTest, EstimateEmIsBitIdenticalAcrossIsas) {
  IsaGuard guard;
  const size_t d = 96;
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const Matrix m = sw.TransitionMatrix(d, d);
  const std::vector<uint64_t> counts = SwCounts(d, 20000, 77);
  // The discrete pipeline's operator, on DSW reports of the same shape.
  const DiscreteSquareWave dsw = DiscreteSquareWave::Make(1.0, d).ValueOrDie();
  Rng dsw_rng(78);
  std::vector<uint32_t> dsw_reports;
  for (size_t i = 0; i < 20000; ++i) {
    dsw_reports.push_back(
        dsw.Perturb(dsw_rng.Bernoulli(0.5) ? 28 : 67, dsw_rng));
  }
  const std::vector<uint64_t> dsw_counts = dsw.AggregateReports(dsw_reports);
  EmOptions opts;
  opts.max_iterations = 40;
  opts.min_iterations = 5;
  opts.smoothing = true;

  auto reconstruct = [&](Isa isa) {
    kernels::ForceIsaForTest(isa);
    std::vector<std::vector<double>> estimates;
    estimates.push_back(EstimateEm(m, counts, opts).ValueOrDie().estimate);
    const SlidingWindowObservationModel sliding =
        SlidingWindowObservationModel::FromContinuous(sw, d, d);
    estimates.push_back(
        EstimateEm(sliding, counts, opts).ValueOrDie().estimate);
    estimates.push_back(
        EstimateEm(SlidingWindowObservationModel::FromDiscrete(dsw),
                   dsw_counts, opts)
            .ValueOrDie()
            .estimate);
    return estimates;
  };
  const auto scalar = reconstruct(Isa::kScalar);
  const char* model_names[] = {"dense", "sliding", "sliding-discrete"};
  for (const Isa isa : kVectorIsas) {
    const auto vector = reconstruct(isa);
    for (size_t k = 0; k < scalar.size(); ++k) {
      ASSERT_EQ(scalar[k].size(), vector[k].size());
      EXPECT_EQ(std::memcmp(scalar[k].data(), vector[k].data(),
                            scalar[k].size() * sizeof(double)),
                0)
          << model_names[k] << " estimate differs across dispatch (isa="
          << kernels::IsaName(isa) << ")";
    }
  }
}

TEST(KernelDispatchTest, EncodedChunksAreBitIdenticalAcrossIsas) {
  IsaGuard guard;
  // One protocol per encode family (SW continuous + discrete pipelines,
  // CFO over GRR / OLH / OUE, both hierarchy collections).
  struct Case {
    const char* name;
    Result<ProtocolPtr> protocol;
  };
  SwEstimatorOptions sw_opts;
  sw_opts.epsilon = 1.0;
  sw_opts.d = 32;
  SwEstimatorOptions dsw_opts = sw_opts;
  dsw_opts.pipeline = SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
  Case cases[] = {
      {"sw-continuous", MakeSwProtocol(sw_opts)},
      {"sw-discrete", MakeSwProtocol(dsw_opts)},
      {"cfo-grr", MakeCfoBinningProtocol(1.0, 32, 16, FoKind::kGrr)},
      {"cfo-olh", MakeCfoBinningProtocol(1.0, 32, 16, FoKind::kOlh)},
      {"cfo-oue", MakeCfoBinningProtocol(1.0, 32, 16, FoKind::kOue)},
      {"hh", MakeHhBatchedProtocol(1.0, 64)},
      {"haar", MakeHaarHrrBatchedProtocol(1.0, 32)},
  };

  std::vector<double> values;
  Rng value_rng(99);
  for (size_t i = 0; i < 4000; ++i) values.push_back(value_rng.Uniform());

  for (Case& c : cases) {
    ASSERT_TRUE(c.protocol.ok()) << c.name;
    const Protocol& protocol = *c.protocol.value();
    auto encode = [&](Isa isa) {
      kernels::ForceIsaForTest(isa);
      Rng rng(4242);
      auto chunk = protocol.EncodePerturbBatch(values, rng).ValueOrDie();
      std::string payload;
      ByteWriter writer(&payload);
      EXPECT_TRUE(protocol.EncodeChunkPayload(*chunk, &writer).ok())
          << c.name;
      return payload;
    };
    const std::string scalar = encode(Isa::kScalar);
    for (const Isa isa : kVectorIsas) {
      const std::string vector = encode(isa);
      EXPECT_EQ(scalar, vector)
          << c.name << " wire payload differs across dispatch (isa="
          << kernels::IsaName(isa) << ")";
    }
  }
}

TEST(KernelDispatchTest, ShardedPipelineIsBitIdenticalAcrossIsas) {
  IsaGuard guard;
  SwEstimatorOptions options;
  options.epsilon = 1.0;
  options.d = 48;
  const ProtocolPtr protocol = MakeSwProtocol(options).ValueOrDie();
  std::vector<double> values;
  Rng value_rng(5);
  for (size_t i = 0; i < 20000; ++i) values.push_back(value_rng.Uniform());
  ShardOptions shard_opts;
  shard_opts.shard_size = 1024;
  shard_opts.threads = 4;

  auto run = [&](Isa isa) {
    kernels::ForceIsaForTest(isa);
    return RunProtocolSharded(*protocol, values, 7, shard_opts)
        .ValueOrDie()
        .distribution;
  };
  const std::vector<double> scalar = run(Isa::kScalar);
  for (const Isa isa : kVectorIsas) {
    const std::vector<double> vector = run(isa);
    ASSERT_EQ(scalar.size(), vector.size());
    EXPECT_EQ(std::memcmp(scalar.data(), vector.data(),
                          scalar.size() * sizeof(double)),
              0)
        << "isa=" << kernels::IsaName(isa);
  }
}

const Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2};

// RFC 3720 B.4's CRC-32C vectors, the "123456789" check value, and the
// empty string, on every tier.
TEST(KernelDispatchTest, Crc32cMatchesKnownAnswersOnEveryTier) {
  IsaGuard guard;
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  for (const Isa isa : kAllIsas) {
    kernels::ForceIsaForTest(isa);
    SCOPED_TRACE(kernels::IsaName(isa));
    EXPECT_EQ(kernels::Crc32c(std::string(32, '\x00')), 0x8A9136AAu);
    EXPECT_EQ(kernels::Crc32c(std::string(32, '\xFF')), 0x62A8AB43u);
    EXPECT_EQ(kernels::Crc32c(ascending), 0x46DD794Eu);
    EXPECT_EQ(kernels::Crc32c(descending), 0x113FDB5Cu);
    EXPECT_EQ(kernels::Crc32c("123456789"), 0xE3069283u);
    EXPECT_EQ(kernels::Crc32c(""), 0u);
  }
}

// Every tier equals the scalar table loop over random lengths 0..9000 at
// every start offset mod 8, and a CRC chained through a seed at any cut
// equals the one-shot CRC, whichever tiers compute the two pieces.
TEST(KernelDispatchTest, Crc32cIsIdenticalAcrossIsasAndChains) {
  IsaGuard guard;
  Rng rng(97);
  std::string bytes(9000 + 8, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    std::vector<size_t> lengths;
    for (size_t len = 0; len <= 17; ++len) lengths.push_back(len);
    lengths.push_back(9000);
    for (int i = 0; i < 24; ++i) lengths.push_back(rng.UniformInt(9001));
    for (const size_t len : lengths) {
      const std::string_view data(bytes.data() + offset, len);
      kernels::ForceIsaForTest(Isa::kScalar);
      const uint32_t scalar = kernels::Crc32c(data);
      const size_t cut = rng.UniformInt(len + 1);
      for (const Isa first : kAllIsas) {
        kernels::ForceIsaForTest(first);
        EXPECT_EQ(kernels::Crc32c(data), scalar)
            << "offset=" << offset << " len=" << len
            << " isa=" << kernels::IsaName(first);
        const uint32_t head = kernels::Crc32c(data.substr(0, cut));
        for (const Isa second : kAllIsas) {
          kernels::ForceIsaForTest(second);
          EXPECT_EQ(kernels::Crc32c(data.substr(cut), head), scalar)
              << "offset=" << offset << " len=" << len << " cut=" << cut
              << " isas=" << kernels::IsaName(first) << "+"
              << kernels::IsaName(second);
        }
      }
    }
  }
}

TEST(KernelDispatchTest, IsaNamesAndAvailability) {
  IsaGuard guard;
  EXPECT_STREQ(kernels::IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(kernels::IsaName(Isa::kAvx2), "avx2");
  kernels::ForceIsaForTest(Isa::kScalar);
  EXPECT_EQ(kernels::ActiveIsa(), Isa::kScalar);
  kernels::ForceIsaForTest(Isa::kAvx2);
  if (HasTwoPaths()) {
    EXPECT_EQ(kernels::ActiveIsa(), Isa::kAvx2);
  } else {
    EXPECT_EQ(kernels::ActiveIsa(), Isa::kScalar);
  }
}

// NUMDIST_FORCE_ISA is read at resolution time; ResetIsaForTest
// re-resolves, which lets the env contract be tested in-process.
TEST(KernelDispatchTest, ForceIsaEnvironmentVariable) {
  const char* old_isa = getenv("NUMDIST_FORCE_ISA");
  const std::string saved_isa = old_isa != nullptr ? old_isa : "";
  const bool had_isa = old_isa != nullptr;

  setenv("NUMDIST_FORCE_ISA", "scalar", 1);
  kernels::ResetIsaForTest();
  EXPECT_EQ(kernels::ActiveIsa(), Isa::kScalar);

  setenv("NUMDIST_FORCE_ISA", "avx2", 1);
  kernels::ResetIsaForTest();
  EXPECT_EQ(kernels::ActiveIsa(),
            HasTwoPaths() ? Isa::kAvx2 : Isa::kScalar);

  // Unknown values are ignored (native resolution).
  for (const char* unknown : {"sse9", "avx512"}) {
    setenv("NUMDIST_FORCE_ISA", unknown, 1);
    kernels::ResetIsaForTest();
    EXPECT_EQ(kernels::ActiveIsa(), HasTwoPaths() ? Isa::kAvx2 : Isa::kScalar)
        << unknown;
  }

  if (had_isa) {
    setenv("NUMDIST_FORCE_ISA", saved_isa.c_str(), 1);
  } else {
    unsetenv("NUMDIST_FORCE_ISA");
  }
  kernels::ResetIsaForTest();
}

}  // namespace
}  // namespace numdist
