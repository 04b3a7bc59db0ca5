// Incremental reconstruction contracts (eval/incremental.h, core/em.h
// EmCheckpoint, net/server.h live estimation):
//  - warm-started EM over a rolling snapshot sequence reaches the same
//    fixed point as a cold run on the final snapshot, within the
//    likelihood-gap agreement radius both stopping rules imply
//    (stats::EmAgreementRadius), while spending far fewer total
//    iterations than cold restarts at every snapshot,
//  - a warm run through an EMPTY checkpoint is bit-identical to the plain
//    cold path (the incremental API is a strict superset),
//  - every IncrementalReconstructor tick equals, bit for bit, a
//    hand-rolled warm-started EstimateEmWeighted sequence: over the exact
//    cumulative totals with no half-life, over the decayed window with
//    one; a negative or non-finite half-life is refused,
//  - forgetting updates are deterministic: identical cumulative-total
//    sequences produce byte-identical estimates, and the scenario engine's
//    incremental columns are bit-identical for any thread count at a
//    fixed seed,
//  - live estimation inside CollectorServer reads accumulator state
//    without mutating it: the drained sketch is byte-identical to a
//    sequential single-session run over the same frames, while the
//    estimate sink observes monotone report totals and, at every tick,
//    a server sketch that holds exactly those totals; the drain ticks once
//    more when frames arrived since the last tick, so the last tick holds
//    the drained sketch; a cadence needs an SW spec and a valid half-life.
#include "eval/incremental.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/em.h"
#include "core/sw_estimator.h"
#include "data/datasets.h"
#include "metrics/distance.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "protocol/sharded.h"
#include "scenario/scenario.h"
#include "serve/collector.h"
#include "stats/conformance.h"
#include "wire/wire.h"

namespace numdist {
namespace {

using stats::EmAgreementRadius;

// Input-space envelope for the report-space agreement radius `delta` (same
// derivation as tests/estimator_conformance_test.cc; see
// docs/STATISTICAL_TESTING.md §3).
double InversionEnvelope(double epsilon, double b, double delta, size_t d,
                         double safety = 4.0) {
  const double kappa =
      (2.0 * b * std::exp(epsilon) + 1.0) / (2.0 * b * std::expm1(epsilon));
  return safety * kappa * delta + 1.0 / static_cast<double>(d);
}

// A rolling snapshot sequence: one fixed report stream, aggregated at
// `increments` cumulative prefixes (what a growing collector exposes).
struct RollingWorkload {
  SwEstimatorOptions options;
  std::vector<std::vector<uint64_t>> snapshots;  // cumulative counts
  uint64_t n = 0;                                // final snapshot reports
};

RollingWorkload MakeRollingWorkload(uint64_t seed, double epsilon, size_t d,
                                    size_t increments, uint64_t per) {
  RollingWorkload w;
  w.options.epsilon = epsilon;
  w.options.d = d;
  w.options.post = SwEstimatorOptions::Post::kEm;
  w.options.pipeline =
      SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
  const SwEstimator estimator = SwEstimator::Make(w.options).ValueOrDie();
  Rng rng(seed);
  std::vector<double> reports;
  std::vector<uint64_t> counts(estimator.output_buckets(), 0);
  for (size_t k = 0; k < increments; ++k) {
    for (uint64_t i = 0; i < per; ++i) {
      const double v = SampleDataset(DatasetId::kBeta, rng);
      ++counts[estimator.OutputBucketOf(estimator.PerturbOne(v, rng))];
    }
    w.snapshots.push_back(counts);
  }
  w.n = static_cast<uint64_t>(increments) * per;
  return w;
}

double ForwardKs(const SwEstimator& estimator, const std::vector<double>& x,
                 const std::vector<double>& y) {
  std::vector<double> mx;
  std::vector<double> my;
  estimator.model().Apply(x, &mx);
  estimator.model().Apply(y, &my);
  return KsDistance(mx, my);
}

TEST(WarmStartTest, RollingWarmRunsReachTheColdFixedPoint) {
  // Thread one checkpoint through every snapshot, then compare the final
  // warm fixed point against a cold run on the final snapshot. Both stop
  // within tol = 1e-3 e^eps (plain EM's paper threshold) of the shared
  // likelihood maximum, so they agree within the derived radius.
  const double epsilon = 1.0;
  const size_t d = 64;
  const RollingWorkload w =
      MakeRollingWorkload(0xD1, epsilon, d, 8, 20000);
  const SwEstimator estimator = SwEstimator::Make(w.options).ValueOrDie();

  EmCheckpoint checkpoint;
  EmResult warm;
  for (const std::vector<uint64_t>& snapshot : w.snapshots) {
    warm = EstimateEm(estimator.model(), snapshot, estimator.em_options(),
                      &checkpoint)
               .ValueOrDie();
    ASSERT_TRUE(warm.converged);
  }
  const EmResult cold =
      estimator.Reconstruct(w.snapshots.back()).ValueOrDie();
  ASSERT_TRUE(cold.converged);

  const double tol = 1e-3 * std::exp(epsilon);
  const double radius = EmAgreementRadius(w.n, tol, tol);
  EXPECT_LE(ForwardKs(estimator, warm.estimate, cold.estimate), radius);
  EXPECT_LE(WassersteinDistance(warm.estimate, cold.estimate),
            InversionEnvelope(epsilon, estimator.b(), radius, d));

  // The tentpole economics: the warm sequence's TOTAL budget beats cold
  // restarts at every snapshot (bench/micro_em.cc measures the ratio; the
  // test only pins the direction so it stays robust across hosts).
  size_t cold_total = 0;
  for (const std::vector<uint64_t>& snapshot : w.snapshots) {
    cold_total += estimator.Reconstruct(snapshot).ValueOrDie().iterations;
  }
  EXPECT_LT(checkpoint.total_iterations, cold_total);
  EXPECT_EQ(checkpoint.runs, w.snapshots.size());
  // The final warm run alone is much cheaper than its cold twin.
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(WarmStartTest, EmptyCheckpointIsBitIdenticalToColdReconstruct) {
  const RollingWorkload w = MakeRollingWorkload(0xD2, 1.0, 32, 1, 30000);
  const SwEstimator estimator = SwEstimator::Make(w.options).ValueOrDie();
  EmCheckpoint checkpoint;
  const EmResult via_checkpoint =
      EstimateEm(estimator.model(), w.snapshots[0], estimator.em_options(),
                 &checkpoint)
          .ValueOrDie();
  const EmResult plain = estimator.Reconstruct(w.snapshots[0]).ValueOrDie();
  ASSERT_EQ(via_checkpoint.estimate.size(), plain.estimate.size());
  EXPECT_EQ(std::memcmp(via_checkpoint.estimate.data(), plain.estimate.data(),
                        plain.estimate.size() * sizeof(double)),
            0);
  EXPECT_EQ(via_checkpoint.iterations, plain.iterations);
  EXPECT_EQ(checkpoint.total_iterations, plain.iterations);
  EXPECT_EQ(checkpoint.runs, 1u);
}

TEST(ForgettingTest, IdenticalTotalSequencesProduceByteIdenticalEstimates) {
  // The inputs are exact integers and the decay arithmetic is a fixed
  // sequential recurrence, so two reconstructors fed the same cumulative
  // totals must agree to the last bit at every update.
  const RollingWorkload w = MakeRollingWorkload(0xD3, 1.0, 64, 6, 10000);
  auto estimator = std::make_shared<const SwEstimator>(
      SwEstimator::Make(w.options).ValueOrDie());
  IncrementalOptions options;
  options.half_life = 25000.0;
  auto a = IncrementalReconstructor::Make(estimator, options).ValueOrDie();
  auto b = IncrementalReconstructor::Make(estimator, options).ValueOrDie();
  uint64_t n = 0;
  for (const std::vector<uint64_t>& snapshot : w.snapshots) {
    n += 10000;
    const EmResult ra = a.UpdateFromTotals(snapshot, n).ValueOrDie();
    const EmResult rb = b.UpdateFromTotals(snapshot, n).ValueOrDie();
    ASSERT_EQ(ra.estimate.size(), rb.estimate.size());
    EXPECT_EQ(std::memcmp(ra.estimate.data(), rb.estimate.data(),
                          ra.estimate.size() * sizeof(double)),
              0);
    EXPECT_EQ(ra.iterations, rb.iterations);
    EXPECT_EQ(ra.log_likelihood, rb.log_likelihood);
  }
  EXPECT_EQ(a.checkpoint().total_iterations, b.checkpoint().total_iterations);
  EXPECT_EQ(a.updates(), w.snapshots.size());
}

// A tick shape: the estimator, the per-update EM budget, and a sequence of
// growing cumulative totals with their report counts.
struct TickSequence {
  std::shared_ptr<const SwEstimator> estimator;
  size_t budget = 0;
  std::vector<std::vector<uint64_t>> totals;
  std::vector<uint64_t> reports;
};

// `ticks` cumulative snapshots of an sw-ems stream at granularity d, each
// tick adding a different number of reports (so the decay exponent varies).
TickSequence MakeTickSequence(size_t d, size_t budget, size_t ticks,
                              uint64_t seed) {
  TickSequence s;
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, d).ValueOrDie();
  s.estimator = std::make_shared<const SwEstimator>(
      SwEstimator::Make(wire::SwEstimatorOptionsForSpec(spec).ValueOrDie())
          .ValueOrDie());
  s.budget = budget;
  Rng rng(seed);
  std::vector<uint64_t> counts(s.estimator->output_buckets(), 0);
  uint64_t n = 0;
  for (size_t t = 0; t < ticks; ++t) {
    const uint64_t per = 1000 + 250 * (t % 5);
    std::vector<double> values(per);
    for (double& v : values) v = SampleDataset(DatasetId::kBeta, rng);
    std::vector<uint32_t> buckets(per);
    s.estimator->PerturbBatchToBuckets(values, rng, buckets.data());
    for (const uint32_t b : buckets) ++counts[b];
    n += per;
    s.totals.push_back(counts);
    s.reports.push_back(n);
  }
  return s;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Feeds `seq` through an IncrementalReconstructor with `options` and
// checks every tick against a hand-rolled warm-started EstimateEmWeighted
// sequence. With no half-life its input is the exact cumulative totals;
// with one it is the decayed window w <- lambda * w + (totals - prev),
// lambda = 2^(-Δn / half_life). Estimate bytes, iterations,
// log-likelihood bits and convergence must all match.
void ExpectTicksMatchHandRolled(const TickSequence& seq,
                                const IncrementalOptions& options) {
  auto inc =
      IncrementalReconstructor::Make(seq.estimator, options).ValueOrDie();
  EmOptions em = seq.estimator->em_options();
  if (seq.budget > 0) em.max_iterations = seq.budget;
  EmCheckpoint checkpoint;
  std::vector<double> window(seq.estimator->output_buckets(), 0.0);
  std::vector<uint64_t> prev(window.size(), 0);
  uint64_t prev_n = 0;
  size_t unconverged = 0;
  for (size_t t = 0; t < seq.totals.size(); ++t) {
    const std::vector<uint64_t>& totals = seq.totals[t];
    const uint64_t n = seq.reports[t];
    if (options.half_life > 0.0) {
      const double lambda =
          std::exp2(-static_cast<double>(n - prev_n) / options.half_life);
      for (size_t j = 0; j < window.size(); ++j) {
        window[j] =
            lambda * window[j] + static_cast<double>(totals[j] - prev[j]);
      }
    } else {
      window.assign(totals.begin(), totals.end());
    }
    prev = totals;
    prev_n = n;
    const EmResult want =
        EstimateEmWeighted(seq.estimator->model(), window, em, &checkpoint)
            .ValueOrDie();
    const EmResult got = inc.UpdateFromTotals(totals, n).ValueOrDie();
    ASSERT_EQ(got.estimate.size(), want.estimate.size()) << "tick " << t;
    EXPECT_EQ(std::memcmp(got.estimate.data(), want.estimate.data(),
                          want.estimate.size() * sizeof(double)),
              0)
        << "tick " << t;
    EXPECT_EQ(got.iterations, want.iterations) << "tick " << t;
    EXPECT_EQ(Bits(got.log_likelihood), Bits(want.log_likelihood))
        << "tick " << t;
    EXPECT_EQ(got.converged, want.converged) << "tick " << t;
    if (!got.converged) ++unconverged;
  }
  EXPECT_EQ(inc.checkpoint().total_iterations, checkpoint.total_iterations);
  EXPECT_EQ(inc.updates(), seq.totals.size());
  // The budgeted shape must exercise ticks that stop on the budget.
  if (seq.budget > 0) {
    EXPECT_GT(unconverged, 0u);
  }
}

TEST(IncrementalTicksTest, EveryTickEqualsHandRolledWarmEm) {
  // With no half-life nothing is forgotten: every tick is a warm-started
  // EM run over the exact cumulative totals. With one, it runs over the
  // decayed window. Two shapes: estimate_live's d = 1024 with a
  // 50-iteration tick budget, and d = 64 with none.
  for (const double half_life : {0.0, 25000.0}) {
    for (const auto& [d, budget] : {std::pair<size_t, size_t>{1024, 50},
                                    std::pair<size_t, size_t>{64, 0}}) {
      SCOPED_TRACE("half_life = " + std::to_string(half_life) +
                   ", d = " + std::to_string(d));
      const TickSequence seq = MakeTickSequence(d, budget, 32, 0xE1 + d);
      IncrementalOptions options;
      options.half_life = half_life;
      options.max_iterations_per_update = budget;
      ExpectTicksMatchHandRolled(seq, options);
    }
  }
}

TEST(IncrementalTicksTest, NegativeOrNonFiniteHalfLifeIsInvalidArgument) {
  const auto estimator = std::make_shared<const SwEstimator>(
      SwEstimator::Make(SwEstimatorOptions{.d = 32}).ValueOrDie());
  for (const double half_life :
       {-1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    IncrementalOptions options;
    options.half_life = half_life;
    const auto made = IncrementalReconstructor::Make(estimator, options);
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument)
        << half_life;
  }
  IncrementalOptions none;
  EXPECT_TRUE(IncrementalReconstructor::Make(estimator, none).ok());
}

TEST(ForgettingTest, ScenarioIncrementalColumnsAreThreadCountInvariant) {
  // The scenario engine's bit-identical-for-any-thread-count contract must
  // extend to the new incremental columns: the reconstructor consumes
  // merged integer totals, which are themselves thread-invariant.
  auto run = [](size_t threads) {
    ScenarioConfig config = BuiltinScenario("drift").ValueOrDie();
    config.threads = threads;
    config.phases[0].reports = 6000;
    config.phases[1].reports = 12000;
    config.incremental = true;
    config.half_life = 4000.0;
    return RunScenario(config).ValueOrDie();
  };
  const ScenarioResult one = run(1);
  const ScenarioResult four = run(4);
  ASSERT_EQ(one.checkpoints.size(), four.checkpoints.size());
  ASSERT_GT(one.checkpoints.size(), 0u);
  for (size_t i = 0; i < one.checkpoints.size(); ++i) {
    const ScenarioCheckpoint& a = one.checkpoints[i];
    const ScenarioCheckpoint& b = four.checkpoints[i];
    ASSERT_EQ(a.inc_estimate.size(), b.inc_estimate.size());
    ASSERT_GT(a.inc_estimate.size(), 0u) << "checkpoint " << i;
    EXPECT_EQ(std::memcmp(a.inc_estimate.data(), b.inc_estimate.data(),
                          a.inc_estimate.size() * sizeof(double)),
              0)
        << "checkpoint " << i;
    EXPECT_EQ(a.inc_wasserstein, b.inc_wasserstein) << "checkpoint " << i;
    EXPECT_EQ(a.inc_ks, b.inc_ks) << "checkpoint " << i;
    EXPECT_EQ(a.inc_em_iterations, b.inc_em_iterations) << "checkpoint " << i;
    EXPECT_EQ(a.inc_total_iterations, b.inc_total_iterations)
        << "checkpoint " << i;
  }
}

// Deterministic report frames for the live-estimation tests: `n` golden-
// ratio values in seeded shards of 250 reports, one frame per shard.
std::vector<std::string> LiveReportFrames(const wire::MethodSpec& spec,
                                          const Protocol& protocol, size_t n) {
  const std::vector<double> values = GoldenRatioValues(n);
  const size_t shard_size = 250;
  std::vector<std::string> frames;
  for (size_t begin = 0; begin < values.size(); begin += shard_size) {
    const size_t len = std::min(shard_size, values.size() - begin);
    Rng rng(ShardSeed(11, begin / shard_size));
    auto chunk =
        protocol
            .EncodePerturbBatch(
                std::span<const double>(values).subspan(begin, len), rng)
            .ValueOrDie();
    std::string frame;
    EXPECT_TRUE(wire::EncodeReportFrame(spec, protocol, *chunk, &frame).ok());
    frames.push_back(std::move(frame));
  }
  return frames;
}

// The report count and per-bucket counts of an untagged sketch frame.
struct SketchCounts {
  uint64_t reports = 0;
  std::vector<uint64_t> counts;
};

Result<SketchCounts> DecodeSketchCounts(const wire::MethodSpec& spec,
                                        const Protocol& protocol,
                                        const std::string& sketch_frame) {
  NUMDIST_ASSIGN_OR_RETURN(
      const auto sketch,
      wire::DecodeSketchFrame(spec, protocol, wire::FrameBytes(sketch_frame)));
  const AccumulatorState state = sketch->ExportState();
  if (state.tables.size() != 1) {
    return Status::InvalidArgument("expected one count table");
  }
  const std::vector<int64_t>& counts = state.tables[0].counts;
  return SketchCounts{state.num_reports,
                      std::vector<uint64_t>(counts.begin(), counts.end())};
}

TEST(LiveEstimateTest, SketchStaysByteIdenticalAndTicksAreMonotone) {
  // Same fixture shape as tests/net_test.cc: deterministic report frames
  // plus a sequential CollectorSession reference. The server additionally
  // runs live estimation every 2 frames; because estimation only READS
  // accumulator state, the drained sketch must still match the reference
  // byte for byte.
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  const auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  const std::vector<std::string> frames =
      LiveReportFrames(spec, *protocol, 3000);
  const uint64_t total_reports = 3000;
  auto reference = serve::CollectorSession::Make(spec).ValueOrDie();
  for (const std::string& frame : frames) {
    ASSERT_TRUE(reference.HandleFrame(frame).ok());
  }
  const std::string reference_sketch = reference.EncodeSketch().ValueOrDie();

  // Tick observations, written from the reactor thread and read only
  // after serving.join().
  struct TickLog {
    uint64_t count = 0;
    uint64_t last_reports = 0;
    bool reports_monotone = true;
    bool totals_consistent = true;
    bool sketch_holds_totals = true;
    size_t estimate_size = 0;
    size_t total_iterations = 0;
  } log;

  // The sink runs between rounds, so the server's sketch then holds
  // exactly the tick's totals (what collector_cli --estimate-out writes).
  const net::CollectorServer* live = nullptr;
  const auto sketch_holds = [&](const net::EstimateTick& tick) {
    const auto held = DecodeSketchCounts(spec, *protocol,
                                         live->EncodeSketch().ValueOrDie());
    return held.ok() && held->reports == tick.reports &&
           held->counts == tick.totals;
  };
  net::ServerOptions options;
  options.estimate_every_frames = 2;
  options.estimate_sink = [&](const net::EstimateTick& tick) {
    ++log.count;
    if (tick.reports < log.last_reports) log.reports_monotone = false;
    log.last_reports = tick.reports;
    uint64_t sum = 0;
    for (uint64_t c : tick.totals) sum += c;
    if (sum != tick.reports) log.totals_consistent = false;
    if (!sketch_holds(tick)) log.sketch_holds_totals = false;
    log.estimate_size = tick.em.estimate.size();
    log.total_iterations = tick.checkpoint.total_iterations;
  };
  auto server = net::CollectorServer::Make(spec, options).ValueOrDie();
  live = server.get();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  {
    auto sender = net::MultiSender::Make(bound, 3).ValueOrDie();
    for (const std::string& frame : frames) {
      ASSERT_TRUE(sender.Send(frame).ok());
    }
    ASSERT_TRUE(sender.Finish().ok());
  }
  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();

  EXPECT_EQ(server->num_reports(), total_reports);
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), reference_sketch);
  EXPECT_GT(server->stats().estimate_ticks, 0u);
  EXPECT_EQ(server->stats().estimate_ticks, log.count);
  EXPECT_TRUE(log.reports_monotone);
  EXPECT_TRUE(log.totals_consistent);
  EXPECT_TRUE(log.sketch_holds_totals);
  EXPECT_EQ(log.estimate_size, 32u);
  EXPECT_GT(log.total_iterations, 0u);
  ASSERT_NE(server->incremental(), nullptr);
  EXPECT_EQ(server->incremental()->checkpoint().runs, log.count);
}

TEST(LiveEstimateTest, DrainTicksOnceMoreSoTheLastTickIsTheDrainedSketch) {
  // Fewer frames than the cadence after the last regular tick: only the
  // drain tick can bring the estimate up to the drained sketch. The sink
  // signals its first tick, and only then do the rest go out, so no
  // regular tick covers them.
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  const auto protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  const std::vector<std::string> frames =
      LiveReportFrames(spec, *protocol, 1500);
  const size_t cadence = 4;
  ASSERT_LT(frames.size() - cadence, cadence);

  // Written from the reactor thread, read after serving.join().
  struct LastTick {
    uint64_t count = 0;
    uint64_t reports = 0;
    std::vector<uint64_t> totals;
  } last;
  std::promise<void> first_tick;
  net::ServerOptions options;
  options.estimate_every_frames = cadence;
  options.estimate_sink = [&](const net::EstimateTick& tick) {
    if (++last.count == 1) first_tick.set_value();
    last.reports = tick.reports;
    last.totals = tick.totals;
  };
  auto server = net::CollectorServer::Make(spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  // Returns before the join on every path, so a failed send still drains.
  const Status sent = [&]() -> Status {
    NUMDIST_ASSIGN_OR_RETURN(net::MultiSender sender,
                             net::MultiSender::Make(bound, 1));
    for (size_t i = 0; i < cadence; ++i) {
      NUMDIST_RETURN_NOT_OK(sender.Send(frames[i]));
    }
    if (first_tick.get_future().wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      return Status::Internal("no tick after the first frames");
    }
    for (size_t i = cadence; i < frames.size(); ++i) {
      NUMDIST_RETURN_NOT_OK(sender.Send(frames[i]));
    }
    return sender.Finish();
  }();
  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  ASSERT_TRUE(run_status.ok()) << run_status.message();

  EXPECT_EQ(server->stats().frames_absorbed, frames.size());
  EXPECT_EQ(last.count, 2u);  // the regular tick, then the drain tick
  EXPECT_EQ(server->stats().estimate_ticks, last.count);
  EXPECT_EQ(last.reports, server->num_reports());
  const auto drained =
      DecodeSketchCounts(spec, *protocol, server->EncodeSketch().ValueOrDie());
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(drained->reports, server->num_reports());
  EXPECT_EQ(last.totals, drained->counts);
}

TEST(LiveEstimateTest, CadenceWithANonSwSpecIsInvalidArgument) {
  // The estimate is the paper's EM/EMS reconstruction of SW counts: a
  // cadence on any other family is refused when the server is made.
  const auto cfo = wire::ParseMethodSpec("cfo-16", 1.0, 64).ValueOrDie();
  net::ServerOptions by_frames;
  by_frames.estimate_every_frames = 2;
  net::ServerOptions by_time;
  by_time.estimate_every_ms = 50;
  for (const net::ServerOptions& options : {by_frames, by_time}) {
    const auto made = net::CollectorServer::Make(cfo, options);
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument)
        << made.status().ToString();
  }
  // Without a cadence the same spec serves.
  EXPECT_TRUE(net::CollectorServer::Make(cfo, net::ServerOptions{}).ok());
}

TEST(LiveEstimateTest, NegativeHalfLifeIsInvalidArgument) {
  const auto spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  net::ServerOptions options;
  options.estimate_every_frames = 2;
  options.estimate_half_life = -1.0;
  const auto made = net::CollectorServer::Make(spec, options);
  EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument)
      << made.status().ToString();
}

}  // namespace
}  // namespace numdist
