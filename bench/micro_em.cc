// Micro-benchmarks (google-benchmark): EM/EMS reconstruction cost as a
// function of the histogram granularity — the aggregator's post-processing
// budget (one mat-vec pair per iteration: O(d^2) dense, O(d) through the
// analytic sliding-window operator).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include <memory>

#include "common/rng.h"
#include "core/em.h"
#include "core/ems.h"
#include "core/observation_model.h"
#include "core/square_wave.h"
#include "core/sw_estimator.h"
#include "eval/incremental.h"
#include "hierarchy/admm.h"
#include "hierarchy/constrained.h"
#include "hierarchy/hh.h"

// Global allocation counter: lets the EM benches report heap allocations
// per iteration as a hard counter instead of relying on inspection.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace numdist;

// Shared fixture data: SW observations of a bimodal distribution, with the
// dense matrix and the analytic view of the same transition.
struct EmInput {
  SquareWave sw;
  Matrix m;
  SlidingWindowObservationModel sliding;
  std::vector<uint64_t> counts;
};

EmInput MakeEmInput(size_t d) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  Rng rng(42);
  std::vector<double> reports;
  const size_t n = 50000;
  reports.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double v = rng.Bernoulli(0.5) ? 0.3 : 0.7;
    reports.push_back(sw.Perturb(v, rng));
  }
  return {sw, sw.TransitionMatrix(d, d),
          SlidingWindowObservationModel::FromContinuous(sw, d, d),
          sw.BucketizeReports(reports, d)};
}

EmOptions TenFixedIterations() {
  EmOptions opts;
  opts.max_iterations = 10;
  opts.min_iterations = 10;
  opts.tol = 0.0;
  return opts;
}

void BM_EmIteration(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const EmInput input = MakeEmInput(d);
  const EmOptions opts = TenFixedIterations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateEm(input.m, input.counts, opts));
  }
  // 10 iterations of 2 mat-vecs each.
  state.SetItemsProcessed(state.iterations() * 10 * 2 * d * d);
}
BENCHMARK(BM_EmIteration)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_EmIterationSliding(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const EmInput input = MakeEmInput(d);
  const EmOptions opts = TenFixedIterations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateEm(input.sliding, input.counts, opts));
  }
  state.SetItemsProcessed(state.iterations() * 10 * 2 * d * d);
}
BENCHMARK(BM_EmIterationSliding)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

// Heap allocations per EM iteration, measured by differencing a long run
// against a short run on identical inputs (setup allocations cancel).
// Must report 0 for every model: the whole iteration loop is in-place.
void BM_EmAllocationsPerIteration(benchmark::State& state) {
  const size_t d = 512;
  const EmInput input = MakeEmInput(d);
  EmOptions short_opts = TenFixedIterations();
  EmOptions long_opts = TenFixedIterations();
  long_opts.max_iterations = 510;
  long_opts.min_iterations = 510;
  double allocs_per_iter = 0.0;
  for (auto _ : state) {
    const int64_t before_short = g_allocations.load();
    benchmark::DoNotOptimize(EstimateEm(input.sliding, input.counts,
                                        short_opts));
    const int64_t short_allocs = g_allocations.load() - before_short;
    const int64_t before_long = g_allocations.load();
    benchmark::DoNotOptimize(EstimateEm(input.sliding, input.counts,
                                        long_opts));
    const int64_t long_allocs = g_allocations.load() - before_long;
    allocs_per_iter =
        static_cast<double>(long_allocs - short_allocs) / 500.0;
  }
  state.counters["allocs_per_iter"] = allocs_per_iter;
}
BENCHMARK(BM_EmAllocationsPerIteration)->Iterations(1);

// Raw mat-vec pair (Apply + ApplyTranspose) cost of the two
// representations of the same SW transition operator.
template <typename Model>
void MatVecPairLoop(benchmark::State& state, const Model& model, size_t d) {
  Rng rng(9);
  std::vector<double> x(d);
  for (double& v : x) v = rng.Uniform();
  std::vector<double> y;
  std::vector<double> xt;
  for (auto _ : state) {
    model.Apply(x, &y);
    model.ApplyTranspose(y, &xt);
    benchmark::DoNotOptimize(xt.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * d * d);
}

void BM_MatVecDense(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const DenseObservationModel dense(sw.TransitionMatrix(d, d));
  MatVecPairLoop(state, dense, d);
}
BENCHMARK(BM_MatVecDense)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MatVecSliding(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const SlidingWindowObservationModel sliding =
      SlidingWindowObservationModel::FromContinuous(sw, d, d);
  MatVecPairLoop(state, sliding, d);
}
BENCHMARK(BM_MatVecSliding)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EmsFullConvergence(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const EmInput input = MakeEmInput(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateEms(input.m, input.counts));
  }
}
BENCHMARK(BM_EmsFullConvergence)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Full EMS convergence through the sliding-window operator: the
// end-to-end reconstruction cost the aggregator actually pays per trial.
void BM_EmsConvergenceSliding(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const EmInput input = MakeEmInput(d);
  EmOptions opts;
  opts.smoothing = true;
  size_t iterations = 0;
  for (auto _ : state) {
    const EmResult res =
        EstimateEm(input.sliding, input.counts, opts).ValueOrDie();
    iterations = res.iterations;
    benchmark::DoNotOptimize(res.estimate.data());
  }
  state.counters["em_steps"] = static_cast<double>(iterations);
}
BENCHMARK(BM_EmsConvergenceSliding)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// ---- Incremental reconstruction: warm-started EM, with forgetting ----
//
// Rolling-snapshot fixture: a growing report stream cut into cumulative
// count snapshots, reconstructed after each increment. README cites the
// EM_WARM_ series by name.

struct RollingFixture {
  SlidingWindowObservationModel sliding;
  /// Cumulative bucketized counts after each increment.
  std::vector<std::vector<uint64_t>> totals;
};

RollingFixture MakeRollingFixture(size_t d, size_t increments,
                                  size_t per_increment) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  Rng rng(1234);
  std::vector<double> reports;
  reports.reserve(increments * per_increment);
  RollingFixture fx{SlidingWindowObservationModel::FromContinuous(sw, d, d),
                    {}};
  for (size_t k = 0; k < increments; ++k) {
    for (size_t i = 0; i < per_increment; ++i) {
      const double v = rng.Bernoulli(0.5) ? 0.3 : 0.7;
      reports.push_back(sw.Perturb(v, rng));
    }
    fx.totals.push_back(sw.BucketizeReports(reports, d));
  }
  return fx;
}

// Warm-started sweep over 10 rolling snapshots at d=1024: each snapshot
// restarts EM from the previous fixed point at the same tolerance a cold
// restart uses (same final likelihood gap). The cold baseline runs once
// outside the timed loop; iteration_speedup = cold/warm total EM
// iterations is the headline counter (acceptance floor: >= 5x).
void EM_WARM_RollingSnapshots(benchmark::State& state) {
  const size_t d = 1024;
  const RollingFixture fx = MakeRollingFixture(d, 10, 5000);
  const EmOptions opts;
  size_t cold_total = 0;
  for (const std::vector<uint64_t>& totals : fx.totals) {
    cold_total +=
        EstimateEm(fx.sliding, totals, opts).ValueOrDie().iterations;
  }
  size_t warm_total = 0;
  for (auto _ : state) {
    EmCheckpoint checkpoint;
    for (const std::vector<uint64_t>& totals : fx.totals) {
      benchmark::DoNotOptimize(
          EstimateEm(fx.sliding, totals, opts, &checkpoint).ValueOrDie());
    }
    warm_total = checkpoint.total_iterations;
  }
  state.counters["cold_iterations"] = static_cast<double>(cold_total);
  state.counters["warm_iterations"] = static_cast<double>(warm_total);
  state.counters["iteration_speedup"] =
      static_cast<double>(cold_total) / static_cast<double>(warm_total);
}
BENCHMARK(EM_WARM_RollingSnapshots)->Unit(benchmark::kMillisecond);

// Wall-time baseline for the row above: the same 10 snapshots, each
// reconstructed cold (from uniform). Compare real_time directly against
// EM_WARM_RollingSnapshots.
void EM_WARM_ColdRestarts(benchmark::State& state) {
  const size_t d = 1024;
  const RollingFixture fx = MakeRollingFixture(d, 10, 5000);
  const EmOptions opts;
  size_t cold_total = 0;
  for (auto _ : state) {
    cold_total = 0;
    for (const std::vector<uint64_t>& totals : fx.totals) {
      cold_total +=
          EstimateEm(fx.sliding, totals, opts).ValueOrDie().iterations;
    }
  }
  state.counters["cold_iterations"] = static_cast<double>(cold_total);
}
BENCHMARK(EM_WARM_ColdRestarts)->Unit(benchmark::kMillisecond);

// The forgetting window over a DRIFTING stream: the population jumps
// between increments, and the reconstructor forgets old reports with a
// half-life of two increments. Measures the per-update cost of the
// rolling-window path end-to-end (decay + warm-started EM through
// eval/incremental.h).
void EM_MINIBATCH_RollingWindow(benchmark::State& state) {
  const size_t d = 1024;
  const size_t increments = 10;
  const size_t per_increment = 5000;
  SwEstimatorOptions options;
  options.epsilon = 1.0;
  options.d = d;
  const auto estimator = std::make_shared<const SwEstimator>(
      SwEstimator::Make(options).ValueOrDie());
  std::vector<uint64_t> counts(estimator->output_buckets(), 0);
  Rng rng(77);
  std::vector<std::vector<uint64_t>> totals;
  std::vector<uint64_t> ns;
  for (size_t k = 0; k < increments; ++k) {
    // Drifting bimodal population: the mode migrates across increments.
    const double mode =
        0.2 + 0.6 * static_cast<double>(k) / (increments - 1);
    for (size_t i = 0; i < per_increment; ++i) {
      const double v = rng.Bernoulli(0.7) ? mode : 1.0 - mode;
      ++counts[estimator->OutputBucketOf(estimator->PerturbOne(v, rng))];
    }
    totals.push_back(counts);
    ns.push_back((k + 1) * per_increment);
  }
  IncrementalOptions inc_options;
  inc_options.half_life = 2.0 * static_cast<double>(per_increment);
  size_t total_iterations = 0;
  for (auto _ : state) {
    IncrementalReconstructor inc =
        IncrementalReconstructor::Make(estimator, inc_options).ValueOrDie();
    for (size_t k = 0; k < increments; ++k) {
      benchmark::DoNotOptimize(
          inc.UpdateFromTotals(totals[k], ns[k]).ValueOrDie());
    }
    total_iterations = inc.checkpoint().total_iterations;
  }
  state.counters["total_iterations"] = static_cast<double>(total_iterations);
  state.counters["updates"] = static_cast<double>(increments);
}
BENCHMARK(EM_MINIBATCH_RollingWindow)->Unit(benchmark::kMillisecond);

void BM_BinomialSmooth(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  std::vector<double> x(d, 1.0 / static_cast<double>(d));
  for (auto _ : state) {
    BinomialSmooth(&x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_BinomialSmooth)->Arg(1024)->Arg(4096);

void BM_ConstrainedInference(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const HierarchyTree tree = HierarchyTree::Make(d, 4).ValueOrDie();
  Rng rng(7);
  std::vector<double> nodes(tree.NumNodes());
  for (double& v : nodes) v = rng.Uniform(-0.1, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConstrainedInference(tree, nodes));
  }
  state.SetItemsProcessed(state.iterations() * tree.NumNodes());
}
BENCHMARK(BM_ConstrainedInference)->Arg(256)->Arg(1024);

void BM_HhAdmm(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const HierarchyTree tree = HierarchyTree::Make(d, 4).ValueOrDie();
  Rng rng(8);
  std::vector<double> nodes(tree.NumNodes());
  for (double& v : nodes) v = rng.Uniform(-0.1, 0.3);
  nodes[0] = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HhAdmm(tree, nodes));
  }
}
BENCHMARK(BM_HhAdmm)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace
