// Micro-benchmarks (google-benchmark): per-report perturbation cost and
// server-side aggregation/estimation cost of every mechanism. These bound
// the client CPU cost and the aggregator's per-user work.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/square_wave.h"
#include "fo/grr.h"
#include "fo/hrr.h"
#include "fo/olh.h"
#include "fo/oue.h"
#include "mean/pm.h"
#include "mean/sr.h"

namespace {

using namespace numdist;

void BM_SquareWavePerturb(benchmark::State& state) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  Rng rng(1);
  double v = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.Perturb(v, rng));
    v += 0.001;
    if (v > 1.0) v = 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SquareWavePerturb);

void BM_DiscreteSquareWavePerturb(benchmark::State& state) {
  const DiscreteSquareWave dsw =
      DiscreteSquareWave::Make(1.0, 1024).ValueOrDie();
  Rng rng(2);
  uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsw.Perturb(v, rng));
    v = (v + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiscreteSquareWavePerturb);

void BM_GrrPerturb(benchmark::State& state) {
  const Grr grr = Grr::Make(1.0, static_cast<size_t>(state.range(0)))
                      .ValueOrDie();
  Rng rng(3);
  uint32_t v = 0;
  const uint32_t d = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grr.Perturb(v, rng));
    v = (v + 1) % d;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GrrPerturb)->Arg(16)->Arg(1024);

void BM_OlhPerturb(benchmark::State& state) {
  const Olh olh = Olh::Make(1.0, 1024).ValueOrDie();
  Rng rng(4);
  uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(olh.Perturb(v, rng));
    v = (v + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OlhPerturb);

void BM_HrrPerturb(benchmark::State& state) {
  const Hrr hrr = Hrr::Make(1.0, 1024).ValueOrDie();
  Rng rng(5);
  uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hrr.Perturb(v, rng));
    v = (v + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HrrPerturb);

void BM_PmPerturb(benchmark::State& state) {
  const PiecewiseMechanism pm = PiecewiseMechanism::Make(1.0).ValueOrDie();
  Rng rng(6);
  double v = -1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.Perturb(v, rng));
    v += 0.001;
    if (v > 1.0) v = -1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmPerturb);

void BM_SrPerturb(benchmark::State& state) {
  const StochasticRounding sr = StochasticRounding::Make(1.0).ValueOrDie();
  Rng rng(7);
  double v = -1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sr.Perturb(v, rng));
    v += 0.001;
    if (v > 1.0) v = -1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SrPerturb);

void BM_OlhAggregate(benchmark::State& state) {
  // Server-side support counting: the O(n * d) hot loop.
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = 2000;
  const Olh olh = Olh::Make(1.0, d).ValueOrDie();
  Rng rng(8);
  std::vector<OlhReport> reports;
  reports.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    reports.push_back(
        olh.Perturb(static_cast<uint32_t>(rng.UniformInt(d)), rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(olh.Estimate(reports));
  }
  state.SetItemsProcessed(state.iterations() * n * d);
}
BENCHMARK(BM_OlhAggregate)->Arg(64)->Arg(256);

// OLH server absorb throughput (reports folded per second). The sequential
// variant hashes one report at a time against the whole domain; the batch
// variant is the blocked sweep the protocol layer uses.
std::vector<OlhReport> MakeOlhReports(const Olh& olh, size_t n) {
  Rng rng(9);
  std::vector<OlhReport> reports;
  reports.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    reports.push_back(olh.Perturb(
        static_cast<uint32_t>(rng.UniformInt(olh.domain())), rng));
  }
  return reports;
}

void BM_OlhAbsorbSequential(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = 4000;
  const Olh olh = Olh::Make(1.0, d).ValueOrDie();
  const std::vector<OlhReport> reports = MakeOlhReports(olh, n);
  FoSketch sketch = olh.MakeSketch();
  for (auto _ : state) {
    for (const OlhReport& rep : reports) olh.Absorb(rep, &sketch);
    benchmark::DoNotOptimize(sketch.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OlhAbsorbSequential)->Arg(256)->Arg(1024);

void BM_OlhAbsorbBatch(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = 4000;
  const Olh olh = Olh::Make(1.0, d).ValueOrDie();
  const std::vector<OlhReport> reports = MakeOlhReports(olh, n);
  FoSketch sketch = olh.MakeSketch();
  for (auto _ : state) {
    olh.AbsorbBatch(reports, &sketch);
    benchmark::DoNotOptimize(sketch.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OlhAbsorbBatch)->Arg(256)->Arg(1024);

void BM_SwTransitionMatrix(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.TransitionMatrix(d, d));
  }
  state.SetItemsProcessed(state.iterations() * d * d);
}
BENCHMARK(BM_SwTransitionMatrix)->Arg(256)->Arg(1024);

// ---- Bulk encode throughput (the client-side hot path the protocol layer
// drives: one PerturbBatch per shard). items_per_second = reports/s;
// compare against the per-report BM_*Perturb rows above.

std::vector<uint32_t> CyclicValues(size_t n, uint32_t d) {
  std::vector<uint32_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<uint32_t>(i % d);
  return values;
}

void BM_GrrEncodeBatch(benchmark::State& state) {
  const uint32_t d = static_cast<uint32_t>(state.range(0));
  const Grr grr = Grr::Make(1.0, d).ValueOrDie();
  const size_t n = 8192;
  const std::vector<uint32_t> values = CyclicValues(n, d);
  std::vector<uint32_t> out(n);
  Rng rng(10);
  for (auto _ : state) {
    grr.PerturbBatch(values, rng, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GrrEncodeBatch)->Arg(16)->Arg(1024);

void BM_OlhEncodeBatch(benchmark::State& state) {
  const Olh olh = Olh::Make(1.0, 1024).ValueOrDie();
  const size_t n = 8192;
  const std::vector<uint32_t> values = CyclicValues(n, 1024);
  std::vector<FoReport> out(n);
  Rng rng(11);
  for (auto _ : state) {
    olh.PerturbBatch(values, rng, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OlhEncodeBatch);

void BM_OueEncodeBatch(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Oue oue = Oue::Make(1.0, d).ValueOrDie();
  const size_t n = 2048;
  const std::vector<uint32_t> values = CyclicValues(n, static_cast<uint32_t>(d));
  std::vector<uint8_t> bits;
  Rng rng(12);
  for (auto _ : state) {
    bits.clear();
    oue.PerturbBatch(values, rng, &bits);
    benchmark::DoNotOptimize(bits.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OueEncodeBatch)->Arg(64);

void BM_HrrEncodeBatch(benchmark::State& state) {
  const Hrr hrr = Hrr::Make(1.0, 1024).ValueOrDie();
  const size_t n = 8192;
  const std::vector<uint32_t> values = CyclicValues(n, 1024);
  std::vector<HrrReport> out(n);
  Rng rng(13);
  for (auto _ : state) {
    hrr.PerturbBatch(values, rng, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HrrEncodeBatch);

void BM_SwEncodeBatch(benchmark::State& state) {
  const SquareWave sw = SquareWave::Make(1.0).ValueOrDie();
  const size_t n = 8192;
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<double>(i) / static_cast<double>(n - 1);
  }
  std::vector<double> out(n);
  Rng rng(14);
  for (auto _ : state) {
    sw.PerturbBatch(values, rng, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SwEncodeBatch);

void BM_DswEncodeBatch(benchmark::State& state) {
  const DiscreteSquareWave dsw = DiscreteSquareWave::Make(1.0, 1024)
                                     .ValueOrDie();
  const size_t n = 8192;
  const std::vector<uint32_t> values = CyclicValues(n, 1024);
  std::vector<uint32_t> out(n);
  Rng rng(15);
  for (auto _ : state) {
    dsw.PerturbBatch(values, rng, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DswEncodeBatch);

// ---- Bulk RNG generation (items = draws/s) and discrete sampling
// (alias table vs linear weight scan).

void BM_RngFillUniform(benchmark::State& state) {
  Rng rng(16);
  std::vector<double> buf(8192);
  for (auto _ : state) {
    rng.FillUniform(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * buf.size());
}
BENCHMARK(BM_RngFillUniform);

void BM_RngFillBernoulli(benchmark::State& state) {
  Rng rng(17);
  std::vector<uint8_t> buf(8192);
  for (auto _ : state) {
    rng.FillBernoulli(buf.data(), buf.size(), 0.25);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * buf.size());
}
BENCHMARK(BM_RngFillBernoulli);

std::vector<double> SamplerWeights(size_t d) {
  std::vector<double> weights(d);
  for (size_t i = 0; i < d; ++i) {
    weights[i] = 1.0 + static_cast<double>((i * 37) % 11);
  }
  return weights;
}

void BM_DiscreteLinear(benchmark::State& state) {
  const std::vector<double> weights =
      SamplerWeights(static_cast<size_t>(state.range(0)));
  Rng rng(18);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Discrete(weights));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiscreteLinear)->Arg(16)->Arg(256);

void BM_DiscreteAlias(benchmark::State& state) {
  const DiscreteSampler sampler(
      SamplerWeights(static_cast<size_t>(state.range(0))));
  Rng rng(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiscreteAlias)->Arg(16)->Arg(256);

}  // namespace
