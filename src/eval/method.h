// Method registry for the paper's evaluation (Table 2): every competitor is
// a thin adapter over one batched Protocol (see protocol/protocol.h), so
// the experiment runner and the per-figure benches can sweep them uniformly
// and shard their report streams across threads.
//
//   SW-EMS / SW-EM      (this paper, §5)        -> distribution + all metrics
//   HH-ADMM             (this paper, §4.3)      -> distribution + all metrics
//   CFO binning c=16/32/64 (§4.1)               -> distribution + all metrics
//   HH, HaarHRR         ([18], §4.2)            -> range queries only
//
// A DistributionMethod carries only a name, the Table-2 capability flag,
// and a factory instantiating the underlying Protocol at a concrete
// (epsilon, d). All client/server mechanics — batched encode+perturb,
// mergeable accumulation, reconstruction — live behind the Protocol
// contract; Run() is a convenience wrapper executing the whole pipeline as
// a single report chunk with the caller's RNG (deterministic given the
// seed). The runner instead uses MakeProtocol() directly and drives the
// sharded path (protocol/sharded.h) with per-shard RNG streams.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "protocol/protocol.h"

namespace numdist {

/// \brief A distribution-estimation protocol under evaluation.
class DistributionMethod {
 public:
  virtual ~DistributionMethod() = default;
  /// Display name, e.g. "SW-EMS", "CFO-bin-32".
  virtual const std::string& name() const = 0;
  /// True iff the method fills MethodOutput::distribution.
  virtual bool yields_distribution() const = 0;
  /// Instantiates the underlying batched Protocol at privacy budget
  /// `epsilon` and reconstruction granularity `d`.
  virtual Result<ProtocolPtr> MakeProtocol(double epsilon, size_t d) const = 0;
  /// Executes the full protocol (client perturbation + server estimation)
  /// on raw values in [0,1] as one report chunk. Convenience wrapper over
  /// MakeProtocol + RunProtocol for tests, tools and examples.
  virtual Result<MethodOutput> Run(const std::vector<double>& values,
                                   double epsilon, size_t d, Rng& rng) const;
};

/// SW reporting + EMS reconstruction (the paper's headline method).
std::unique_ptr<DistributionMethod> MakeSwEmsMethod();
/// SW reporting + plain EM reconstruction.
std::unique_ptr<DistributionMethod> MakeSwEmMethod();
/// CFO (adaptive GRR/OLH) on `bins` chunks + Norm-Sub + uniform expansion.
/// Requires bins to divide the reconstruction granularity d.
std::unique_ptr<DistributionMethod> MakeCfoBinningMethod(size_t bins);
/// Hierarchical histogram with constrained inference (range queries only).
std::unique_ptr<DistributionMethod> MakeHhMethod(size_t beta = 4);
/// Haar wavelet + HRR (range queries only).
std::unique_ptr<DistributionMethod> MakeHaarHrrMethod();
/// Hierarchical histogram post-processed with ADMM (this paper).
std::unique_ptr<DistributionMethod> MakeHhAdmmMethod(size_t beta = 4);

/// The full suite evaluated in the paper's figures, in display order:
/// SW-EMS, SW-EM, HH-ADMM, CFO-bin-16/32/64, HH, HaarHRR.
std::vector<std::unique_ptr<DistributionMethod>> MakeStandardSuite();

}  // namespace numdist
