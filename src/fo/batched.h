// Uniform batched client/server facade over the categorical frequency
// oracles. Every oracle family reduces to the same three-stage contract the
// protocol layer builds on: perturb a batch of values into a wire chunk,
// fold chunks into a mergeable FoSketch, invert the sketch into frequency
// estimates. This is what lets one CFO binning protocol run over GRR, OLH,
// OUE, or the variance-adaptive dispatcher without per-oracle plumbing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "fo/sketch.h"

namespace numdist {

/// Which oracle backs a BatchedFo.
enum class FoKind {
  kAdaptive,  ///< GRR or OLH, whichever has lower variance (paper §2.1).
  kGrr,
  kOlh,
  kOue,
};

/// One client shard's perturbed reports. `reports` carries GRR/OLH/adaptive
/// wire reports; OUE instead appends its d-bit vectors to `bits` (flattened,
/// stride = domain). `n` counts the users in the chunk either way.
struct FoChunk {
  std::vector<FoReport> reports;
  std::vector<uint8_t> bits;
  uint64_t n = 0;
};

/// \brief One frequency oracle behind the batched contract.
class BatchedFo {
 public:
  virtual ~BatchedFo() = default;

  /// Categorical domain size.
  virtual size_t domain() const = 0;

  /// Client side: perturbs every value in {0..domain-1} and appends the
  /// reports to `*chunk`.
  virtual void PerturbBatch(std::span<const uint32_t> values, Rng& rng,
                            FoChunk* chunk) const = 0;

  /// Empty aggregation state.
  virtual FoSketch MakeSketch() const = 0;

  /// Server side: folds a chunk into the sketch.
  virtual Status Absorb(const FoChunk& chunk, FoSketch* sketch) const = 0;

  /// Unbiased frequency estimates from an absorbed sketch.
  virtual std::vector<double> Estimate(const FoSketch& sketch) const = 0;
};

/// Builds the batched facade for one oracle family.
/// Requires epsilon > 0 and domain >= 2.
Result<std::unique_ptr<BatchedFo>> MakeBatchedFo(FoKind kind, double epsilon,
                                                 size_t domain);

}  // namespace numdist
