#include "fo/batched.h"

#include <utility>

#include "fo/adaptive.h"
#include "fo/grr.h"
#include "fo/olh.h"
#include "fo/oue.h"

namespace numdist {

namespace {

// GRR, OLH, and the adaptive dispatcher all speak FoReport; AdaptiveFo
// already routes between the two plain oracles, so wrapping it (or a
// degenerate forced instance) covers three of the four kinds.
class AdaptiveBatchedFo final : public BatchedFo {
 public:
  explicit AdaptiveBatchedFo(AdaptiveFo fo) : fo_(std::move(fo)) {}

  size_t domain() const override { return fo_.domain(); }

  void PerturbBatch(std::span<const uint32_t> values, Rng& rng,
                    FoChunk* chunk) const override {
    const size_t old_size = chunk->reports.size();
    chunk->reports.resize(old_size + values.size());
    fo_.PerturbBatch(values, rng, chunk->reports.data() + old_size);
    chunk->n += values.size();
  }

  FoSketch MakeSketch() const override { return fo_.MakeSketch(); }

  Status Absorb(const FoChunk& chunk, FoSketch* sketch) const override {
    if (chunk.reports.size() != chunk.n || !chunk.bits.empty()) {
      return Status::InvalidArgument("BatchedFo: malformed report chunk");
    }
    // Reports come from untrusted clients: never index out of bounds on a
    // bad GRR category (OLH hashes are compared, never indexed), and
    // reject the whole chunk before folding anything so an error leaves
    // the sketch untouched.
    if (fo_.uses_grr()) {
      for (const FoReport& rep : chunk.reports) {
        if (rep.value >= fo_.domain()) {
          return Status::InvalidArgument("BatchedFo: report out of domain");
        }
      }
      for (const FoReport& rep : chunk.reports) fo_.Absorb(rep, sketch);
    } else {
      // OLH support counting dominates server cost; use the blocked path.
      fo_.olh().AbsorbBatch(std::span<const FoReport>(chunk.reports), sketch);
    }
    return Status::OK();
  }

  std::vector<double> Estimate(const FoSketch& sketch) const override {
    return fo_.EstimateFromSketch(sketch);
  }

 private:
  AdaptiveFo fo_;
};

class GrrBatchedFo final : public BatchedFo {
 public:
  explicit GrrBatchedFo(Grr grr) : grr_(std::move(grr)) {}

  size_t domain() const override { return grr_.domain(); }

  void PerturbBatch(std::span<const uint32_t> values, Rng& rng,
                    FoChunk* chunk) const override {
    const size_t old_size = chunk->reports.size();
    chunk->reports.resize(old_size + values.size());
    // Bulk map through the dispatched GRR kernel, then widen the raw
    // categories into the wire format.
    std::vector<uint32_t> raw(values.size());
    grr_.PerturbBatch(values, rng, raw.data());
    FoReport* out = chunk->reports.data() + old_size;
    for (size_t i = 0; i < raw.size(); ++i) out[i] = FoReport{0, raw[i]};
    chunk->n += values.size();
  }

  FoSketch MakeSketch() const override { return grr_.MakeSketch(); }

  Status Absorb(const FoChunk& chunk, FoSketch* sketch) const override {
    if (chunk.reports.size() != chunk.n || !chunk.bits.empty()) {
      return Status::InvalidArgument("BatchedFo: malformed report chunk");
    }
    // Validate the whole chunk before folding anything so an error leaves
    // the sketch untouched.
    for (const FoReport& rep : chunk.reports) {
      if (rep.value >= grr_.domain()) {
        return Status::InvalidArgument("BatchedFo: report out of domain");
      }
    }
    for (const FoReport& rep : chunk.reports) grr_.Absorb(rep.value, sketch);
    return Status::OK();
  }

  std::vector<double> Estimate(const FoSketch& sketch) const override {
    return grr_.EstimateFromSketch(sketch);
  }

 private:
  Grr grr_;
};

class OlhBatchedFo final : public BatchedFo {
 public:
  explicit OlhBatchedFo(Olh olh) : olh_(std::move(olh)) {}

  size_t domain() const override { return olh_.domain(); }

  void PerturbBatch(std::span<const uint32_t> values, Rng& rng,
                    FoChunk* chunk) const override {
    const size_t old_size = chunk->reports.size();
    chunk->reports.resize(old_size + values.size());
    olh_.PerturbBatch(values, rng, chunk->reports.data() + old_size);
    chunk->n += values.size();
  }

  FoSketch MakeSketch() const override { return olh_.MakeSketch(); }

  Status Absorb(const FoChunk& chunk, FoSketch* sketch) const override {
    if (chunk.reports.size() != chunk.n || !chunk.bits.empty()) {
      return Status::InvalidArgument("BatchedFo: malformed report chunk");
    }
    // Blocked batch absorb: the OLH support-count pass is the aggregator's
    // O(n * domain) hot loop, so hand the whole chunk down at once.
    olh_.AbsorbBatch(std::span<const FoReport>(chunk.reports), sketch);
    return Status::OK();
  }

  std::vector<double> Estimate(const FoSketch& sketch) const override {
    return olh_.EstimateFromSketch(sketch);
  }

 private:
  Olh olh_;
};

class OueBatchedFo final : public BatchedFo {
 public:
  explicit OueBatchedFo(Oue oue) : oue_(std::move(oue)) {}

  size_t domain() const override { return oue_.domain(); }

  void PerturbBatch(std::span<const uint32_t> values, Rng& rng,
                    FoChunk* chunk) const override {
    oue_.PerturbBatch(values, rng, &chunk->bits);
    chunk->n += values.size();
  }

  FoSketch MakeSketch() const override { return oue_.MakeSketch(); }

  Status Absorb(const FoChunk& chunk, FoSketch* sketch) const override {
    const size_t d = oue_.domain();
    if (chunk.bits.size() != chunk.n * d || !chunk.reports.empty()) {
      return Status::InvalidArgument("BatchedFo: malformed OUE chunk");
    }
    // Untrusted clients: a non-binary byte would silently inflate the ones
    // counts. Reject the whole chunk before folding anything.
    for (uint8_t bit : chunk.bits) {
      if (bit > 1) {
        return Status::InvalidArgument("BatchedFo: non-binary OUE bit");
      }
    }
    for (uint64_t u = 0; u < chunk.n; ++u) {
      for (size_t j = 0; j < d; ++j) {
        sketch->counts[j] += chunk.bits[u * d + j];
      }
    }
    sketch->n += chunk.n;
    return Status::OK();
  }

  std::vector<double> Estimate(const FoSketch& sketch) const override {
    return oue_.EstimateFromSketch(sketch);
  }

 private:
  Oue oue_;
};

}  // namespace

Result<std::unique_ptr<BatchedFo>> MakeBatchedFo(FoKind kind, double epsilon,
                                                 size_t domain) {
  switch (kind) {
    case FoKind::kAdaptive: {
      Result<AdaptiveFo> fo = AdaptiveFo::Make(epsilon, domain);
      if (!fo.ok()) return fo.status();
      return std::unique_ptr<BatchedFo>(
          new AdaptiveBatchedFo(std::move(fo).value()));
    }
    case FoKind::kGrr: {
      Result<Grr> grr = Grr::Make(epsilon, domain);
      if (!grr.ok()) return grr.status();
      return std::unique_ptr<BatchedFo>(new GrrBatchedFo(std::move(grr).value()));
    }
    case FoKind::kOlh: {
      Result<Olh> olh = Olh::Make(epsilon, domain);
      if (!olh.ok()) return olh.status();
      return std::unique_ptr<BatchedFo>(new OlhBatchedFo(std::move(olh).value()));
    }
    case FoKind::kOue: {
      Result<Oue> oue = Oue::Make(epsilon, domain);
      if (!oue.ok()) return oue.status();
      return std::unique_ptr<BatchedFo>(new OueBatchedFo(std::move(oue).value()));
    }
  }
  return Status::InvalidArgument("MakeBatchedFo: unknown oracle kind");
}

}  // namespace numdist
