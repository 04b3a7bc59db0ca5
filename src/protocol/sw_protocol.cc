#include "protocol/sw_protocol.h"

#include <algorithm>
#include <span>
#include <utility>

namespace numdist {

namespace {

// Wire format: each report's output-bucket index, the only part of a
// report EM/EMS reads. The client bucketizes (post-processing of an
// eps-LDP report), so absorbing is one count increment per report.
class SwChunk final : public ReportChunk {
 public:
  size_t num_reports() const override { return buckets.size(); }
  std::vector<uint32_t> buckets;  // each < output_buckets
  size_t output_buckets = 0;  // aggregation shape the chunk was encoded for
  bool discrete = false;      // bucketize-before-randomize pipeline
};

// Bytes per index on the wire: the narrowest of 1, 2 and 4 that holds
// every output bucket.
size_t IndexWidth(size_t output_buckets) {
  if (output_buckets <= (size_t{1} << 8)) return 1;
  if (output_buckets <= (size_t{1} << 16)) return 2;
  return 4;
}

template <size_t Width>
void PackFixed(std::span<const uint32_t> in, uint8_t* out) {
  for (size_t i = 0; i < in.size(); ++i) {
    for (size_t b = 0; b < Width; ++b) {
      out[i * Width + b] = static_cast<uint8_t>(in[i] >> (8 * b));
    }
  }
}

template <size_t Width>
bool UnpackFixed(const uint8_t* in, uint32_t limit, std::span<uint32_t> out) {
  uint32_t max = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    uint32_t j = 0;
    for (size_t b = 0; b < Width; ++b) {
      j |= static_cast<uint32_t>(in[i * Width + b]) << (8 * b);
    }
    out[i] = j;
    max = std::max(max, j);
  }
  return max < limit;
}

// Writes each index little-endian in `width` bytes.
void PackIndices(std::span<const uint32_t> in, size_t width, uint8_t* out) {
  switch (width) {
    case 1: return PackFixed<1>(in, out);
    case 2: return PackFixed<2>(in, out);
    default: return PackFixed<4>(in, out);
  }
}

// Reads out.size() little-endian `width`-byte indices into `out`; false
// iff one of them is >= limit.
bool UnpackIndices(const uint8_t* in, size_t width, uint32_t limit,
                   std::span<uint32_t> out) {
  switch (width) {
    case 1: return UnpackFixed<1>(in, limit, out);
    case 2: return UnpackFixed<2>(in, limit, out);
    default: return UnpackFixed<4>(in, limit, out);
  }
}

class SwAccumulator final : public Accumulator {
 public:
  explicit SwAccumulator(size_t buckets) : counts_(buckets, 0) {}

  Status Absorb(const ReportChunk& chunk) override {
    const auto* sw_chunk = dynamic_cast<const SwChunk*>(&chunk);
    if (sw_chunk == nullptr) {
      return Status::InvalidArgument("SW: chunk from a different protocol");
    }
    if (sw_chunk->output_buckets != counts_.size()) {
      return Status::InvalidArgument("SW: chunk shape mismatch");
    }
    // Every index is below output_buckets: the encoder produces them so
    // and the decoder, the trust boundary, rejects any other.
    for (uint32_t j : sw_chunk->buckets) ++counts_[j];
    n_ += sw_chunk->buckets.size();
    return Status::OK();
  }

  Status Merge(const Accumulator& other) override {
    const auto* sw_other = dynamic_cast<const SwAccumulator*>(&other);
    if (sw_other == nullptr || sw_other->counts_.size() != counts_.size()) {
      return Status::InvalidArgument("SW: accumulator shape mismatch");
    }
    for (size_t j = 0; j < counts_.size(); ++j) {
      counts_[j] += sw_other->counts_[j];
    }
    n_ += sw_other->n_;
    return Status::OK();
  }

  uint64_t num_reports() const override { return n_; }
  const std::vector<uint64_t>& counts() const { return counts_; }

  AccumulatorState ExportState() const override {
    AccumulatorState state;
    state.num_reports = n_;
    AccumulatorTable table;
    table.n = n_;
    table.counts.assign(counts_.begin(), counts_.end());
    state.tables.push_back(std::move(table));
    return state;
  }

  Status ImportState(const AccumulatorState& state) override {
    if (state.tables.size() != 1 ||
        state.tables[0].counts.size() != counts_.size()) {
      return Status::InvalidArgument("SW: accumulator state shape mismatch");
    }
    if (state.tables[0].n != state.num_reports) {
      return Status::InvalidArgument(
          "SW: inconsistent report counts in accumulator state");
    }
    // Every SW report lands in exactly one output bucket, so the counts
    // must be non-negative and sum to the report count — cheap integrity
    // checks that reject corrupted-but-well-shaped state. The sum is
    // overflow-checked: counts crafted to wrap mod 2^64 back onto the
    // report count must not pass.
    uint64_t total = 0;
    for (int64_t c : state.tables[0].counts) {
      if (c < 0) {
        return Status::InvalidArgument(
            "SW: negative bucket count in accumulator state");
      }
      const uint64_t u = static_cast<uint64_t>(c);
      if (u > UINT64_MAX - total) {
        return Status::InvalidArgument(
            "SW: bucket counts overflow in accumulator state");
      }
      total += u;
    }
    if (total != state.num_reports) {
      return Status::InvalidArgument(
          "SW: bucket counts do not sum to the report count");
    }
    for (size_t j = 0; j < counts_.size(); ++j) {
      counts_[j] = static_cast<uint64_t>(state.tables[0].counts[j]);
    }
    n_ = state.num_reports;
    return Status::OK();
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
};

class SwProtocol final : public Protocol {
 public:
  explicit SwProtocol(SwEstimator estimator)
      : estimator_(std::move(estimator)),
        name_(estimator_.options().post == SwEstimatorOptions::Post::kEms
                  ? "SW-EMS"
                  : "SW-EM") {}

  const std::string& name() const override { return name_; }
  bool yields_distribution() const override { return true; }
  size_t granularity() const override { return estimator_.options().d; }

  std::unique_ptr<Accumulator> MakeAccumulator() const override {
    return std::make_unique<SwAccumulator>(estimator_.output_buckets());
  }

  Result<std::unique_ptr<ReportChunk>> EncodePerturbBatch(
      std::span<const double> values, Rng& rng) const override {
    auto chunk = std::make_unique<SwChunk>();
    chunk->output_buckets = estimator_.output_buckets();
    chunk->discrete =
        estimator_.options().pipeline ==
        SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
    chunk->buckets.resize(values.size());
    estimator_.PerturbBatchToBuckets(values, rng, chunk->buckets.data());
    return std::unique_ptr<ReportChunk>(std::move(chunk));
  }

  // Wire payload (docs/WIRE_FORMAT.md): u8 pipeline flag, u32 output
  // buckets, u64 report count, then one little-endian index per report
  // at IndexWidth(output buckets) bytes.
  Status EncodeChunkPayload(const ReportChunk& chunk,
                            ByteWriter* out) const override {
    const auto* sw_chunk = dynamic_cast<const SwChunk*>(&chunk);
    if (sw_chunk == nullptr) {
      return Status::InvalidArgument("SW: chunk from a different protocol");
    }
    out->PutU8(sw_chunk->discrete ? 1 : 0);
    out->PutU32(static_cast<uint32_t>(sw_chunk->output_buckets));
    out->PutU64(sw_chunk->buckets.size());
    const size_t width = IndexWidth(sw_chunk->output_buckets);
    PackIndices(sw_chunk->buckets, width,
                out->Extend(sw_chunk->buckets.size() * width));
    return Status::OK();
  }

  Result<std::unique_ptr<ReportChunk>> DecodeChunkPayload(
      ByteReader* in) const override {
    NUMDIST_ASSIGN_OR_RETURN(const uint8_t discrete, in->U8());
    if (discrete > 1) {
      return Status::InvalidArgument("SW: bad pipeline flag in chunk payload");
    }
    const bool expect_discrete =
        estimator_.options().pipeline ==
        SwEstimatorOptions::Pipeline::kBucketizeBeforeRandomize;
    if ((discrete == 1) != expect_discrete) {
      return Status::InvalidArgument(
          "SW: chunk pipeline does not match this protocol");
    }
    NUMDIST_ASSIGN_OR_RETURN(const uint32_t buckets, in->U32());
    if (buckets != estimator_.output_buckets()) {
      return Status::InvalidArgument(
          "SW: chunk output-bucket count does not match this protocol");
    }
    NUMDIST_ASSIGN_OR_RETURN(const uint64_t count, in->U64());
    const size_t width = IndexWidth(buckets);
    if (count > in->remaining() / width) {
      return Status::OutOfRange(
          "SW: chunk report count exceeds the remaining payload");
    }
    NUMDIST_ASSIGN_OR_RETURN(const std::span<const uint8_t> packed,
                             in->View(count * width));
    auto chunk = std::make_unique<SwChunk>();
    chunk->discrete = discrete == 1;
    chunk->output_buckets = buckets;
    chunk->buckets.resize(count);
    // Wire reports are untrusted: this range check is what lets Absorb
    // index the count vector directly.
    if (!UnpackIndices(packed.data(), width, buckets, chunk->buckets)) {
      return Status::InvalidArgument(
          "SW: report bucket index outside the output domain");
    }
    return std::unique_ptr<ReportChunk>(std::move(chunk));
  }

  Result<MethodOutput> Reconstruct(const Accumulator& acc) const override {
    const auto* sw_acc = dynamic_cast<const SwAccumulator*>(&acc);
    if (sw_acc == nullptr) {
      return Status::InvalidArgument("SW: accumulator from another protocol");
    }
    if (sw_acc->num_reports() == 0) {
      return Status::InvalidArgument("SW: no reports absorbed");
    }
    Result<EmResult> em = estimator_.Reconstruct(sw_acc->counts());
    if (!em.ok()) return em.status();
    MethodOutput out;
    out.distribution = std::move(em).value().estimate;
    out.range_query = DistributionRangeQuery(out.distribution);
    return out;
  }

 private:
  SwEstimator estimator_;
  std::string name_;
};

}  // namespace

Result<ProtocolPtr> MakeSwProtocol(const SwEstimatorOptions& options) {
  Result<SwEstimator> estimator = SwEstimator::Make(options);
  if (!estimator.ok()) return estimator.status();
  return ProtocolPtr(new SwProtocol(std::move(estimator).value()));
}

}  // namespace numdist
