#include "wire/wire.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/flags.h"
#include "protocol/cfo_protocol.h"
#include "protocol/hierarchy_protocol.h"
#include "protocol/sw_protocol.h"

namespace numdist::wire {

namespace {

// Preamble layout (8 bytes): u32 magic, u16 version, u8 frame type,
// u8 flags. The defined flag bits are kFlagTenantContext and
// kFlagSequence (report and sketch frames only); every other bit must be
// zero — the forward-compatibility escape hatch.
void WritePreamble(FrameType type, uint8_t flags, ByteWriter* out) {
  out->PutU32(kMagic);
  out->PutU16(kVersion);
  out->PutU8(static_cast<uint8_t>(type));
  out->PutU8(flags);
}

struct Preamble {
  FrameType type = FrameType::kReports;
  bool has_tenant = false;
  bool has_seq = false;
};

Result<Preamble> ReadPreamble(ByteReader* in) {
  NUMDIST_ASSIGN_OR_RETURN(const uint32_t magic, in->U32());
  if (magic != kMagic) {
    return Status::InvalidArgument("wire: bad magic (not a numdist frame)");
  }
  NUMDIST_ASSIGN_OR_RETURN(const uint16_t version, in->U16());
  if (version != kVersion) {
    return Status::FailedPrecondition(
        "wire: unsupported format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kVersion) + ")");
  }
  NUMDIST_ASSIGN_OR_RETURN(const uint8_t type, in->U8());
  // Type 3 is retired and never reassigned (docs/WIRE_FORMAT.md).
  if (type != static_cast<uint8_t>(FrameType::kReports) &&
      type != static_cast<uint8_t>(FrameType::kSketch) &&
      type != static_cast<uint8_t>(FrameType::kAck)) {
    return Status::InvalidArgument("wire: unknown frame type " +
                                   std::to_string(type));
  }
  NUMDIST_ASSIGN_OR_RETURN(const uint8_t flags, in->U8());
  if ((flags & ~(kFlagTenantContext | kFlagSequence)) != 0) {
    return Status::InvalidArgument(
        "wire: unknown flags " + std::to_string(flags) +
        " (version " + std::to_string(kVersion) +
        " defines only the tenant-context and sequence bits)");
  }
  Preamble preamble;
  preamble.type = static_cast<FrameType>(type);
  preamble.has_tenant = (flags & kFlagTenantContext) != 0;
  preamble.has_seq = (flags & kFlagSequence) != 0;
  if ((preamble.has_tenant || preamble.has_seq) &&
      preamble.type == FrameType::kAck) {
    return Status::InvalidArgument(
        "wire: only report and sketch frames may carry tenant/sequence "
        "context flags");
  }
  return preamble;
}

// The optional tenant context block: a u32 tenant id immediately after
// the method block, present iff the preamble carries kFlagTenantContext.
Result<uint32_t> ReadTenantBlock(const Preamble& preamble, ByteReader* in) {
  if (!preamble.has_tenant) return kDefaultTenant;
  NUMDIST_ASSIGN_OR_RETURN(const uint32_t tenant, in->U32());
  return tenant;
}

// The optional sequence context block: u64 epoch + u64 seq after the
// tenant block (or method block), present iff kFlagSequence is set. A
// sequence number of 0 is reserved (it would collide with "nothing
// claimed yet" in the collector's dedup window) and rejected here.
Result<FrameSeq> ReadSeqBlock(const Preamble& preamble, ByteReader* in) {
  FrameSeq seq;
  if (!preamble.has_seq) return seq;
  NUMDIST_ASSIGN_OR_RETURN(seq.epoch, in->U64());
  NUMDIST_ASSIGN_OR_RETURN(seq.seq, in->U64());
  if (seq.seq == 0) {
    return Status::InvalidArgument(
        "wire: sequence numbers start at 1 (seq 0 is reserved)");
  }
  return seq;
}

// Method context block (17 bytes): u8 method id, u32 family parameter,
// u64 epsilon bits, u32 granularity d.
void WriteMethodBlock(const MethodSpec& spec, ByteWriter* out) {
  out->PutU8(static_cast<uint8_t>(spec.method));
  out->PutU32(spec.param);
  out->PutU64(MethodSpec::EpsilonBits(spec.epsilon));
  out->PutU32(spec.d);
}

Result<MethodSpec> ReadMethodBlock(ByteReader* in) {
  NUMDIST_ASSIGN_OR_RETURN(const uint8_t method, in->U8());
  if (method < static_cast<uint8_t>(MethodId::kSwEms) ||
      method > static_cast<uint8_t>(MethodId::kHaarHrr)) {
    return Status::InvalidArgument("wire: unknown method id " +
                                   std::to_string(method));
  }
  MethodSpec spec;
  spec.method = static_cast<MethodId>(method);
  NUMDIST_ASSIGN_OR_RETURN(spec.param, in->U32());
  NUMDIST_ASSIGN_OR_RETURN(const uint64_t epsilon_bits, in->U64());
  std::memcpy(&spec.epsilon, &epsilon_bits, sizeof(spec.epsilon));
  NUMDIST_ASSIGN_OR_RETURN(spec.d, in->U32());
  return spec;
}

// The per-field mismatch taxonomy: a frame must match the receiving
// endpoint's spec exactly before its payload is even looked at.
Status MatchSpec(const MethodSpec& frame, const MethodSpec& expected) {
  if (frame.method != expected.method || frame.param != expected.param) {
    return Status::InvalidArgument(
        "wire: frame method " + MethodSpecName(frame) +
        " does not match this endpoint (" + MethodSpecName(expected) + ")");
  }
  if (MethodSpec::EpsilonBits(frame.epsilon) !=
      MethodSpec::EpsilonBits(expected.epsilon)) {
    return Status::InvalidArgument(
        "wire: frame epsilon does not match this endpoint (bit-exact "
        "comparison; reports under different budgets must not be merged)");
  }
  if (frame.d != expected.d) {
    return Status::InvalidArgument(
        "wire: frame granularity d=" + std::to_string(frame.d) +
        " does not match this endpoint (d=" + std::to_string(expected.d) +
        ")");
  }
  return Status::OK();
}

Status ExpectFrameType(FrameType got, FrameType want) {
  if (got != want) {
    return Status::InvalidArgument(
        "wire: expected frame type " +
        std::to_string(static_cast<int>(want)) + ", got " +
        std::to_string(static_cast<int>(got)));
  }
  return Status::OK();
}

Status ExpectFullyConsumed(const ByteReader& in, const char* what) {
  if (!in.AtEnd()) {
    return Status::InvalidArgument(
        "wire: " + std::to_string(in.remaining()) +
        " trailing byte(s) after " + what + " payload");
  }
  return Status::OK();
}

// Sketch payload: u64 total reports, u32 table count, then per table a
// u64 per-table report count, u64 length, and that many i64 counts.
void WriteSketchPayload(const AccumulatorState& state, ByteWriter* out) {
  out->PutU64(state.num_reports);
  out->PutU32(static_cast<uint32_t>(state.tables.size()));
  for (const AccumulatorTable& table : state.tables) {
    out->PutU64(table.n);
    out->PutU64(table.counts.size());
    for (int64_t c : table.counts) out->PutI64(c);
  }
}

Result<AccumulatorState> ReadSketchPayload(ByteReader* in) {
  AccumulatorState state;
  NUMDIST_ASSIGN_OR_RETURN(state.num_reports, in->U64());
  NUMDIST_ASSIGN_OR_RETURN(const uint32_t num_tables, in->U32());
  // Each table needs at least its two u64 length fields; bound before
  // reserving anything so a hostile count cannot drive allocation.
  if (num_tables > in->remaining() / (2 * sizeof(uint64_t))) {
    return Status::OutOfRange(
        "wire: sketch table count exceeds the remaining payload");
  }
  state.tables.reserve(num_tables);
  for (uint32_t t = 0; t < num_tables; ++t) {
    AccumulatorTable table;
    NUMDIST_ASSIGN_OR_RETURN(table.n, in->U64());
    NUMDIST_ASSIGN_OR_RETURN(const uint64_t len, in->U64());
    if (len > in->remaining() / sizeof(int64_t)) {
      return Status::OutOfRange(
          "wire: sketch table length exceeds the remaining payload");
    }
    table.counts.reserve(len);
    for (uint64_t i = 0; i < len; ++i) {
      NUMDIST_ASSIGN_OR_RETURN(const int64_t c, in->I64());
      table.counts.push_back(c);
    }
    state.tables.push_back(std::move(table));
  }
  return state;
}

Result<uint32_t> ParseTrailingCount(const std::string& name, size_t prefix) {
  const Result<uint64_t> value =
      ParseUint(std::string_view(name).substr(prefix), 100000);
  if (!value.ok()) {
    return Status::InvalidArgument("wire: bad bin count in method '" + name +
                                   "': " + value.status().message());
  }
  return static_cast<uint32_t>(value.value());
}

// The one granularity check, shared by ParseMethodSpec (before d is
// narrowed to the spec's u32) and MakeProtocolForSpec (before any protocol
// sizes a table by it).
Status CheckGranularity(uint64_t d) {
  if (d < 2 || d > kMaxGranularity) {
    return Status::InvalidArgument(
        "wire: granularity d = " + std::to_string(d) + " is outside [2, " +
        std::to_string(kMaxGranularity) + "]");
  }
  return Status::OK();
}

}  // namespace

uint64_t MethodSpec::EpsilonBits(double epsilon) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(epsilon));
  std::memcpy(&bits, &epsilon, sizeof(bits));
  return bits;
}

Result<MethodSpec> ParseMethodSpec(const std::string& method, double epsilon,
                                   uint64_t d) {
  NUMDIST_RETURN_NOT_OK(CheckGranularity(d));
  MethodSpec spec;
  spec.epsilon = epsilon;
  spec.d = static_cast<uint32_t>(d);
  if (method == "sw-ems") {
    spec.method = MethodId::kSwEms;
  } else if (method == "sw-em") {
    spec.method = MethodId::kSwEm;
  } else if (method == "hh") {
    spec.method = MethodId::kHh;
    spec.param = 4;
  } else if (method == "hh-admm") {
    spec.method = MethodId::kHhAdmm;
    spec.param = 4;
  } else if (method == "haar-hrr") {
    spec.method = MethodId::kHaarHrr;
  } else if (method.rfind("cfo-grr-", 0) == 0) {
    spec.method = MethodId::kCfoGrr;
    NUMDIST_ASSIGN_OR_RETURN(spec.param, ParseTrailingCount(method, 8));
  } else if (method.rfind("cfo-olh-", 0) == 0) {
    spec.method = MethodId::kCfoOlh;
    NUMDIST_ASSIGN_OR_RETURN(spec.param, ParseTrailingCount(method, 8));
  } else if (method.rfind("cfo-oue-", 0) == 0) {
    spec.method = MethodId::kCfoOue;
    NUMDIST_ASSIGN_OR_RETURN(spec.param, ParseTrailingCount(method, 8));
  } else if (method.rfind("cfo-", 0) == 0) {
    spec.method = MethodId::kCfoAdaptive;
    NUMDIST_ASSIGN_OR_RETURN(spec.param, ParseTrailingCount(method, 4));
  } else {
    return Status::InvalidArgument(
        "wire: unknown method '" + method +
        "' (expected sw-ems, sw-em, cfo-<bins>, cfo-grr-<bins>, "
        "cfo-olh-<bins>, cfo-oue-<bins>, hh, hh-admm, or haar-hrr)");
  }
  return spec;
}

std::string MethodSpecName(const MethodSpec& spec) {
  switch (spec.method) {
    case MethodId::kSwEms:
      return "sw-ems";
    case MethodId::kSwEm:
      return "sw-em";
    case MethodId::kCfoAdaptive:
      return "cfo-" + std::to_string(spec.param);
    case MethodId::kCfoGrr:
      return "cfo-grr-" + std::to_string(spec.param);
    case MethodId::kCfoOlh:
      return "cfo-olh-" + std::to_string(spec.param);
    case MethodId::kCfoOue:
      return "cfo-oue-" + std::to_string(spec.param);
    case MethodId::kHh:
      return "hh";
    case MethodId::kHhAdmm:
      return "hh-admm";
    case MethodId::kHaarHrr:
      return "haar-hrr";
  }
  return "unknown";
}

Result<ProtocolPtr> MakeProtocolForSpec(const MethodSpec& spec) {
  if (!(spec.epsilon > 0.0) || !std::isfinite(spec.epsilon)) {
    return Status::InvalidArgument(
        "wire: method spec epsilon must be positive and finite");
  }
  NUMDIST_RETURN_NOT_OK(CheckGranularity(spec.d));
  switch (spec.method) {
    case MethodId::kSwEms:
    case MethodId::kSwEm: {
      NUMDIST_ASSIGN_OR_RETURN(const SwEstimatorOptions options,
                               SwEstimatorOptionsForSpec(spec));
      return MakeSwProtocol(options);
    }
    case MethodId::kCfoAdaptive:
      return MakeCfoBinningProtocol(spec.epsilon, spec.d, spec.param,
                                    FoKind::kAdaptive);
    case MethodId::kCfoGrr:
      return MakeCfoBinningProtocol(spec.epsilon, spec.d, spec.param,
                                    FoKind::kGrr);
    case MethodId::kCfoOlh:
      return MakeCfoBinningProtocol(spec.epsilon, spec.d, spec.param,
                                    FoKind::kOlh);
    case MethodId::kCfoOue:
      return MakeCfoBinningProtocol(spec.epsilon, spec.d, spec.param,
                                    FoKind::kOue);
    case MethodId::kHh:
      return MakeHhBatchedProtocol(spec.epsilon, spec.d, spec.param,
                                   HhPost::kConstrained);
    case MethodId::kHhAdmm:
      return MakeHhBatchedProtocol(spec.epsilon, spec.d, spec.param,
                                   HhPost::kAdmm);
    case MethodId::kHaarHrr:
      return MakeHaarHrrBatchedProtocol(spec.epsilon, spec.d);
  }
  return Status::InvalidArgument("wire: unknown method id in spec");
}

Result<SwEstimatorOptions> SwEstimatorOptionsForSpec(const MethodSpec& spec) {
  if (spec.method != MethodId::kSwEms && spec.method != MethodId::kSwEm) {
    return Status::InvalidArgument("wire: method " + MethodSpecName(spec) +
                                   " is not an SW method (sw-ems or sw-em)");
  }
  SwEstimatorOptions options;
  options.epsilon = spec.epsilon;
  options.d = spec.d;
  options.post = spec.method == MethodId::kSwEms
                     ? SwEstimatorOptions::Post::kEms
                     : SwEstimatorOptions::Post::kEm;
  return options;
}

Result<FrameInfo> PeekFrame(std::span<const uint8_t> frame) {
  ByteReader in(frame);
  FrameInfo info;
  NUMDIST_ASSIGN_OR_RETURN(const Preamble preamble, ReadPreamble(&in));
  info.type = preamble.type;
  if (info.type == FrameType::kAck) {
    NUMDIST_ASSIGN_OR_RETURN(info.seq.epoch, in.U64());
    NUMDIST_ASSIGN_OR_RETURN(info.seq.seq, in.U64());
    if (info.seq.seq == 0) {
      return Status::InvalidArgument(
          "wire: ack frame acknowledges seq 0 (sequence numbers start at 1)");
    }
    info.has_seq = true;
  } else {
    NUMDIST_ASSIGN_OR_RETURN(info.spec, ReadMethodBlock(&in));
    NUMDIST_ASSIGN_OR_RETURN(info.tenant, ReadTenantBlock(preamble, &in));
    NUMDIST_ASSIGN_OR_RETURN(info.seq, ReadSeqBlock(preamble, &in));
    info.has_seq = preamble.has_seq;
  }
  return info;
}

Result<FrameInfo> PeekFrame(std::string_view frame) {
  return PeekFrame(FrameBytes(frame));
}

Status EncodeReportFrame(const MethodSpec& spec, const Protocol& protocol,
                         const ReportChunk& chunk, std::string* out) {
  return EncodeReportFrame(spec, kDefaultTenant, protocol, chunk, out);
}

Status EncodeReportFrame(const MethodSpec& spec, uint32_t tenant,
                         const Protocol& protocol, const ReportChunk& chunk,
                         std::string* out) {
  // A payload-encode failure (e.g. a chunk from a different protocol)
  // must leave *out untouched — callers batching frames into one buffer
  // must never be left with orphan header bytes. Rolling back to the
  // prior size keeps the hot path writing straight into *out (this is
  // the encode path bench/wire_throughput holds to the 1M reports/s bar).
  const size_t prev_size = out->size();
  ByteWriter writer(out);
  WritePreamble(FrameType::kReports,
                tenant == kDefaultTenant ? 0 : kFlagTenantContext, &writer);
  WriteMethodBlock(spec, &writer);
  if (tenant != kDefaultTenant) writer.PutU32(tenant);
  const Status payload = protocol.EncodeChunkPayload(chunk, &writer);
  if (!payload.ok()) {
    out->resize(prev_size);
    return payload;
  }
  return Status::OK();
}

Result<std::unique_ptr<ReportChunk>> DecodeReportFrame(
    const MethodSpec& spec, const Protocol& protocol,
    std::span<const uint8_t> frame) {
  ByteReader in(frame);
  NUMDIST_ASSIGN_OR_RETURN(const Preamble preamble, ReadPreamble(&in));
  NUMDIST_RETURN_NOT_OK(ExpectFrameType(preamble.type, FrameType::kReports));
  NUMDIST_ASSIGN_OR_RETURN(const MethodSpec frame_spec, ReadMethodBlock(&in));
  NUMDIST_RETURN_NOT_OK(MatchSpec(frame_spec, spec));
  NUMDIST_RETURN_NOT_OK(ReadTenantBlock(preamble, &in).status());
  NUMDIST_RETURN_NOT_OK(ReadSeqBlock(preamble, &in).status());
  NUMDIST_ASSIGN_OR_RETURN(std::unique_ptr<ReportChunk> chunk,
                           protocol.DecodeChunkPayload(&in));
  NUMDIST_RETURN_NOT_OK(ExpectFullyConsumed(in, "report"));
  return chunk;
}

Status EncodeSketchFrame(const MethodSpec& spec, const Accumulator& acc,
                         std::string* out) {
  return EncodeSketchFrame(spec, kDefaultTenant, acc, out);
}

Status EncodeSketchFrame(const MethodSpec& spec, uint32_t tenant,
                         const Accumulator& acc, std::string* out) {
  ByteWriter writer(out);
  WritePreamble(FrameType::kSketch,
                tenant == kDefaultTenant ? 0 : kFlagTenantContext, &writer);
  WriteMethodBlock(spec, &writer);
  if (tenant != kDefaultTenant) writer.PutU32(tenant);
  WriteSketchPayload(acc.ExportState(), &writer);
  return Status::OK();
}

Result<std::unique_ptr<Accumulator>> DecodeSketchFrame(
    const MethodSpec& spec, const Protocol& protocol,
    std::span<const uint8_t> frame) {
  ByteReader in(frame);
  NUMDIST_ASSIGN_OR_RETURN(const Preamble preamble, ReadPreamble(&in));
  NUMDIST_RETURN_NOT_OK(ExpectFrameType(preamble.type, FrameType::kSketch));
  NUMDIST_ASSIGN_OR_RETURN(const MethodSpec frame_spec, ReadMethodBlock(&in));
  NUMDIST_RETURN_NOT_OK(MatchSpec(frame_spec, spec));
  NUMDIST_RETURN_NOT_OK(ReadTenantBlock(preamble, &in).status());
  NUMDIST_RETURN_NOT_OK(ReadSeqBlock(preamble, &in).status());
  NUMDIST_ASSIGN_OR_RETURN(const AccumulatorState state,
                           ReadSketchPayload(&in));
  NUMDIST_RETURN_NOT_OK(ExpectFullyConsumed(in, "sketch"));
  std::unique_ptr<Accumulator> acc = protocol.MakeAccumulator();
  NUMDIST_RETURN_NOT_OK(acc->ImportState(state));
  return acc;
}

Status EncodeAckFrame(const FrameSeq& seq, std::string* out) {
  if (seq.seq == 0) {
    return Status::InvalidArgument(
        "wire: cannot ack seq 0 (sequence numbers start at 1)");
  }
  ByteWriter writer(out);
  WritePreamble(FrameType::kAck, 0, &writer);
  writer.PutU64(seq.epoch);
  writer.PutU64(seq.seq);
  return Status::OK();
}

Result<FrameSeq> DecodeAckFrame(std::span<const uint8_t> frame) {
  ByteReader in(frame);
  NUMDIST_ASSIGN_OR_RETURN(const Preamble preamble, ReadPreamble(&in));
  NUMDIST_RETURN_NOT_OK(ExpectFrameType(preamble.type, FrameType::kAck));
  FrameSeq seq;
  NUMDIST_ASSIGN_OR_RETURN(seq.epoch, in.U64());
  NUMDIST_ASSIGN_OR_RETURN(seq.seq, in.U64());
  if (seq.seq == 0) {
    return Status::InvalidArgument(
        "wire: ack frame acknowledges seq 0 (sequence numbers start at 1)");
  }
  NUMDIST_RETURN_NOT_OK(ExpectFullyConsumed(in, "ack"));
  return seq;
}

Result<FrameSeq> DecodeAckFrame(std::string_view frame) {
  return DecodeAckFrame(FrameBytes(frame));
}

Status StampSequenceContext(std::string* frame, const FrameSeq& seq) {
  if (seq.seq == 0) {
    return Status::InvalidArgument(
        "wire: cannot stamp seq 0 (sequence numbers start at 1)");
  }
  ByteReader in(FrameBytes(*frame));
  NUMDIST_ASSIGN_OR_RETURN(const Preamble preamble, ReadPreamble(&in));
  if (preamble.type != FrameType::kReports &&
      preamble.type != FrameType::kSketch) {
    return Status::InvalidArgument(
        "wire: only report and sketch frames take a sequence context");
  }
  if (preamble.has_seq) {
    return Status::InvalidArgument(
        "wire: frame already carries a sequence context");
  }
  // The sequence block's defined position: after the 8-byte preamble, the
  // 17-byte method block, and the 4-byte tenant block when present.
  const size_t insert_at = 8 + 17 + (preamble.has_tenant ? 4u : 0u);
  if (frame->size() < insert_at) {
    return Status::OutOfRange("wire: truncated frame (no room for context)");
  }
  std::string block;
  ByteWriter writer(&block);
  writer.PutU64(seq.epoch);
  writer.PutU64(seq.seq);
  frame->insert(insert_at, block);
  (*frame)[7] = static_cast<char>(static_cast<uint8_t>((*frame)[7]) |
                                  kFlagSequence);
  return Status::OK();
}

std::span<const uint8_t> FrameBytes(std::string_view frame) {
  return std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size());
}

}  // namespace numdist::wire
