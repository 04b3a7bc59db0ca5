// Versioned, endian-stable binary wire format for distributed collection.
//
// The paper's deployment model is millions of clients sending one
// randomized report each to an untrusted aggregator; this layer gives
// every in-memory artifact of that pipeline a serialized form so it can
// cross a process or machine boundary:
//
//   report frames    one Protocol report chunk (a batch of perturbed
//                    client reports in the mechanism's wire format);
//   sketch frames    one Protocol accumulator's exact integer state
//                    (AccumulatorState) — what collector shards ship to
//                    the coordinator for merging;
//   ack frames       collector -> client: one sequenced frame is durable.
//
// Every frame starts with the same 8-byte preamble (magic, version, frame
// type, flags) followed by a context block binding the frame to a concrete
// protocol configuration (method, epsilon as exact IEEE-754 bits,
// granularity). Decoding is strict Result<T>-based: truncation, bad magic,
// version skew, unknown enums, dimension mismatches, and trailing bytes
// are typed errors — malformed input can never corrupt an aggregate or
// invoke UB. Because accumulator state is exact integers, a
// serialize-merge-deserialize round trip is bit-identical to the
// in-process sharded path (tests/wire_process_test.cc proves this across
// OS processes).
//
// Byte-level layouts and the compatibility policy are specified in
// docs/WIRE_FORMAT.md; transport framing (length prefixes over
// sockets/pipes) lives one layer up in serve/framing.h.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"
#include "core/sw_estimator.h"
#include "protocol/protocol.h"

namespace numdist::wire {

/// First 4 bytes of every frame: "NDWP" on the wire.
inline constexpr uint32_t kMagic = 0x5057444E;
/// Current (and only) format version. Decoders accept exactly this version;
/// see docs/WIRE_FORMAT.md for the compatibility policy.
inline constexpr uint16_t kVersion = 2;

/// Preamble flag bit 0: the frame carries a tenant context — a u32 tenant
/// id immediately after the method context block, routing the frame to a
/// per-tenant accumulator (serve/collector.h). Defined for report and
/// sketch frames only; a flagged ack frame is a typed error. This is
/// the first use of the flags byte, the documented forward-compatibility
/// escape hatch: frames without the flag are byte-identical to pre-tenant
/// encoders, and all other bits must still be zero.
inline constexpr uint8_t kFlagTenantContext = 0x01;

/// Preamble flag bit 1: the frame carries a sequence context — a u64
/// client epoch + u64 sequence number after the method block (and after
/// the tenant block, when both flags are set). A collector acknowledges
/// each sequenced frame with an ack frame carrying the same (epoch, seq)
/// once the frame is durably absorbed, and deduplicates re-sends of an
/// already-claimed (epoch, seq) — the exactly-once substrate under
/// client retry (net/retry.h). Report and sketch frames only; sequence
/// numbers start at 1 (seq 0 is a typed error).
inline constexpr uint8_t kFlagSequence = 0x02;

/// The default tenant. Frames for tenant 0 are encoded WITHOUT the tenant
/// flag (the canonical legacy encoding); decoders treat a flagged tenant
/// id of 0 as the same default tenant.
inline constexpr uint32_t kDefaultTenant = 0;

/// Frame discriminator (preamble byte 6). Values are part of the wire
/// format: never renumber, only append. 3 is retired and never
/// reassigned: a frame of type 3 is an unknown frame type.
enum class FrameType : uint8_t {
  kReports = 1,  ///< A batch of perturbed client reports (one chunk).
  kSketch = 2,   ///< A Protocol accumulator's exact integer state.
  kAck = 4,      ///< Collector -> client: one sequenced frame is durable.
};

/// Sequence context of a frame (kFlagSequence): which client instance sent
/// it (`epoch`, chosen by the client, unique per client lifetime) and its
/// per-epoch position (`seq`, starting at 1). The pair is the dedup key
/// the collector's exactly-once window is built on.
struct FrameSeq {
  uint64_t epoch = 0;
  uint64_t seq = 0;
};

/// Method tag carried by report and sketch frames. Values are part of the
/// wire format: never renumber, only append.
enum class MethodId : uint8_t {
  kSwEms = 1,
  kSwEm = 2,
  kCfoAdaptive = 3,  ///< CFO binning over the variance-adaptive oracle.
  kCfoGrr = 4,
  kCfoOlh = 5,
  kCfoOue = 6,
  kHh = 7,
  kHhAdmm = 8,
  kHaarHrr = 9,
};

/// Largest granularity d a spec may carry: 2^20 buckets. It is a power of
/// 4, so the hierarchy methods can use it, and it sits above the 100 000
/// bin cap of the CFO names.
inline constexpr uint64_t kMaxGranularity = uint64_t{1} << 20;

/// Complete protocol configuration a frame is bound to. Two endpoints can
/// exchange frames iff their specs are identical (epsilon compared as
/// exact bits — an aggregate mixes budgets only if the bits agree).
struct MethodSpec {
  MethodId method = MethodId::kSwEms;
  /// Family parameter: bins for the CFO methods, tree fan-out beta for
  /// HH/HH-ADMM, 0 for everything else.
  uint32_t param = 0;
  /// Privacy budget; travels as its IEEE-754 bit pattern (exact).
  double epsilon = 1.0;
  /// Reconstruction granularity d, in [2, kMaxGranularity].
  uint32_t d = 64;

  /// The exact bit pattern epsilon travels as. Spec equality lives in one
  /// place — the decoder's field-by-field MatchSpec (wire.cc), which also
  /// produces the per-field mismatch errors.
  static uint64_t EpsilonBits(double epsilon);
};

/// Parses a CLI-style method name into a spec: "sw-ems", "sw-em",
/// "cfo-<bins>" (adaptive), "cfo-grr-<bins>", "cfo-olh-<bins>",
/// "cfo-oue-<bins>", "hh", "hh-admm" (beta fixed at 4), "haar-hrr".
/// `d` is taken unnarrowed and must lie in [2, kMaxGranularity];
/// InvalidArgument otherwise.
Result<MethodSpec> ParseMethodSpec(const std::string& method, double epsilon,
                                   uint64_t d);

/// Canonical display name of a spec's method (e.g. "cfo-olh-32").
std::string MethodSpecName(const MethodSpec& spec);

/// Instantiates the protocol a spec describes. Two processes building the
/// same spec get interchangeable protocols: chunks and sketches encoded by
/// one decode and absorb on the other. Refuses what ParseMethodSpec
/// refuses (d outside [2, kMaxGranularity]), so a spec built field by
/// field meets the same check.
Result<ProtocolPtr> MakeProtocolForSpec(const MethodSpec& spec);

/// The SW estimator configuration of an SW spec (sw-ems / sw-em): the one
/// mapping behind both MakeProtocolForSpec's SW protocol and a collector's
/// live estimator, so the estimator's output buckets always match the
/// accumulator's count layout. InvalidArgument for any other method.
Result<SwEstimatorOptions> SwEstimatorOptionsForSpec(const MethodSpec& spec);

/// Parsed frame preamble + context, without touching the payload. Lets a
/// collector dispatch and validate a frame before committing to a decode.
struct FrameInfo {
  FrameType type = FrameType::kReports;
  /// Context of report/sketch frames (undefined for acks).
  MethodSpec spec;
  /// Tenant context (report/sketch frames): kDefaultTenant unless the
  /// frame carries the kFlagTenantContext flag and a non-zero id.
  uint32_t tenant = kDefaultTenant;
  /// Sequence context: set for report/sketch frames carrying
  /// kFlagSequence, and for ack frames (whose payload IS a FrameSeq).
  bool has_seq = false;
  FrameSeq seq;
};

/// Validates the preamble and context block of any frame. Typed errors for
/// truncation, bad magic, version skew, unknown frame type / method id,
/// and undefined flag bits (only kFlagTenantContext is defined, and only
/// on report/sketch frames).
Result<FrameInfo> PeekFrame(std::span<const uint8_t> frame);
Result<FrameInfo> PeekFrame(std::string_view frame);

/// Encodes one report chunk produced by `protocol` (which must match
/// `spec`) into a self-describing report frame appended to `*out`.
Status EncodeReportFrame(const MethodSpec& spec, const Protocol& protocol,
                         const ReportChunk& chunk, std::string* out);

/// As above, bound to a tenant: a non-default tenant id travels in the
/// frame's tenant context block (preamble flag kFlagTenantContext).
/// `tenant == kDefaultTenant` produces the exact bytes of the untagged
/// overload.
Status EncodeReportFrame(const MethodSpec& spec, uint32_t tenant,
                         const Protocol& protocol, const ReportChunk& chunk,
                         std::string* out);

/// Strictly decodes a report frame: the frame's context must equal `spec`,
/// the payload must decode under `protocol`, and the payload must consume
/// the frame exactly (trailing bytes are an error).
Result<std::unique_ptr<ReportChunk>> DecodeReportFrame(
    const MethodSpec& spec, const Protocol& protocol,
    std::span<const uint8_t> frame);

/// Encodes an accumulator's exact integer state into a sketch frame
/// appended to `*out`.
Status EncodeSketchFrame(const MethodSpec& spec, const Accumulator& acc,
                         std::string* out);

/// As above, bound to a tenant (see the tenant EncodeReportFrame
/// overload). Tenant-tagged sketch frames are how a collector ships
/// per-tenant aggregates upstream without collapsing them: a coordinator
/// routes each to the same tenant's accumulator.
Status EncodeSketchFrame(const MethodSpec& spec, uint32_t tenant,
                         const Accumulator& acc, std::string* out);

/// Strictly decodes a sketch frame into a fresh accumulator of `protocol`.
/// The decoded accumulator is bit-equivalent to the encoded one: merging
/// it reproduces the exact in-process aggregate.
Result<std::unique_ptr<Accumulator>> DecodeSketchFrame(
    const MethodSpec& spec, const Protocol& protocol,
    std::span<const uint8_t> frame);

/// Encodes an ack frame for one sequenced frame, appended to `*out`.
/// Payload: the acknowledged (epoch, seq). Acks flow collector -> client;
/// a collector handed an ack frame as input rejects it.
Status EncodeAckFrame(const FrameSeq& seq, std::string* out);

/// Strictly decodes an ack frame (exact length, seq >= 1).
Result<FrameSeq> DecodeAckFrame(std::span<const uint8_t> frame);
Result<FrameSeq> DecodeAckFrame(std::string_view frame);

/// Stamps a sequence context onto an already-encoded report or sketch
/// frame: sets kFlagSequence and inserts the 16-byte (epoch, seq) block at
/// its defined position. The stamped frame decodes to the same payload.
/// Typed errors for non-report/sketch frames, an already-stamped frame,
/// or seq == 0. This is how the retry sender (net/retry.h) numbers frames
/// without re-encoding their payloads.
Status StampSequenceContext(std::string* frame, const FrameSeq& seq);

/// Read-only byte view of frame bytes held in a string/string_view.
std::span<const uint8_t> FrameBytes(std::string_view frame);

}  // namespace numdist::wire
