// Deterministic structured fuzzing of the wire/serve decode surface
// (common/mutator.h): seeded corruption of valid report/sketch/ack
// frames driven through wire::PeekFrame / Decode*, serve::FrameDecoder at
// every chunking, and a full serve::CollectorSession. The invariants:
//
//  - every outcome is a typed error or a valid absorb — never a crash, a
//    hang, or (in the CI sanitize leg, which runs this test under
//    ASan+UBSan) a sanitizer report;
//  - a collector's accumulator state after REJECTING hostile frames is
//    byte-identical to never having seen them (hostile bytes cannot move
//    counts);
//  - the push-mode FrameDecoder accepts/rejects a corrupted transport
//    stream identically at any chunk granularity.
//
// Everything is a pure function of fixed seeds: a failure here names a
// (base frame, seed, iteration) triple that replays exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/mutator.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "kernels/kernels.h"
#include "protocol/sharded.h"
#include "serve/collector.h"
#include "serve/framing.h"
#include "serve/wal.h"
#include "wire/wire.h"

namespace numdist {
namespace {

// One pristine frame plus the context needed to decode it strictly.
struct BaseFrame {
  std::string name;
  wire::FrameType type = wire::FrameType::kReports;
  wire::MethodSpec spec;
  // Shared across the report/sketch frames of one method.
  std::shared_ptr<Protocol> protocol;
  std::string bytes;
};

// The full method grid at d=64 (= 4^3, so the HH tree constraint holds).
std::vector<std::string> MethodNames() {
  return {"sw-ems",     "sw-em",      "cfo-16", "cfo-grr-16", "cfo-olh-16",
          "cfo-oue-16", "hh",         "hh-admm", "haar-hrr"};
}

// Builds the fuzz corpus: one report frame and one sketch frame per
// method, a tenant-tagged pair, and one ack frame (the collector bytes
// net::RetrySender parses).
std::vector<BaseFrame> BuildCorpus() {
  std::vector<BaseFrame> corpus;
  const std::vector<double> values = GoldenRatioValues(256);
  for (const std::string& name : MethodNames()) {
    const wire::MethodSpec spec =
        wire::ParseMethodSpec(name, 1.0, 64).ValueOrDie();
    std::shared_ptr<Protocol> protocol =
        wire::MakeProtocolForSpec(spec).ValueOrDie();
    Rng rng(ShardSeed(21, corpus.size()));
    auto chunk = protocol->EncodePerturbBatch(values, rng).ValueOrDie();

    BaseFrame report;
    report.name = name + "/report";
    report.type = wire::FrameType::kReports;
    report.spec = spec;
    report.protocol = protocol;
    EXPECT_TRUE(
        wire::EncodeReportFrame(spec, *protocol, *chunk, &report.bytes).ok());

    BaseFrame sketch;
    sketch.name = name + "/sketch";
    sketch.type = wire::FrameType::kSketch;
    sketch.spec = spec;
    sketch.protocol = protocol;
    auto acc = protocol->MakeAccumulator();
    EXPECT_TRUE(acc->Absorb(*chunk).ok());
    EXPECT_TRUE(wire::EncodeSketchFrame(spec, *acc, &sketch.bytes).ok());

    corpus.push_back(std::move(report));
    corpus.push_back(std::move(sketch));
  }

  // Tenant-context frames (wire::kFlagTenantContext): the flags byte and
  // the u32 tenant id widen the decode surface, so the corpus carries a
  // tagged report and a tagged sketch too.
  {
    const wire::MethodSpec spec =
        wire::ParseMethodSpec("sw-ems", 1.0, 64).ValueOrDie();
    std::shared_ptr<Protocol> protocol =
        wire::MakeProtocolForSpec(spec).ValueOrDie();
    Rng rng(ShardSeed(21, 100));
    auto chunk = protocol->EncodePerturbBatch(values, rng).ValueOrDie();

    BaseFrame report;
    report.name = "sw-ems/report-tenant";
    report.type = wire::FrameType::kReports;
    report.spec = spec;
    report.protocol = protocol;
    EXPECT_TRUE(wire::EncodeReportFrame(spec, /*tenant=*/42, *protocol,
                                        *chunk, &report.bytes)
                    .ok());

    BaseFrame sketch;
    sketch.name = "sw-ems/sketch-tenant";
    sketch.type = wire::FrameType::kSketch;
    sketch.spec = spec;
    sketch.protocol = protocol;
    auto acc = protocol->MakeAccumulator();
    EXPECT_TRUE(acc->Absorb(*chunk).ok());
    EXPECT_TRUE(
        wire::EncodeSketchFrame(spec, /*tenant=*/42, *acc, &sketch.bytes)
            .ok());

    corpus.push_back(std::move(report));
    corpus.push_back(std::move(sketch));
  }

  BaseFrame ack;
  ack.name = "ack";
  ack.type = wire::FrameType::kAck;
  EXPECT_TRUE(
      wire::EncodeAckFrame({.epoch = 0x0123456789ABCDEFull, .seq = 77},
                           &ack.bytes)
          .ok());
  corpus.push_back(std::move(ack));
  return corpus;
}

bool SameState(const AccumulatorState& a, const AccumulatorState& b) {
  if (a.num_reports != b.num_reports) return false;
  if (a.tables.size() != b.tables.size()) return false;
  for (size_t t = 0; t < a.tables.size(); ++t) {
    if (a.tables[t].n != b.tables[t].n) return false;
    if (a.tables[t].counts != b.tables[t].counts) return false;
  }
  return true;
}

// The acceptance sweep: >= 100k seeded mutants across the whole corpus,
// each one driven through the strict decoders. Any crash, hang, or
// sanitizer report fails CI; a decode returning ok is fine (some mutants
// are valid frames — e.g. a payload bit flip that still parses).
TEST(FuzzWire, HundredThousandMutantsAreTypedErrorsOrValidAbsorbs) {
  const std::vector<BaseFrame> corpus = BuildCorpus();
  ASSERT_EQ(corpus.size(), 21u);
  const size_t kMutantsPerFrame = 4800;
  size_t total = 0;
  size_t decoded_ok = 0;
  for (size_t f = 0; f < corpus.size(); ++f) {
    const BaseFrame& base = corpus[f];
    ByteMutator mutator(0x9E3779B97F4A7C15ULL + f);
    for (size_t i = 0; i < kMutantsPerFrame; ++i) {
      const std::string mutant = mutator.Mutate(base.bytes);
      ++total;
      // Context line for replay on failure: (frame, iteration, kind).
      SCOPED_TRACE(base.name + " iteration " + std::to_string(i) + " " +
                   std::string(MutationKindName(mutator.last_kind())));
      // PeekFrame must classify or reject, never misbehave.
      const auto info = wire::PeekFrame(mutant);
      (void)info;
      switch (base.type) {
        case wire::FrameType::kReports: {
          auto decoded = wire::DecodeReportFrame(base.spec, *base.protocol,
                                                 wire::FrameBytes(mutant));
          if (decoded.ok()) ++decoded_ok;
          break;
        }
        case wire::FrameType::kSketch: {
          auto decoded = wire::DecodeSketchFrame(base.spec, *base.protocol,
                                                 wire::FrameBytes(mutant));
          if (decoded.ok()) ++decoded_ok;
          break;
        }
        case wire::FrameType::kAck: {
          auto decoded = wire::DecodeAckFrame(wire::FrameBytes(mutant));
          if (decoded.ok()) ++decoded_ok;
          break;
        }
      }
    }
  }
  EXPECT_GE(total, 100000u);
  // Sanity on the mutator itself: corruption must actually corrupt. Many
  // mutants legitimately survive — a bit flip inside a report frame's
  // payload region is still a well-formed frame — but structural damage
  // (preamble, lengths, context) must be rejected often enough that a
  // mostly-accepting sweep signals a broken mutator or a decoder that
  // stopped validating.
  EXPECT_LT(decoded_ok, total / 2);
}

// Forced coverage of every corruption kind against every corpus entry
// (the uniform sweep above could in principle miss a (kind, frame) pair).
TEST(FuzzWire, EveryMutationKindOnEveryFrame) {
  const std::vector<BaseFrame> corpus = BuildCorpus();
  for (size_t f = 0; f < corpus.size(); ++f) {
    const BaseFrame& base = corpus[f];
    ByteMutator mutator(0xA24BAED4963EE407ULL + f);
    for (int k = 0; k < static_cast<int>(MutationKind::kMutationKindCount);
         ++k) {
      for (size_t rep = 0; rep < 50; ++rep) {
        const std::string mutant =
            mutator.MutateWith(static_cast<MutationKind>(k), base.bytes);
        switch (base.type) {
          case wire::FrameType::kReports:
            (void)wire::DecodeReportFrame(base.spec, *base.protocol,
                                          wire::FrameBytes(mutant));
            break;
          case wire::FrameType::kSketch:
            (void)wire::DecodeSketchFrame(base.spec, *base.protocol,
                                          wire::FrameBytes(mutant));
            break;
          case wire::FrameType::kAck:
            (void)wire::DecodeAckFrame(wire::FrameBytes(mutant));
            break;
        }
      }
    }
  }
}

// A full CollectorSession under hostile frames: every rejected frame must
// leave the accumulator bit-identical to its pre-frame state, and the
// final sketch must be byte-identical to a session that saw only the
// accepted frames.
TEST(FuzzWire, RejectedFramesLeaveCollectorStateByteIdentical) {
  const wire::MethodSpec spec =
      wire::ParseMethodSpec("cfo-olh-16", 1.0, 64).ValueOrDie();
  ProtocolPtr protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  const std::vector<double> values = GoldenRatioValues(256);
  Rng rng(ShardSeed(23, 0));
  auto chunk = protocol->EncodePerturbBatch(values, rng).ValueOrDie();
  std::string clean_frame;
  ASSERT_TRUE(
      wire::EncodeReportFrame(spec, *protocol, *chunk, &clean_frame).ok());

  serve::CollectorSession session =
      serve::CollectorSession::Make(spec).ValueOrDie();
  ASSERT_TRUE(session.HandleFrame(clean_frame).ok());

  std::vector<std::string> accepted;
  ByteMutator mutator(0x8CB92BA72F3D8DD7ULL);
  for (size_t i = 0; i < 3000; ++i) {
    const std::string mutant = mutator.Mutate(clean_frame);
    const AccumulatorState before = session.ExportState();
    const Status st = session.HandleFrame(mutant);
    if (st.ok()) {
      accepted.push_back(mutant);
    } else {
      ASSERT_TRUE(SameState(before, session.ExportState()))
          << "rejected frame moved accumulator state at iteration " << i
          << " (" << MutationKindName(mutator.last_kind())
          << "): " << st.ToString();
    }
  }

  // Replay only the accepted frames on a fresh session: the sketches must
  // match byte for byte — the hostile frames contributed nothing.
  serve::CollectorSession replay =
      serve::CollectorSession::Make(spec).ValueOrDie();
  ASSERT_TRUE(replay.HandleFrame(clean_frame).ok());
  for (const std::string& frame : accepted) {
    ASSERT_TRUE(replay.HandleFrame(frame).ok());
  }
  EXPECT_EQ(session.EncodeSketch().ValueOrDie(),
            replay.EncodeSketch().ValueOrDie());
}

// The push-mode transport decoder under corrupted streams, cut at every
// chunk granularity: all chunkings of the same hostile byte stream must
// produce the same frames and the same accept/reject verdicts (the
// pull/push equivalence net_test.cc proves for clean streams, here under
// corruption).
TEST(FuzzWire, FrameDecoderChunkingsAgreeOnHostileStreams) {
  const std::vector<BaseFrame> corpus = BuildCorpus();
  const std::string& base = corpus[0].bytes;  // sw-ems report frame

  ByteMutator mutator(0xBF58476D1CE4E5B9ULL);
  for (size_t i = 0; i < 400; ++i) {
    // Corrupt the TRANSPORT stream (prefix + frame + prefix + frame), so
    // length-prefix lies and frame-boundary truncations both occur.
    std::ostringstream encoded;
    EXPECT_TRUE(serve::WriteFrame(encoded, base).ok());
    EXPECT_TRUE(serve::WriteFrame(encoded, base).ok());
    const std::string stream = mutator.Mutate(encoded.str());

    struct Outcome {
      std::vector<std::string> frames;
      bool feed_error = false;
      std::string at_end;
    };
    std::vector<Outcome> outcomes;
    for (const size_t chunk_size : {size_t{1}, size_t{3}, size_t{7},
                                    size_t{64}, stream.size() + 1}) {
      Outcome outcome;
      serve::FrameDecoder decoder;
      for (size_t off = 0; off < stream.size(); off += chunk_size) {
        const size_t len = std::min(chunk_size, stream.size() - off);
        if (!decoder.Feed(std::string_view(stream).substr(off, len)).ok()) {
          outcome.feed_error = true;
        }
        std::string frame;
        while (decoder.Next(&frame)) outcome.frames.push_back(frame);
      }
      outcome.at_end = decoder.AtEnd().ToString();
      outcomes.push_back(std::move(outcome));
    }
    for (size_t c = 0; c < outcomes.size(); ++c) {
      // WHEN a poisoned prefix is first noticed is chunking-dependent (a
      // small chunk surfaces it in a later Feed; a big one inside Next
      // after the preceding frame pops) — but a Feed error must never be
      // LOST: if any call errored, the final verdict is an error too.
      if (outcomes[c].feed_error) {
        EXPECT_NE(outcomes[c].at_end, Status::OK().ToString())
            << "feed error lost by AtEnd at iteration " << i;
      }
      if (c == 0) continue;
      EXPECT_EQ(outcomes[0].frames, outcomes[c].frames)
          << "chunking disagreement at iteration " << i;
      EXPECT_EQ(outcomes[0].at_end, outcomes[c].at_end)
          << "AtEnd verdict disagreement at iteration " << i;
    }
  }
}

// The WAL replay surface under corruption (serve/wal.h): every mutant of
// a valid log segment — stamped frame records, a checkpoint record with
// its dedup-window record, tenant-tagged contents — must replay to either
// a hard typed error or an intact-prefix state with a typed torn tail.
// Never a crash, hang, or sanitizer report. Every other mutant corrupts
// one record's body and re-seals its length and CRC, so the hostile bytes
// get past the CRC into the record decoders, SequenceTracker::Restore and
// the session's frame and checkpoint paths.
TEST(FuzzWire, MutatedWalReplaysToTypedErrorOrPrefix) {
  const wire::MethodSpec spec =
      wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  ProtocolPtr protocol = wire::MakeProtocolForSpec(spec).ValueOrDie();
  const std::vector<double> values = GoldenRatioValues(120);

  // A pristine log: checkpoint + seq checkpoint (via compaction), then
  // tenant and plain stamped frames, all in the final segment.
  const std::string dir = testing::TempDir() + "fuzz_wal_base";
  std::filesystem::remove_all(dir);
  {
    serve::CollectorSession session =
        serve::CollectorSession::Make(spec).ValueOrDie();
    serve::WalLog wal =
        serve::WalLog::Open(dir, {}, session.ReplayConsumer()).ValueOrDie();
    for (size_t i = 0; i < 3; ++i) {
      Rng rng(ShardSeed(29, i));
      auto chunk = protocol
                       ->EncodePerturbBatch(std::span<const double>(values)
                                                .subspan(i * 40, 40),
                                            rng)
                       .ValueOrDie();
      std::string frame;
      const uint32_t tenant = i == 1 ? 9u : wire::kDefaultTenant;
      EXPECT_TRUE(wire::EncodeReportFrame(spec, tenant, *protocol, *chunk,
                                          &frame)
                      .ok());
      EXPECT_TRUE(
          wire::StampSequenceContext(&frame, {.epoch = 3, .seq = 2 * i + 1})
              .ok());
      EXPECT_TRUE(session.HandleFrame(frame).ok());
      EXPECT_TRUE(wal.AppendFrame(frame).ok());
      if (i == 1) {
        EXPECT_TRUE(wal.Compact(session.EncodeSketches().ValueOrDie(),
                                session.sequence_tracker()->Export())
                        .ok());
      }
    }
  }
  std::vector<std::filesystem::path> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    segments.push_back(entry.path());
  }
  ASSERT_EQ(segments.size(), 1u) << "compaction leaves one segment";
  std::string base;
  {
    std::ifstream in(segments[0], std::ios::binary);
    base.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(base.size(), serve::kWalHeaderBytes);
  // The base's record boundaries: [offset, body length) per record.
  std::vector<std::pair<size_t, uint32_t>> records;
  for (size_t at = serve::kWalHeaderBytes; at < base.size();) {
    ByteReader in(std::string_view(base).substr(at, 4));
    const uint32_t len = in.U32().ValueOrDie();
    records.emplace_back(at, len);
    at += 8 + len;
  }
  ASSERT_EQ(records.size(), 3u) << "checkpoint, seq checkpoint, frame";

  const std::string mutant_dir = testing::TempDir() + "fuzz_wal_mutant";
  std::filesystem::remove_all(mutant_dir);
  std::filesystem::create_directory(mutant_dir);
  const std::string mutant_path = mutant_dir + "/wal-00000001.ndwl";
  ByteMutator mutator(0xD6E8FEB86659FD93ULL);
  size_t replayed_ok = 0;
  size_t resealed_refused = 0;
  for (size_t i = 0; i < 2000; ++i) {
    std::string mutant;
    const bool reseal = i % 2 == 1;
    if (reseal) {
      const auto [at, len] = records[(i / 2) % records.size()];
      const std::string body = mutator.Mutate(base.substr(at + 8, len));
      mutant = base.substr(0, at);
      ByteWriter writer(&mutant);
      writer.PutU32(static_cast<uint32_t>(body.size()));
      writer.PutU32(kernels::Crc32c(body));
      mutant += body;
      mutant += base.substr(at + 8 + len);
    } else {
      mutant = mutator.Mutate(base);
    }
    SCOPED_TRACE("wal mutant iteration " + std::to_string(i) + " " +
                 std::string(MutationKindName(mutator.last_kind())));
    {
      std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    serve::CollectorSession session =
        serve::CollectorSession::Make(spec).ValueOrDie();
    auto stats = serve::ReplayWal(mutant_dir, session.ReplayConsumer());
    if (stats.ok()) {
      ++replayed_ok;
      // An OK replay keeps only an intact prefix: its clean byte count
      // never exceeds the mutant and any tail error is the typed one.
      EXPECT_LE(stats.value().clean_bytes, mutant.size());
      if (!stats.value().tail.ok()) {
        EXPECT_EQ(stats.value().tail.code(), StatusCode::kOutOfRange);
      }
    } else if (reseal) {
      ++resealed_refused;
    }
    // A non-OK replay is a typed hard error — reaching here at all means
    // no crash; nothing else to assert.
  }
  // Tail corruption is survivable by design, so many mutants replay OK;
  // re-sealed hostile bodies reach the decoders, which refuse some.
  EXPECT_GT(replayed_ok, 0u);
  EXPECT_GT(resealed_refused, 0u);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(mutant_dir);
}

// The seeded sweep is replayable: the same seed produces the same mutants.
TEST(FuzzWire, MutatorIsDeterministic) {
  const std::vector<BaseFrame> corpus = BuildCorpus();
  ByteMutator a(1234), b(1234);
  for (size_t i = 0; i < 200; ++i) {
    const std::string& bytes = corpus[i % corpus.size()].bytes;
    EXPECT_EQ(a.Mutate(bytes), b.Mutate(bytes));
    EXPECT_EQ(a.last_kind(), b.last_kind());
  }
}

}  // namespace
}  // namespace numdist
