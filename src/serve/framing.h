// Stream transport for wire frames: u32 little-endian length prefix +
// frame bytes. WriteFrame writes one over any std::ostream; FrameDecoder,
// the only reader, reassembles frames from bytes split at any point
// (sockets, pipes, files, a sketch file read whole). The length prefix is
// transport-only — everything inside the frame, including its own
// integrity checks, is the wire layer's business (wire/wire.h).
//
// Reading is strict: a clean EOF *between* frames is a normal end of
// stream, but an EOF inside a length prefix or inside a frame body is a
// typed OutOfRange error — a crashed peer can never be mistaken for a
// completed stream. A length prefix above kMaxFrameBytes is rejected
// before any allocation, so garbage on the wire cannot drive memory use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.h"

namespace numdist::serve {

/// The ceiling on a single frame's size (64 MiB), for readers and writers
/// alike. Generous for sketch frames (a d=1024 OLH sketch is ~8 KiB) while
/// keeping a corrupt or hostile length prefix from requesting an absurd
/// allocation. It fits the u32 length prefix.
inline constexpr size_t kMaxFrameBytes = 64u << 20;
static_assert(kMaxFrameBytes <= UINT32_MAX);

/// Writes one length-prefixed frame. Fails if the stream rejects bytes or
/// the frame exceeds kMaxFrameBytes (the receiver would refuse it anyway).
Status WriteFrame(std::ostream& out, std::string_view frame);

/// Appends the u32 little-endian transport prefix for a frame of
/// `frame_len` bytes to `*out` — for callers that assemble framed bytes
/// into their own buffers (the event-loop server's ack queue, the retry
/// sender). `frame_len` must fit a u32; callers enforce their own frame
/// ceiling first.
void AppendFramePrefix(size_t frame_len, std::string* out);

/// \brief Incremental frame reassembly.
///
/// A reader Feed()s whatever bytes its transport produced — at any split
/// granularity, down to one byte at a time — and Next() pops completed
/// frames. The accept/reject taxonomy does not depend on the split:
///
///   hostile prefix  Feed() rejects a length prefix above kMaxFrameBytes with
///                   InvalidArgument the moment its 4th byte arrives and
///                   before any payload-sized allocation; the decoder is
///                   poisoned (every later call reports the same error);
///   mid-stream EOF  AtEnd() distinguishes a clean boundary (OK) from a
///                   stream that died inside a prefix or frame body
///                   (OutOfRange).
///
/// tests/serve_test.cc checks every truncation of a stream and every
/// chunking of it against these verdicts.
class FrameDecoder {
 public:
  /// Appends transport bytes. Returns the poisoning error, if any (a
  /// hostile length prefix — the only way Feed itself can fail).
  Status Feed(std::string_view bytes);

  /// Pops the next completed frame into `*frame`. False when no complete
  /// frame is buffered (or the decoder is poisoned).
  bool Next(std::string* frame);

  /// End-of-stream verdict: OK on a clean frame boundary, the poisoning
  /// error if poisoned, OutOfRange if the stream ended inside a length
  /// prefix or frame body.
  Status AtEnd() const;

  /// True when a partially received prefix or frame body is buffered —
  /// i.e. an EOF right now would be a mid-stream error.
  bool mid_frame() const { return have_len_ || buffered_bytes() > 0; }

  /// Undecoded bytes currently held.
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  /// Parses the length prefix at pos_ once 4 bytes are buffered; sets the
  /// poisoning error on a hostile length.
  void ParsePrefix();

  Status error_ = Status::OK();
  std::string buf_;       // unconsumed transport bytes
  size_t pos_ = 0;        // consumed offset into buf_
  bool have_len_ = false; // prefix at pos_ already validated
  uint32_t len_ = 0;      // body length when have_len_
};

}  // namespace numdist::serve
