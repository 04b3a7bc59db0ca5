#include "serve/framing.h"

#include <cstdint>
#include <ostream>

#include "common/bytes.h"

namespace numdist::serve {

Status WriteFrame(std::ostream& out, std::string_view frame) {
  if (frame.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "framing: frame of " + std::to_string(frame.size()) +
        " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
        "-byte limit");
  }
  // Prefix and body go out as ONE buffered write: half the stream-level
  // write calls, and no observable state where the prefix is flushed but
  // the body is not (a reader polling the stream can never see a frame
  // split between the two).
  std::string buffered;
  buffered.reserve(sizeof(uint32_t) + frame.size());
  ByteWriter(&buffered).PutU32(static_cast<uint32_t>(frame.size()));
  buffered.append(frame);
  out.write(buffered.data(), static_cast<std::streamsize>(buffered.size()));
  if (!out) {
    return Status::Internal("framing: stream write failed");
  }
  return Status::OK();
}

void AppendFramePrefix(size_t frame_len, std::string* out) {
  ByteWriter(out).PutU32(static_cast<uint32_t>(frame_len));
}

void FrameDecoder::ParsePrefix() {
  if (have_len_ || !error_.ok()) return;
  if (buffered_bytes() < sizeof(uint32_t)) return;
  const uint32_t len =
      ByteReader(std::string_view(buf_.data() + pos_, sizeof(uint32_t)))
          .U32()
          .value();
  if (len > kMaxFrameBytes) {
    error_ = Status::InvalidArgument(
        "framing: length prefix of " + std::to_string(len) +
        " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
        "-byte limit");
    return;
  }
  pos_ += sizeof(uint32_t);
  have_len_ = true;
  len_ = len;
}

Status FrameDecoder::Feed(std::string_view bytes) {
  if (!error_.ok()) return error_;
  buf_.append(bytes.data(), bytes.size());
  ParsePrefix();
  return error_;
}

bool FrameDecoder::Next(std::string* frame) {
  ParsePrefix();
  if (!error_.ok() || !have_len_ || buffered_bytes() < len_) return false;
  frame->assign(buf_, pos_, len_);
  pos_ += len_;
  have_len_ = false;
  // Reclaim consumed bytes once they dominate the buffer, so a long-lived
  // connection's memory tracks its unconsumed backlog, not its history.
  if (pos_ > 4096 && pos_ >= buf_.size() - pos_) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  ParsePrefix();  // the next frame's prefix may already be buffered
  return true;
}

Status FrameDecoder::AtEnd() const {
  if (!error_.ok()) return error_;
  if (have_len_) {
    return Status::OutOfRange(
        "framing: stream ended inside a frame (" +
        std::to_string(buffered_bytes()) + " of " + std::to_string(len_) +
        " bytes)");
  }
  if (buffered_bytes() > 0) {
    return Status::OutOfRange(
        "framing: stream ended inside a length prefix (" +
        std::to_string(buffered_bytes()) + " of 4 bytes)");
  }
  return Status::OK();
}

}  // namespace numdist::serve
