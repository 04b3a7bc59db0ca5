// Endian-stable byte IO: the primitives every wire layout in the library is
// built from. All multi-byte integers are little-endian on the wire
// regardless of host order; a double travels as its IEEE-754 bit pattern
// in a u64 (exact — encode/decode round-trips are bit-identical, never
// lossy).
//
// ByteWriter appends to a caller-owned std::string; ByteReader consumes a
// read-only byte span with strict bounds checking — every underflow is a
// typed OutOfRange error ("truncated"), never UB. Frame-level concerns
// (magic, versioning, payload layouts) live above this, in src/wire/.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "common/result.h"

namespace numdist {

/// \brief Little-endian append-only byte sink.
class ByteWriter {
 public:
  /// Appends to `*out` (not owned, must outlive the writer).
  explicit ByteWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutLittleEndian(v); }
  void PutU32(uint32_t v) { PutLittleEndian(v); }
  void PutU64(uint64_t v) { PutLittleEndian(v); }
  void PutI64(int64_t v) { PutLittleEndian(static_cast<uint64_t>(v)); }
  void PutBytes(const void* data, size_t len) {
    out_->append(static_cast<const char*>(data), len);
  }
  /// Appends `len` bytes for the caller to fill in place; the pointer is
  /// valid until the next write.
  uint8_t* Extend(size_t len) {
    const size_t at = out_->size();
    out_->resize(at + len);
    return reinterpret_cast<uint8_t*>(out_->data() + at);
  }

 private:
  template <typename T>
  void PutLittleEndian(T v) {
    char buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    out_->append(buf, sizeof(T));
  }

  std::string* out_;
};

/// \brief Strict little-endian byte source over a borrowed span.
///
/// Every read is bounds-checked; reading past the end returns
/// OutOfRange("truncated ...") with the offset, so malformed or cut-off
/// input surfaces as a typed error at the exact failure point.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}
  /// Convenience view over string bytes (no copy).
  explicit ByteReader(std::string_view data)
      : data_(reinterpret_cast<const uint8_t*>(data.data()), data.size()) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Result<uint8_t> U8() {
    NUMDIST_RETURN_NOT_OK(Require(1));
    return data_[pos_++];
  }
  Result<uint16_t> U16() { return LittleEndian<uint16_t>(); }
  Result<uint32_t> U32() { return LittleEndian<uint32_t>(); }
  Result<uint64_t> U64() { return LittleEndian<uint64_t>(); }
  Result<int64_t> I64() {
    Result<uint64_t> v = U64();
    if (!v.ok()) return v.status();
    return static_cast<int64_t>(*v);
  }
  Status Bytes(void* dst, size_t len) {
    NUMDIST_RETURN_NOT_OK(Require(len));
    std::memcpy(dst, data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }
  /// The next `len` bytes, borrowed from the underlying buffer (no copy).
  Result<std::span<const uint8_t>> View(size_t len) {
    NUMDIST_RETURN_NOT_OK(Require(len));
    const std::span<const uint8_t> view = data_.subspan(pos_, len);
    pos_ += len;
    return view;
  }

 private:
  /// OK iff `len` more bytes are available; typed truncation error otherwise.
  Status Require(size_t len) const {
    if (remaining() < len) {
      return Status::OutOfRange(
          "truncated input: need " + std::to_string(len) + " byte(s) at "
          "offset " + std::to_string(pos_) + ", have " +
          std::to_string(remaining()));
    }
    return Status::OK();
  }

  template <typename T>
  Result<T> LittleEndian() {
    NUMDIST_RETURN_NOT_OK(Require(sizeof(T)));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace numdist
