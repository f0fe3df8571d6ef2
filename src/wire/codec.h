// Low-level wire primitives shared by every bagcq encoding (wire/wire.h):
// a byte-appending Encoder and a bounds-checked Decoder over four scalar
// shapes —
//
//   varint   unsigned LEB128, minimal-length enforced on decode
//   signed   zigzag-mapped varint
//   bytes    varint length prefix + raw bytes
//   fixed64  8 bytes little-endian (IEEE-754 bit patterns for doubles)
//
// Canonicality contract: for every value there is exactly one accepted byte
// sequence (over-long varints are rejected), so Encode(x) is usable as a map
// key and byte-compare equals value-compare. Robustness contract: Decoder
// never reads past the buffer and never crashes — every malformed or
// truncated input surfaces as util::Status InvalidArgument from the typed
// layer, which funnels through Decoder::Fail().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace bagcq::wire {

class Encoder {
 public:
  /// Appends to an internal buffer; Take() moves it out.
  Encoder() = default;

  void PutByte(uint8_t b) { out_.push_back(static_cast<char>(b)); }
  void PutVarint(uint64_t v);
  /// Zigzag: 0,-1,1,-2,... -> 0,1,2,3,...
  void PutSigned(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }
  void PutBool(bool b) { PutByte(b ? 1 : 0); }
  void PutFixed64(uint64_t v);
  /// Doubles travel as their IEEE-754 bit pattern (exact round-trip).
  void PutDouble(double v);
  void PutBytes(std::string_view bytes);

  const std::string& buffer() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  /// All getters return false (without advancing past the end) on truncated
  /// or non-minimal input; the typed layer converts that into a Status via
  /// Fail(what).
  bool GetByte(uint8_t* out);
  bool GetVarint(uint64_t* out);
  bool GetSigned(int64_t* out);
  /// Strict: only 0 and 1 are booleans.
  bool GetBool(bool* out);
  bool GetFixed64(uint64_t* out);
  bool GetDouble(double* out);
  bool GetBytes(std::string* out);
  /// Varint-prefixed view into the buffer (no copy).
  bool GetBytesView(std::string_view* out);

  /// The uniform malformed-input error: "wire: truncated or corrupt <what>".
  util::Status Fail(std::string_view what) const;
  /// Trailing garbage after a complete message is also corruption.
  util::Status ExpectExhausted(std::string_view what) const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// FNV-1a over the buffer — the deterministic shard hash used to route
/// query pairs to workers (stable across processes and platforms, unlike
/// std::hash).
uint64_t Fingerprint(std::string_view bytes);

}  // namespace bagcq::wire
