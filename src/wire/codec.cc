#include "wire/codec.h"

namespace bagcq::wire {

void Encoder::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    PutByte(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutByte(static_cast<uint8_t>(v));
}

void Encoder::PutFixed64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    PutByte(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  PutFixed64(bits);
}

void Encoder::PutBytes(std::string_view bytes) {
  PutVarint(bytes.size());
  out_.append(bytes);
}

bool Decoder::GetByte(uint8_t* out) {
  if (pos_ >= data_.size()) return false;
  *out = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool Decoder::GetVarint(uint64_t* out) {
  uint64_t value = 0;
  const size_t start = pos_;
  for (int shift = 0; shift < 64; shift += 7) {
    uint8_t byte;
    if (!GetByte(&byte)) {
      pos_ = start;
      return false;
    }
    // The 10th byte may only carry the final bit of a 64-bit value.
    if (shift == 63 && (byte & 0xFE) != 0) {
      pos_ = start;
      return false;
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Minimal-length rule: a continuation into a zero payload byte would
      // make "00" and "80 00" both decode to 0 — reject the long spelling.
      if (byte == 0 && shift != 0) {
        pos_ = start;
        return false;
      }
      *out = value;
      return true;
    }
  }
  pos_ = start;
  return false;
}

bool Decoder::GetSigned(int64_t* out) {
  uint64_t raw;
  if (!GetVarint(&raw)) return false;
  *out = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  return true;
}

bool Decoder::GetBool(bool* out) {
  uint8_t byte;
  if (!GetByte(&byte)) return false;
  if (byte > 1) {
    --pos_;
    return false;
  }
  *out = byte != 0;
  return true;
}

bool Decoder::GetFixed64(uint64_t* out) {
  if (remaining() < 8) return false;
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 8;
  *out = value;
  return true;
}

bool Decoder::GetDouble(double* out) {
  uint64_t bits;
  if (!GetFixed64(&bits)) return false;
  __builtin_memcpy(out, &bits, sizeof(bits));
  return true;
}

bool Decoder::GetBytes(std::string* out) {
  std::string_view view;
  if (!GetBytesView(&view)) return false;
  out->assign(view);
  return true;
}

bool Decoder::GetBytesView(std::string_view* out) {
  const size_t start = pos_;
  uint64_t length;
  if (!GetVarint(&length)) return false;
  if (length > remaining()) {
    pos_ = start;
    return false;
  }
  *out = data_.substr(pos_, length);
  pos_ += length;
  return true;
}

util::Status Decoder::Fail(std::string_view what) const {
  return util::Status::InvalidArgument("wire: truncated or corrupt " +
                                       std::string(what));
}

util::Status Decoder::ExpectExhausted(std::string_view what) const {
  if (exhausted()) return util::Status::OK();
  return util::Status::InvalidArgument("wire: trailing bytes after " +
                                       std::string(what));
}

uint64_t Fingerprint(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace bagcq::wire
