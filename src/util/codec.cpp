#include "util/codec.h"

namespace bftbc {

void Writer::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(static_cast<std::uint8_t>(v));
}

void Writer::put_bytes(BytesView b) {
  put_varint(b.size());
  put_raw(b);
}

bool Reader::need(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::get_u8() {
  if (!need(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Reader::get_u16() {
  if (!need(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::get_u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::get_u64() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::uint64_t Reader::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (!need(1)) return 0;
    std::uint8_t b = data_[pos_++];
    if (shift == 63 && (b & 0x7e) != 0) {  // overflow past 64 bits
      ok_ = false;
      return 0;
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) {
      ok_ = false;
      return 0;
    }
  }
  return v;
}

Bytes Reader::get_bytes() {
  const BytesView v = get_bytes_view();
  return Bytes(v.begin(), v.end());
}

BytesView Reader::get_bytes_view() {
  std::uint64_t n = get_varint();
  if (!ok_ || n > remaining()) {
    ok_ = false;
    return {};
  }
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string Reader::get_string() {
  Bytes b = get_bytes();
  return std::string(b.begin(), b.end());
}

Bytes Reader::get_raw(std::size_t n) {
  if (!need(n)) return {};
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace bftbc
