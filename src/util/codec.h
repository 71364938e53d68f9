// Binary serialization primitives, and the field-list codec built on them.
//
// All wire messages and all signed statements are encoded with Writer and
// decoded with Reader. The format is deliberately simple and fully
// deterministic (a requirement for signing: the signed bytes of a
// statement must be identical on every node):
//
//   u8/u16/u32/u64   little-endian fixed width
//   varint           LEB128, used for lengths
//   bytes            varint length + raw bytes
//   string           same as bytes
//
// Reader is non-throwing: any malformed input flips a sticky error flag
// and subsequent reads return zero values. Callers check ok() once at the
// end — this keeps replica message handlers simple and makes truncation /
// garbage injected by Byzantine nodes safe to parse.
//
// Field lists (namespace wire). A wire struct states its layout once: a
// static `fields(m)` returning std::tie of its members in wire order.
// wire::put and wire::get walk that list, so a struct's encoder and
// decoder cannot disagree. A message derives from wire::Message<T>, which
// supplies `Bytes encode() const` and `static std::optional<T>
// decode(BytesView)`; decode succeeds only if it consumes the whole input
// (Reader::done()). Each field type has exactly one wire form:
//
//   bool, u8, u32, u64  fixed width (put also takes an enum, e.g. a
//                       domain tag, as its underlying integer)
//   Bytes               varint length + bytes
//   std::array<u8, N>   N raw bytes (digests)
//   std::optional<T>    bool present, then T
//   std::vector<T>      u32 count, then the items; decoding stops at the
//                       first failed read, so a forged count cannot spin
//   a record            its field list, inline (Timestamp, Nonce, messages)
//   a blob              a type with its own raw codec, `void encode(W&)
//                       const` for W a Writer or a SizeCounter and
//                       `static T decode(Reader&)` (the quorum
//                       certificates): a length-prefixed blob that must
//                       parse exactly, or the whole message fails
//
// The blob is the only form wire::put gives a certificate. Code that needs
// the raw form (ObjectState's cold-store / STATE-XFER blob) calls the
// type's own encode/decode by name.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/bytes.h"

namespace bftbc {

// Bytes put_varint(v) writes.
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

class Writer {
 public:
  Writer() = default;

  // Sizes the buffer for `n` bytes in all, so writing them allocates once.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_varint(std::uint64_t v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_bytes(BytesView b);
  void put_string(std::string_view s) { put_bytes(as_bytes_view(s)); }
  // Raw append with NO length prefix — for fixed-size fields (digests)
  // and for nesting pre-encoded sub-messages.
  void put_raw(BytesView b) { append(buf_, b); }

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  // Appends v little-endian, in one step.
  template <typename U>
  void put_le(U v) {
    std::uint8_t le[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), le, le + sizeof(U));
  }

  Bytes buf_;
};

// A Writer that only counts the bytes it is given. wire::size runs
// wire::put into one, so an encoding's size comes from the same field
// list as its bytes.
class SizeCounter {
 public:
  void put_u8(std::uint8_t) { n_ += 1; }
  void put_u32(std::uint32_t) { n_ += 4; }
  void put_u64(std::uint64_t) { n_ += 8; }
  void put_varint(std::uint64_t v) { n_ += varint_size(v); }
  void put_bool(bool) { n_ += 1; }
  void put_bytes(BytesView b) { n_ += varint_size(b.size()) + b.size(); }
  void put_raw(BytesView b) { n_ += b.size(); }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::uint64_t get_varint();
  bool get_bool() { return get_u8() != 0; }
  Bytes get_bytes();
  // get_bytes without the copy: the view points into the input.
  BytesView get_bytes_view();
  std::string get_string();
  // Read exactly n raw bytes (no length prefix); the view points into
  // the input.
  BytesView get_raw(std::size_t n);

  // True iff no read so far ran past the end or hit malformed data.
  [[nodiscard]] bool ok() const { return ok_; }
  // Lets decoders flag semantic violations the primitive reads cannot see
  // (e.g. a length field exceeding a hard cap). Sticky, like read errors.
  void fail() { ok_ = false; }
  // True iff the cursor consumed the entire input (trailing garbage in a
  // signed statement must be rejected, or signatures would not be unique).
  bool at_end() const { return pos_ == data_.size(); }
  // Convenience: fully parsed and well formed.
  [[nodiscard]] bool done() const { return ok_ && at_end(); }

  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool need(std::size_t n);

  BytesView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

namespace wire {

template <typename T>
concept Record = requires(T& m) { T::fields(m); };

template <typename T>
concept Blob = requires(const T& v, Writer& w, SizeCounter& c, Reader& r) {
  v.encode(w);
  v.encode(c);
  { T::decode(r) } -> std::same_as<T>;
};

template <typename T>
inline constexpr bool kIsByteArray = false;
template <std::size_t N>
inline constexpr bool kIsByteArray<std::array<std::uint8_t, N>> = true;
template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
inline constexpr bool kNoWireForm = false;

// Appends one field in its wire form to a Writer, or counts its bytes
// into a SizeCounter.
template <typename W, typename T>
void put(W& w, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    wire::put(w, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_same_v<T, bool>) {
    w.put_bool(v);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.put_u8(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.put_u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.put_u64(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w.put_bytes(v);
  } else if constexpr (kIsByteArray<T>) {
    w.put_raw(v);
  } else if constexpr (kIsOptional<T>) {
    w.put_bool(v.has_value());
    if (v.has_value()) wire::put(w, *v);
  } else if constexpr (kIsVector<T>) {
    w.put_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& item : v) wire::put(w, item);
  } else if constexpr (Record<T>) {
    static_assert(!Blob<T>, "one wire form: a field list or its own codec");
    std::apply([&w](const auto&... f) { (wire::put(w, f), ...); },
               T::fields(v));
  } else if constexpr (Blob<T>) {
    // Length-prefixed in place: the blob is sized first, then encoded
    // straight into w.
    SizeCounter blob;
    v.encode(blob);
    w.put_varint(blob.size());
    v.encode(w);
  } else {
    static_assert(kNoWireForm<T>, "type has no wire form");
  }
}

// Bytes the concatenated wire forms of `fields` take.
template <typename... Ts>
std::size_t size(const Ts&... fields) {
  SizeCounter c;
  (wire::put(c, fields), ...);
  return c.size();
}

// Reads one field in its wire form. On a failed read the Reader's sticky
// error flag is set and the value is unspecified.
template <typename T>
T get(Reader& r) {
  if constexpr (std::is_same_v<T, bool>) {
    return r.get_bool();
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    return r.get_u8();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return r.get_u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return r.get_u64();
  } else if constexpr (std::is_same_v<T, Bytes>) {
    return r.get_bytes();
  } else if constexpr (kIsByteArray<T>) {
    T out{};
    const BytesView raw = r.get_raw(out.size());  // all of it, or nothing
    std::copy(raw.begin(), raw.end(), out.begin());
    return out;
  } else if constexpr (kIsOptional<T>) {
    if (!r.get_bool()) return std::nullopt;
    return wire::get<typename T::value_type>(r);
  } else if constexpr (kIsVector<T>) {
    T out;
    const std::uint32_t count = r.get_u32();
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      out.push_back(wire::get<typename T::value_type>(r));
    }
    return out;
  } else if constexpr (Record<T>) {
    T m{};
    std::apply(
        [&r](auto&... f) {
          ((f = wire::get<std::remove_cvref_t<decltype(f)>>(r)), ...);
        },
        T::fields(m));
    return m;
  } else if constexpr (Blob<T>) {
    Reader inner(r.get_bytes_view());
    T out = T::decode(inner);
    // The blob's own verdict reaches the enclosing parse: a truncated
    // blob or one with trailing garbage is a malformed message, not a
    // default-initialized value.
    if (!inner.done()) r.fail();
    return out;
  } else {
    static_assert(kNoWireForm<T>, "type has no wire form");
  }
}

// The concatenated wire forms of `fields`, e.g. a signed statement, in
// a buffer sized once by wire::size.
template <typename... Ts>
Bytes encode(const Ts&... fields) {
  Writer w;
  w.reserve(wire::size(fields...));
  (wire::put(w, fields), ...);
  return std::move(w).take();
}

// Base of every wire message T (a Record): one encode and one decode,
// both derived from T's field list.
template <typename T>
struct Message {
  Bytes encode() const { return wire::encode(static_cast<const T&>(*this)); }

  static std::optional<T> decode(BytesView b) {
    Reader r(b);
    T m = wire::get<T>(r);
    if (!r.done()) return std::nullopt;
    return m;
  }
};

}  // namespace wire

}  // namespace bftbc
