// Little-endian binary codec shared by the wire frames (rpc/wire) and the
// journal records (broker/journal).
//
// A layout is written once, as one function over an `io` object that is
// either a Writer or a Reader:
//
//   void fields(auto& io, codec::Is<Msg> auto& m) {
//     io.u64(m.request_id);
//     io.enumeration(m.code, Code::kLast);
//     io.list(m.items, [&io](auto& item) { io.f64(item.x); });
//   }
//
// The Writer's methods take values, the Reader's take references, so the
// same call appends when `m` is const and fills `m` when it is not. Doubles
// travel as their IEEE-754 bit patterns: every value (±inf, NaN payloads,
// -0.0) round-trips bit-exactly.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

namespace qres::codec {

/// `T` is `U`, possibly const — how a layout function accepts the value it
/// writes (const) and the value it reads into (mutable).
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// Stores `v` little-endian at `at` (sizeof(T) bytes).
template <std::unsigned_integral T>
void store_le(std::uint8_t* at, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Loads a little-endian T from `at` (sizeof(T) bytes).
template <std::unsigned_integral T>
T load_le(const std::uint8_t* at) noexcept {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<T>(static_cast<T>(at[i]) << (8 * i));
  return v;
}

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/// FNV-1a 64 continued from `hash` over a byte range.
inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                             std::uint64_t hash = kFnvOffset) noexcept {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Appends fields to a byte vector.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>* out) : out_(out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  /// A boolean byte (0 or 1).
  template <class B>
  void flag(B v) {
    u8(static_cast<std::uint8_t>(v));
  }
  /// An enum byte; `last` bounds it on the read side.
  template <class E>
  void enumeration(E v, E /*last*/) {
    u8(static_cast<std::uint8_t>(v));
  }
  /// A 32-bit id type (anything with value() and an explicit constructor).
  template <class Id>
  void id(Id v) {
    u32(v.value());
  }
  /// u32 length + raw bytes (std::string or std::vector<std::uint8_t>).
  template <class Bytes>
  void bytes(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    out_->insert(out_->end(), b.begin(), b.end());
  }
  /// u32 count + each element through `element(e)`.
  template <class T, class Fn>
  void list(const std::vector<T>& v, Fn&& element,
            std::uint32_t /*max*/ = std::numeric_limits<std::uint32_t>::max()) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) element(e);
  }

 private:
  template <class T>
  void put(T v) {
    std::uint8_t bytes[sizeof(T)];
    store_le(bytes, v);
    out_->insert(out_->end(), bytes, bytes + sizeof(T));
  }

  std::vector<std::uint8_t>* out_;
};

/// Strict bounds-checked reader. Never reads past `size`: a short read,
/// an enum or boolean byte out of range, or a count larger than the
/// bytes left fails the reader, and every later read fails fast
/// (returning zeros). Callers check done(): no failure, nothing left over.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool done() const noexcept { return ok_ && pos_ == size_; }

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  void u32(std::uint32_t& v) { v = u32(); }
  void u64(std::uint64_t& v) { v = u64(); }
  void f64(double& v) { v = f64(); }
  template <class B>
  void flag(B& v) {
    const std::uint8_t raw = u8();
    if (raw > 1) ok_ = false;
    v = static_cast<B>(raw);
  }
  template <class E>
  void enumeration(E& v, E last) {
    const std::uint8_t raw = u8();
    if (raw > static_cast<std::uint8_t>(last)) ok_ = false;
    if (ok_) v = static_cast<E>(raw);
  }
  template <class Id>
  void id(Id& v) {
    v = Id{u32()};
  }
  template <class Bytes>
  void bytes(Bytes& b) {
    const std::uint32_t len = u32();
    if (!take(len)) return;
    b.assign(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
  }
  /// The count is bounded by `max` and by the bytes left (every element
  /// encodes at least one byte), so a corrupt count can never size an
  /// allocation beyond the input.
  template <class T, class Fn>
  void list(std::vector<T>& v, Fn&& element,
            std::uint32_t max = std::numeric_limits<std::uint32_t>::max()) {
    const std::uint32_t count = u32();
    if (count > max || count > size_ - pos_) ok_ = false;
    if (!ok_) return;
    v.clear();
    v.resize(count);
    for (T& e : v) {
      element(e);
      if (!ok_) return;
    }
  }

 private:
  bool take(std::size_t n) noexcept {
    if (!ok_ || size_ - pos_ < n) ok_ = false;
    return ok_;
  }

  template <class T>
  T get() {
    if (!take(sizeof(T))) return 0;
    const T v = load_le<T>(data_ + pos_);
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace qres::codec
