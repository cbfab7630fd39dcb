// Byte-level serialization for protocol messages.
//
// Every wire protocol in the simulation (GRAM, GSI, NIS, DUROC barrier,
// gridmpi) encodes its messages through this codec rather than passing
// object pointers around, so the protocols are honest about what crosses
// the network: sizes are accountable and decoding can fail.
//
// Format: little-endian fixed-width integers, LEB128 varints for lengths,
// length-prefixed strings/blobs.  Decoding is bounds-checked; a decode past
// the end or an oversized length marks the reader bad instead of throwing.
//
// Memory model: the Writer encodes into a pooled `sim::Payload` buffer
// (acquired lazily on first append, recycled when the last handle drops),
// take() hands the buffer to the network without copying, and the Reader
// is a non-owning view — str_view()/blob_view() return slices of the
// message buffer itself for decoders that don't need to keep the bytes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "simkit/annotate.hpp"
#include "simkit/bufpool.hpp"

namespace grid::util {

using Bytes = std::vector<std::uint8_t>;

/// Appends primitive values to a pooled byte buffer.
class GRID_HOT Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v) { buf().push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Unsigned LEB128 varint.
  void varint(std::uint64_t v);

  /// Length-prefixed string.
  void str(std::string_view s);

  /// Length-prefixed opaque blob.
  void blob(const Bytes& b) { blob(b.data(), b.size()); }
  void blob(const sim::Payload& p) { blob(p.data(), p.size()); }
  void blob(const void* data, std::size_t n);

  /// Grows capacity for at least `additional` more bytes.  Hot encoders
  /// call this once up front so a message is one allocation at worst (and
  /// zero once the pooled buffer has warmed up to the message size).
  void reserve(std::size_t additional) {
    Bytes& b = buf();
    b.reserve(b.size() + additional);
  }

  const Bytes& bytes() const { return payload_.bytes(); }
  /// Releases the encoded buffer as a pooled payload; the Writer is empty
  /// afterwards and may be reused.
  sim::Payload take() { return std::move(payload_); }
  /// Moves the encoded bytes out as a plain vector, for callers that need
  /// user-owned data rather than a message payload (e.g. gridmpi user
  /// buffers).  The pooled buffer goes back to the pool empty.
  Bytes take_bytes() {
    Bytes out;
    if (payload_.attached()) out = std::move(payload_.mutable_bytes());
    payload_.reset();
    return out;
  }
  std::size_t size() const { return payload_.size(); }

 private:
  Bytes& buf() {
    if (!payload_.attached()) payload_ = sim::BufferPool::local().acquire();
    return payload_.mutable_bytes();
  }

  template <typename T>
  void put_le(T v) {
    // Bulk append: one resize + memcpy, not sizeof(T) push_backs.  Byte
    // order on the wire is little-endian regardless of host order.
    if constexpr (std::endian::native != std::endian::little) {
      T sw{};
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        sw = static_cast<T>((sw << 8) | ((v >> (8 * i)) & 0xff));
      }
      v = sw;
    }
    Bytes& b = buf();
    const std::size_t at = b.size();
    b.resize(at + sizeof(T));
    std::memcpy(b.data() + at, &v, sizeof(T));
  }

  sim::Payload payload_;
};

/// Bounds-checked reader over a byte buffer.  After any failed read the
/// reader is "bad": all further reads return zero values and ok() is false.
/// Non-owning: the buffer (or payload) must outlive the reader.
class GRID_HOT Reader {
 public:
  explicit Reader(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  explicit Reader(const sim::Payload& p) : data_(p.data()), size_(p.size()) {}
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  std::uint64_t varint();

  /// Copying accessors (for decoders that keep the data).
  std::string str() { return std::string(str_view()); }
  Bytes blob() {
    const auto v = blob_view();
    return Bytes(v.begin(), v.end());
  }

  /// Zero-copy accessors: views into the message buffer, valid only while
  /// it is.  Hot decoders use these to avoid a heap allocation per field.
  std::string_view str_view();
  std::span<const std::uint8_t> blob_view();

  bool ok() const { return ok_; }
  /// True when the reader is still ok and fully consumed.
  bool done() const { return ok_ && pos_ == size_; }

 private:
  template <typename T>
  T get_le() {
    if (!take(sizeof(T))) return T{};
    T v{};
    std::memcpy(&v, data_ + pos_ - sizeof(T), sizeof(T));
    if constexpr (std::endian::native != std::endian::little) {
      T sw{};
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        sw = static_cast<T>((sw << 8) | ((v >> (8 * i)) & 0xff));
      }
      v = sw;
    }
    return v;
  }
  bool take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace grid::util
