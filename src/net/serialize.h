// Minimal binary serialization for the cluster wire protocol.
//
// Little-endian, length-prefixed containers, no alignment assumptions.
// Reader is bounds-checked and never reads past the buffer; malformed
// input surfaces as std::nullopt / ok() == false rather than UB, as any
// network-facing decoder must.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/ring_id.h"

namespace roar::net {

using Bytes = std::vector<uint8_t>;
// Read-only view over wire bytes; constructs implicitly from Bytes and
// net::Payload (net/buf.h), so decoders written against it serve both the
// owned and the zero-copy receive paths.
using ByteView = std::span<const uint8_t>;

// Thread-local recycled TX/encode vectors (defined in net/buf.cc; see
// net/buf.h for the stats). Writers start from the freelist and the TCP
// flush path feeds it, so steady-state encoding reuses capacity instead
// of allocating.
Bytes acquire_bytes();
void recycle_bytes(Bytes&& b);

class Writer {
 public:
  Writer() : buf_(acquire_bytes()) {}
  ~Writer() { recycle_bytes(std::move(buf_)); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  // Movable so factory helpers can return a Writer; the moved-from buffer
  // is empty, making the destructor's recycle a no-op.
  Writer(Writer&&) noexcept = default;
  Writer& operator=(Writer&&) noexcept = default;

  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v) { append(&v, 2); }
  void u32(uint32_t v) { append(&v, 4); }
  void u64(uint64_t v) { append(&v, 8); }
  void f64(double v) { append(&v, 8); }
  void ring_id(RingId v) { u64(v.raw()); }
  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    append(s.data(), s.size());
  }
  void bytes(const Bytes& b) {
    u32(static_cast<uint32_t>(b.size()));
    append(b.data(), b.size());
  }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  void append(const void* p, size_t n) {
    const auto* c = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), c, c + n);
  }
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(ByteView buf)
      : p_(buf.data()), end_(buf.data() + buf.size()) {}
  Reader(const uint8_t* p, size_t n) : p_(p), end_(p + n) {}

  bool ok() const { return ok_; }
  // Marks the input malformed on a check above the byte level.
  void fail() { ok_ = false; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t u8() { return take<uint8_t>(); }
  uint16_t u16() { return take<uint16_t>(); }
  uint32_t u32() { return take<uint32_t>(); }
  uint64_t u64() { return take<uint64_t>(); }
  double f64() { return take<double>(); }
  RingId ring_id() { return RingId(u64()); }

  std::string str() {
    uint32_t n = u32();
    if (!check(n)) return {};
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  Bytes bytes() {
    uint32_t n = u32();
    if (!check(n)) return {};
    Bytes b(p_, p_ + n);
    p_ += n;
    return b;
  }

 private:
  template <typename T>
  T take() {
    T v{};
    if (!check(sizeof(T))) return v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }
  bool check(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

}  // namespace roar::net
