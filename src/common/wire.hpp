#pragma once
// Deterministic byte-stream encoding for state transfer and checkpoints.
//
// Every multi-byte integer is little-endian regardless of host order;
// doubles travel as their IEEE-754 bit pattern (bit-exact round trip, no
// text formatting). Writers append to a growable buffer; readers consume
// a span and hard-fail (assert + clamp) on truncation, which in this
// codebase only ever means a version-skewed or corrupted snapshot.
//
// The encoding has no self-description: reader and writer must agree on
// the schema. A single format-version word at the head of each top-level
// blob (see kWireVersion) guards against accidental cross-version loads.

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace hypersub::common {

/// Bump when any save()/restore() schema below changes shape. Only the
/// current version has a reader; runner::restore refuses any other.
/// v2: node images appended a compressed-chain section after replica zones.
/// v3: that section held saturated-zone level masks instead of chains.
/// v4: replica zones follow the same rule, so node images append the
/// replica masks after the primary masks. (The stores keep saturated zones
/// as code runs and write the same rows.)
inline constexpr std::uint32_t kWireVersion = 4;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { u64(std::uint64_t(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(const std::vector<std::uint8_t>& b) {
    u64(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  void raw(const void* p, std::size_t n) {
    // Host is little-endian on every platform this project targets; the
    // static_assert below documents (and enforces) the assumption instead
    // of paying a per-word byte swap.
    static_assert(std::endian::native == std::endian::little,
                  "wire format assumes a little-endian host");
    // resize + memcpy rather than a range insert: g++ 12 at -O3 cannot see
    // that the inserted range fits and warns (-Wstringop-overflow).
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(const std::vector<std::uint8_t>& data)
      : data_(data.data(), data.size()) {}

  std::uint8_t u8() {
    assert(pos_ < data_.size());
    return data_[pos_++];
  }
  std::uint16_t u16() { return raw<std::uint16_t>(); }
  std::uint32_t u32() { return raw<std::uint32_t>(); }
  std::uint64_t u64() { return raw<std::uint64_t>(); }
  std::int64_t i64() { return std::int64_t(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::size_t n = std::size_t(u64());
    assert(pos_ + n <= data_.size());
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    const std::size_t n = std::size_t(u64());
    assert(pos_ + n <= data_.size());
    std::vector<std::uint8_t> b(data_.begin() + std::ptrdiff_t(pos_),
                                data_.begin() + std::ptrdiff_t(pos_ + n));
    pos_ += n;
    return b;
  }

  bool exhausted() const noexcept { return pos_ >= data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  template <typename T>
  T raw() {
    assert(pos_ + sizeof(T) <= data_.size());
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace hypersub::common
