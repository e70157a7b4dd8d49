// Digest / modulator value type.
//
// The paper's modulated hash chain works over fixed-width values: the master
// key K, every modulator x_i, and every intermediate chain value share the
// hash function's digest width (160 bits for SHA-1 in the paper's
// implementation). Md is that value type: a small fixed-capacity buffer
// whose runtime size equals the digest size of the configured hash.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "common/bytes.h"

namespace fgad::crypto {

enum class HashAlg : std::uint8_t {
  kSha1 = 1,    // paper default: 160-bit modulators
  kSha256 = 2,  // ablation variant: 256-bit modulators
};

/// Digest size in bytes for a hash algorithm.
std::size_t digest_size(HashAlg alg);

/// Name for reports ("SHA-1", "SHA-256").
const char* hash_alg_name(HashAlg alg);

/// Fixed-capacity digest/modulator value. Value-semantic, trivially
/// copyable; the size is set at construction and never changes.
class Md {
 public:
  static constexpr std::size_t kCapacity = 32;

  /// Empty (size 0) value; used only as a "not set" placeholder.
  constexpr Md() noexcept : b_{}, size_(0) {}

  /// Copies `bytes` (must be <= kCapacity long).
  explicit Md(BytesView bytes);

  /// All-zero value of width n.
  static Md zero(std::size_t n);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  const std::uint8_t* data() const noexcept { return b_.data(); }
  std::uint8_t* data() noexcept { return b_.data(); }
  BytesView bytes() const noexcept { return BytesView(b_.data(), size_); }
  std::span<std::uint8_t> mutable_bytes() noexcept {
    return std::span<std::uint8_t>(b_.data(), size_);
  }

  /// XOR with another value of the same size (throws on mismatch).
  Md& operator^=(const Md& other);
  friend Md operator^(Md a, const Md& b) {
    a ^= b;
    return a;
  }

  friend bool operator==(const Md& a, const Md& b) noexcept {
    return a.size_ == b.size_ && a.b_ == b.b_;
  }
  friend bool operator!=(const Md& a, const Md& b) noexcept {
    return !(a == b);
  }
  /// Lexicographic order (for ordered containers / canonical sorting).
  friend bool operator<(const Md& a, const Md& b) noexcept {
    if (a.size_ != b.size_) return a.size_ < b.size_;
    return a.b_ < b.b_;
  }

  /// Securely wipes the value in place.
  void cleanse() noexcept;

  std::string hex() const { return to_hex(bytes()); }

  /// Hash functor over the four 8-byte words of the (zero-padded) buffer
  /// plus the size, keyed by secret per-process random words. Peers choose
  /// modulators, so an unkeyed hash would let them pick values whose
  /// probe sequences collide; the keys make hashes differ between
  /// processes, so never persist them or order output by them.
  struct Hasher {
    std::size_t operator()(const Md& m) const noexcept;
  };

 private:
  std::array<std::uint8_t, kCapacity> b_;  // zero-padded beyond size_
  std::uint8_t size_;
};

}  // namespace fgad::crypto
