#include "crypto/digest.h"

#include <openssl/crypto.h>

#include <cstring>
#include <random>
#include <stdexcept>

namespace fgad::crypto {

std::size_t digest_size(HashAlg alg) {
  switch (alg) {
    case HashAlg::kSha1:
      return 20;
    case HashAlg::kSha256:
      return 32;
  }
  throw std::invalid_argument("digest_size: unknown hash algorithm");
}

const char* hash_alg_name(HashAlg alg) {
  switch (alg) {
    case HashAlg::kSha1:
      return "SHA-1";
    case HashAlg::kSha256:
      return "SHA-256";
  }
  return "?";
}

Md::Md(BytesView bytes) : b_{}, size_(0) {
  if (bytes.size() > kCapacity) {
    throw std::invalid_argument("Md: value wider than capacity");
  }
  std::memcpy(b_.data(), bytes.data(), bytes.size());
  size_ = static_cast<std::uint8_t>(bytes.size());
}

Md Md::zero(std::size_t n) {
  if (n > kCapacity) {
    throw std::invalid_argument("Md::zero: width exceeds capacity");
  }
  Md m;
  m.size_ = static_cast<std::uint8_t>(n);
  return m;
}

Md& Md::operator^=(const Md& other) {
  if (size_ != other.size_) {
    throw std::invalid_argument("Md::operator^=: size mismatch");
  }
  for (std::size_t i = 0; i < size_; ++i) {
    b_[i] ^= other.b_[i];
  }
  return *this;
}

void Md::cleanse() noexcept {
  OPENSSL_cleanse(b_.data(), b_.size());
}

namespace {

// 64x64 -> 128-bit multiply folded to 64 bits (the wyhash "mum" mixer).
std::uint64_t mum(std::uint64_t a, std::uint64_t b) noexcept {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
}

// Independent secret words, one per mum() operand, drawn once per process.
struct HashKey {
  std::uint64_t s[6];
};

const HashKey& hash_key() {
  static const HashKey key = [] {
    std::random_device rd;
    HashKey k{};
    for (std::uint64_t& w : k.s) {
      w = (std::uint64_t{rd()} << 32) ^ rd();
    }
    return k;
  }();
  return key;
}

}  // namespace

std::size_t Md::Hasher::operator()(const Md& m) const noexcept {
  // The buffer past size_ is guaranteed zero, so equal values hash equal.
  // Every operand carries a secret word, so no chosen input can zero one
  // and make the product independent of the rest of the value.
  std::uint64_t w[4];
  static_assert(sizeof(w) == kCapacity);
  std::memcpy(w, m.b_.data(), sizeof(w));
  const std::uint64_t* s = hash_key().s;
  const std::uint64_t h =
      mum(w[0] ^ s[0], w[1] ^ s[1]) ^ mum(w[2] ^ s[2], w[3] ^ s[3]);
  return mum(h ^ s[4], s[5] ^ m.size_);
}

}  // namespace fgad::crypto
