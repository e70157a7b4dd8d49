// Modulated hash chain — the paper's key modulation function F (Section IV-A).
//
//   F(K, <x_1..x_l>) = H( ... H( H(K ^ x_1) ^ x_2 ) ... ^ x_l )
//
// with the recursive form
//
//   F(K, empty)   = K
//   F(K, M^(i))   = H( F(K, M^(i-1)) ^ x_i ).
//
// Lemma 1 (the heart of the scheme): changing the master key K -> K' while
// replacing a single modulator x_i by
//
//   x_i' = x_i ^ F(K, M^(i-1)) ^ F(K', M^(i-1))
//
// leaves the chain output unchanged. adjusted_modulator() computes that
// substitution from the two prefix values.
#pragma once

#include <vector>

#include "crypto/digest.h"
#include "crypto/hasher.h"

namespace fgad::core {

using crypto::HashAlg;
using crypto::Md;

/// An ordered modulator list M (root-to-leaf order in the tree).
using ModList = std::vector<Md>;

class ModulatedHashChain {
 public:
  explicit ModulatedHashChain(HashAlg alg) : hasher_(alg) {}

  HashAlg alg() const noexcept { return hasher_.alg(); }
  std::size_t width() const noexcept { return hasher_.size(); }

  /// One chain step: H(prev ^ x). Not counted here: callers that step
  /// directly add their steps to fgad_chain_steps_total through
  /// count_steps(), once per operation, to keep the hot loop bare.
  Md step(const Md& prev, const Md& x) const {
    Md buf = prev;
    buf ^= x;
    return hasher_.hash(buf.bytes());
  }

  /// Adds `n` steps to fgad_chain_steps_total.
  static void count_steps(std::uint64_t n);

  /// F(K, mods).
  Md eval(const Md& master, std::span<const Md> mods) const;

  /// All prefix values F(K, M^(i)) for i = 0..l (l+1 entries; entry 0 is K).
  std::vector<Md> prefixes(const Md& master, std::span<const Md> mods) const;

  /// Lemma 1 substitution: the new value x_i' that keeps the chain output
  /// unchanged when the prefix value before position i changes from
  /// `old_prefix` = F(K, M^(i-1)) to `new_prefix` = F(K', M^(i-1)).
  static Md adjusted_modulator(const Md& x_i, const Md& old_prefix,
                               const Md& new_prefix) {
    Md out = x_i;
    out ^= old_prefix;
    out ^= new_prefix;
    return out;
  }

 private:
  crypto::Hasher hasher_;
};

}  // namespace fgad::core
