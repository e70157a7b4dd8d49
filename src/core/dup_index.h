// Counted duplicate-modulator index for ModulationTree (DESIGN.md §4).
//
// A multiset of modulator values: every tree node that holds a value
// counts once, so a value held by two nodes stays present until both drop
// it. Flat open addressing with linear probing, load <= 3/4 and
// backward-shift deletion (no tombstones). Probe metadata (32-bit hash tag
// + count) lives in its own array of 8-byte slots; the 33-byte values are
// read only on a tag match. Md::Hasher is keyed by per-process secrets:
// clients choose link modulators, so an unkeyed hash would let one client
// build long probe chains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/digest.h"

namespace fgad::core {

class DupIndex {
 public:
  /// Drops every value and releases the storage.
  void clear();
  /// Makes room for `values` distinct values without rehashing.
  void reserve(std::size_t values);

  /// Counts one more holder of `m`.
  void add(const crypto::Md& m);
  /// Counts one holder of `m` fewer; the value leaves at count 0. A value
  /// that is not present is ignored.
  void remove(const crypto::Md& m);

  bool contains(const crypto::Md& m) const;

 private:
  struct Meta {
    std::uint32_t tag = 0;    // high half of the value's hash
    std::uint32_t count = 0;  // holders; 0 marks an empty slot
  };

  // Slot holding `m`, or the empty slot that ends its probe run.
  std::size_t probe(const crypto::Md& m, std::uint64_t h) const;
  void rehash(std::size_t capacity);

  std::vector<Meta> meta_;        // capacity is 0 or a power of two
  std::vector<crypto::Md> vals_;  // aligned with meta_
  std::size_t size_ = 0;          // distinct values
  crypto::Md::Hasher hash_;
};

}  // namespace fgad::core
