// Reference model and deterministic inputs for the paper-operation
// benchmark.
//
// Every plaintext the benchmark sends is a pure function of a 64-bit tag
// drawn from the workload seed, so the model stores one tag per live item
// instead of the plaintext itself. The model is what the correctness gate
// compares the server's state against: live (id -> plaintext) must match a
// fetch_all exactly, and every id the benchmark deleted must be gone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"

namespace paperbench {

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Deterministic generator for op choices, item picks and content tags.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return splitmix64(state_); }
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
  /// True with probability per_mille / 1000.
  bool chance(std::uint32_t per_mille) { return below(1000) < per_mille; }

 private:
  std::uint64_t state_;
};

/// Mixes a run seed with stream identifiers (client index, purpose) into
/// an independent generator seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                 std::uint64_t b = 0) {
  std::uint64_t s = seed ^ (a * 0xd1b54a32d192ed03ull) ^
                    (b * 0x8cb92ba72f3d8dd7ull);
  return splitmix64(s);
}

/// The plaintext of an item with content tag `tag`.
inline fgad::Bytes content_of(std::uint64_t tag, std::size_t size) {
  fgad::Bytes out(size);
  std::uint64_t state = tag;
  for (std::size_t off = 0; off < size; off += 8) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(out.data() + off, &word, std::min<std::size_t>(8, size - off));
  }
  return out;
}

/// Set of ids with O(1) insert, erase and uniform random pick.
class IdPool {
 public:
  void add(std::uint64_t id) {
    pos_[id] = ids_.size();
    ids_.push_back(id);
  }
  void remove(std::uint64_t id) {
    const auto it = pos_.find(id);
    const std::size_t at = it->second;
    ids_[at] = ids_.back();
    pos_[ids_[at]] = at;
    ids_.pop_back();
    pos_.erase(it);
  }
  bool contains(std::uint64_t id) const { return pos_.count(id) != 0; }
  std::size_t size() const { return ids_.size(); }
  std::uint64_t pick(Rng& rng) const { return ids_[rng.below(ids_.size())]; }

 private:
  std::vector<std::uint64_t> ids_;
  std::unordered_map<std::uint64_t, std::size_t> pos_;
};

/// Expected state of one outsourced file.
struct FileModel {
  std::uint64_t file_id = 0;
  std::size_t item_bytes = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> live;  // id -> tag
  std::vector<std::uint64_t> deleted;                     // ids, in order
  // Pick pools. `hot` is a fixed subset of the initial ids that is never
  // deleted; `cold` holds every other live id.
  IdPool hot;
  IdPool cold;

  void add(std::uint64_t id, std::uint64_t tag, bool is_hot = false) {
    live[id] = tag;
    (is_hot ? hot : cold).add(id);
  }
  void erase(std::uint64_t id) {
    live.erase(id);
    if (hot.contains(id)) {
      hot.remove(id);
    } else {
      cold.remove(id);
    }
    deleted.push_back(id);
  }
  fgad::Bytes expected(std::uint64_t id) const {
    return content_of(live.at(id), item_bytes);
  }
};

}  // namespace paperbench
