#include "core/dup_index.h"

#include <utility>

namespace fgad::core {

using crypto::Md;

namespace {

constexpr std::size_t kMinCapacity = 16;

// Maximum load 3/4. The 8-byte probe slots keep the longer runs cheap, and
// 41 bytes per slot make the load factor the index's memory cost.
bool over_load(std::size_t values, std::size_t capacity) {
  return 4 * values > 3 * capacity;
}

// Smallest power-of-two capacity that keeps `values` at load <= 3/4.
std::size_t capacity_for(std::size_t values) {
  std::size_t cap = kMinCapacity;
  while (over_load(values, cap)) {
    cap <<= 1;
  }
  return cap;
}

}  // namespace

void DupIndex::clear() {
  meta_ = {};
  vals_ = {};
  size_ = 0;
}

void DupIndex::reserve(std::size_t values) {
  const std::size_t cap = capacity_for(values);
  if (cap > meta_.size()) {
    rehash(cap);
  }
}

std::size_t DupIndex::probe(const Md& m, std::uint64_t h) const {
  const std::size_t mask = meta_.size() - 1;
  const auto tag = static_cast<std::uint32_t>(h >> 32);
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Meta& e = meta_[i];
    if (e.count == 0 || (e.tag == tag && vals_[i] == m)) {
      return i;
    }
  }
}

bool DupIndex::contains(const Md& m) const {
  return size_ != 0 && meta_[probe(m, hash_(m))].count != 0;
}

void DupIndex::add(const Md& m) {
  if (over_load(size_ + 1, meta_.size())) {
    rehash(capacity_for(size_ + 1));
  }
  const std::uint64_t h = hash_(m);
  const std::size_t i = probe(m, h);
  Meta& e = meta_[i];
  if (e.count == 0) {
    e.tag = static_cast<std::uint32_t>(h >> 32);
    vals_[i] = m;
    ++size_;
  }
  ++e.count;
}

void DupIndex::remove(const Md& m) {
  if (size_ == 0) {
    return;
  }
  std::size_t hole = probe(m, hash_(m));
  if (meta_[hole].count == 0 || --meta_[hole].count != 0) {
    return;
  }
  --size_;
  // Backward shift: walk the rest of the run and pull back every entry
  // whose home slot does not lie cyclically in (hole, j], so every value
  // stays reachable from its home without tombstones.
  const std::size_t mask = meta_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; meta_[j].count != 0;
       j = (j + 1) & mask) {
    const std::size_t home = hash_(vals_[j]) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      meta_[hole] = meta_[j];
      vals_[hole] = vals_[j];
      hole = j;
    }
  }
  meta_[hole] = Meta{};
}

void DupIndex::rehash(std::size_t capacity) {
  std::vector<Meta> old_meta =
      std::exchange(meta_, std::vector<Meta>(capacity));
  std::vector<Md> old_vals = std::exchange(vals_, std::vector<Md>(capacity));
  const std::size_t mask = capacity - 1;
  for (std::size_t k = 0; k < old_meta.size(); ++k) {
    if (old_meta[k].count == 0) {
      continue;
    }
    std::size_t i = hash_(old_vals[k]) & mask;
    while (meta_[i].count != 0) {
      i = (i + 1) & mask;
    }
    meta_[i] = old_meta[k];
    vals_[i] = old_vals[k];
  }
}

}  // namespace fgad::core
