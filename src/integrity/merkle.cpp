#include "integrity/merkle.h"

#include <algorithm>
#include <array>
#include <functional>
#include <stdexcept>

namespace fgad::integrity {

using core::is_root;
using core::left_child;
using core::parent_of;
using core::sibling_of;

Md leaf_hash(const crypto::Hasher& hasher, std::uint64_t item_id,
             BytesView ciphertext) {
  std::array<std::uint8_t, 9> prefix{};
  for (int i = 0; i < 8; ++i) {
    prefix[1 + i] = static_cast<std::uint8_t>(item_id >> (8 * i));
  }
  return hasher.hash2(prefix, ciphertext);
}

Md internal_hash(const crypto::Hasher& hasher, const Md& left,
                 const Md& right) {
  std::array<std::uint8_t, 1 + 2 * Md::kCapacity> buf{};
  buf[0] = 0x01;
  std::copy_n(left.data(), left.size(), buf.begin() + 1);
  std::copy_n(right.data(), right.size(), buf.begin() + 1 + left.size());
  return hasher.hash(BytesView(buf.data(), 1 + left.size() + right.size()));
}

Md fold_proof(const crypto::Hasher& hasher, NodeId leaf, const Md& leaf_h,
              std::span<const Md> siblings) {
  Md cur = leaf_h;
  NodeId node = leaf;
  for (const Md& sib : siblings) {
    // Odd ids are left children in the heap layout.
    cur = (node % 2 == 1) ? internal_hash(hasher, cur, sib)
                          : internal_hash(hasher, sib, cur);
    node = parent_of(node);
  }
  return cur;
}

bool verify_proof(const crypto::Hasher& hasher, const Md& root,
                  const Md& leaf_h, const MerkleProof& proof) {
  if (proof.leaf == core::kNoNode ||
      proof.siblings.size() != core::depth_of(proof.leaf)) {
    return false;
  }
  return fold_proof(hasher, proof.leaf, leaf_h, proof.siblings) == root;
}

HashTree::HashTree(crypto::HashAlg alg)
    : hasher_(alg), width_(crypto::digest_size(alg)) {}

Md HashTree::root() const {
  return hash_.empty() ? Md::zero(width_) : hash_[0];
}

void HashTree::build(std::span<const Md> leaf_hashes) {
  const std::size_t n = leaf_hashes.size();
  hash_.assign(core::node_count_for(n), Md());
  if (n == 0) {
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    hash_[n - 1 + i] = leaf_hashes[i];
  }
  for (NodeId v = n - 1; v-- > 0;) {
    hash_[v] =
        internal_hash(hasher_, hash_[left_child(v)], hash_[left_child(v) + 1]);
  }
}

MerkleProof HashTree::prove(NodeId leaf) const {
  if (!is_leaf(leaf)) {
    throw std::out_of_range("HashTree::prove: not a leaf");
  }
  MerkleProof proof;
  proof.leaf = leaf;
  for (NodeId v = leaf; !is_root(v); v = parent_of(v)) {
    proof.siblings.push_back(hash_[sibling_of(v)]);
  }
  return proof;
}

void HashTree::bubble_up(NodeId v) {
  while (!is_root(v)) {
    v = parent_of(v);
    hash_[v] =
        internal_hash(hasher_, hash_[left_child(v)], hash_[left_child(v) + 1]);
  }
}

void HashTree::set_leaf(NodeId leaf, const Md& h) {
  if (!is_leaf(leaf)) {
    throw std::out_of_range("HashTree::set_leaf: not a leaf");
  }
  hash_[leaf] = h;
  bubble_up(leaf);
}

void HashTree::append_pair(const Md& new_h) {
  if (hash_.empty()) {
    hash_.push_back(new_h);
    return;
  }
  const NodeId q = static_cast<NodeId>((hash_.size() - 1) / 2);
  const Md moved = hash_[q];
  hash_.push_back(moved);
  hash_.push_back(new_h);
  hash_[q] = internal_hash(hasher_, moved, new_h);
  bubble_up(q);
}

void HashTree::delete_leaf(NodeId d) {
  if (!is_leaf(d)) {
    throw std::out_of_range("HashTree::delete_leaf: not a leaf");
  }
  const std::size_t nodes = hash_.size();
  if (nodes == 1) {
    hash_.clear();
    return;
  }
  const NodeId last = static_cast<NodeId>(nodes - 1);
  const NodeId p_slot = parent_of(last);
  // The last pair's survivor is promoted into p_slot; when d is not in the
  // last pair, the last leaf is also re-homed into d.
  const std::array<core::LeafReloc, 2> moves{
      {{d == last - 1 ? last : last - 1, p_slot}, {last, d}}};
  relocate_leaves(std::span(moves).first(d < last - 1 ? 2 : 1), nodes - 2);
}

void HashTree::relocate_leaves(std::span<const core::LeafReloc> relocs,
                               std::size_t new_node_count) {
  if (new_node_count > hash_.size() ||
      (new_node_count != 0 && new_node_count % 2 == 0)) {
    throw std::out_of_range("HashTree::relocate_leaves: bad node count");
  }
  // Sources all lie at or past new_node_count and destinations below it,
  // so no move overwrites a hash another move still has to read.
  std::vector<NodeId> dirty;
  dirty.reserve(relocs.size() * (core::depth_of(hash_.size()) + 1));
  for (const core::LeafReloc& rl : relocs) {
    if (rl.from >= hash_.size() || rl.from < new_node_count ||
        !core::is_leaf_in(rl.to, new_node_count) ||
        rl.to >= new_node_count) {
      throw std::out_of_range("HashTree::relocate_leaves: bad relocation");
    }
    hash_[rl.to] = hash_[rl.from];
    for (NodeId v = rl.to; !is_root(v);) {
      v = parent_of(v);
      dirty.push_back(v);
    }
  }
  hash_.resize(new_node_count);
  // Every internal node of the shrunk tree was internal before, so only
  // ancestors of a destination can change. Descending ids put children
  // before parents; each ancestor is hashed once.
  std::sort(dirty.begin(), dirty.end(), std::greater<>());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (NodeId v : dirty) {
    hash_[v] =
        internal_hash(hasher_, hash_[left_child(v)], hash_[left_child(v) + 1]);
  }
}

}  // namespace fgad::integrity
