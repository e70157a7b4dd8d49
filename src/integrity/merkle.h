// Merkle hash tree over the stored ciphertexts — the integrity substrate.
//
// The paper delegates storage/access integrity to the PDP/PoR line of work
// ([1] Shacham-Waters, [2] Erway et al., [4] Ateniese et al.): "we assume
// the correct return of requested item is enforced by another branch of
// research". This module supplies that branch for our system: a dynamic
// Merkle tree with the SAME heap geometry as the modulation tree, so every
// structural mutation (leaf split on insert, balancing move on delete) maps
// one-to-one onto hash-tree updates.
//
//   leaf hash      = H(0x00 || item_id || ciphertext)   (computed client-side)
//   internal hash  = H(0x01 || left || right)
//
// The server maintains the tree and serves O(log n) membership proofs; the
// client tracks the root across its own mutations (integrity/audit.h), so a
// server that drops, rolls back, or substitutes any ciphertext is caught by
// the next audit or verified fetch.
#pragma once

#include <span>
#include <vector>

#include "core/node_id.h"
#include "crypto/digest.h"
#include "crypto/hasher.h"

namespace fgad::integrity {

using core::NodeId;
using crypto::Md;

/// Domain-separated leaf hash H(0x00 || item_id(8LE) || ciphertext).
Md leaf_hash(const crypto::Hasher& hasher, std::uint64_t item_id,
             BytesView ciphertext);

/// Domain-separated internal hash H(0x01 || left || right).
Md internal_hash(const crypto::Hasher& hasher, const Md& left,
                 const Md& right);

/// A membership proof: the sibling hashes on the leaf's root path,
/// bottom-up.
struct MerkleProof {
  NodeId leaf = core::kNoNode;
  std::vector<Md> siblings;
};

/// Recomputes the root implied by (leaf position, leaf hash, siblings).
Md fold_proof(const crypto::Hasher& hasher, NodeId leaf, const Md& leaf_h,
              std::span<const Md> siblings);

/// True iff the proof binds `leaf_h` at `proof.leaf` under `root`.
bool verify_proof(const crypto::Hasher& hasher, const Md& root,
                  const Md& leaf_h, const MerkleProof& proof);

/// Server-side dynamic Merkle tree (heap-array layout; see core/node_id.h).
class HashTree {
 public:
  explicit HashTree(crypto::HashAlg alg);

  std::size_t node_count() const { return hash_.size(); }
  std::size_t leaf_count() const { return core::leaf_count_of(hash_.size()); }
  bool empty() const { return hash_.empty(); }
  bool is_leaf(NodeId v) const {
    return v < hash_.size() && core::is_leaf_in(v, hash_.size());
  }

  /// Root of the tree; Md::zero(width) for the empty tree.
  Md root() const;

  /// Rebuilds from leaf hashes (leaf i of n lands at node n-1+i).
  void build(std::span<const Md> leaf_hashes);

  /// Membership proof for a leaf.
  MerkleProof prove(NodeId leaf) const;

  const Md& node_hash(NodeId v) const { return hash_[v]; }

  // ---- mutations mirroring the modulation tree -----------------------------

  /// Replaces a leaf hash (item modification).
  void set_leaf(NodeId leaf, const Md& h);

  /// Leaf split on insert: the old leaf q = (node_count-1)/2 moves to its
  /// new left child, `new_h` becomes the right child. First insert into an
  /// empty tree creates the root leaf.
  void append_pair(const Md& new_h);

  /// Mirrors the deletion balancing move: drops leaf d, promotes the
  /// surviving last-pair sibling into the parent slot, and (when d is not
  /// in the last pair) re-homes the last leaf into d's slot. The m = 1 case
  /// of relocate_leaves().
  void delete_leaf(NodeId d);

  /// Mirrors a merged-cut bulk deletion (ModulationTree::apply_delete_many):
  /// copies each relocation's source hash to its destination, shrinks the
  /// tree to `new_node_count` nodes, and rehashes the deduplicated
  /// ancestors of the destinations bottom-up. Every source must be
  /// >= new_node_count, every destination a leaf of the shrunk tree, and
  /// every leaf slot of the shrunk tree that does not keep its old leaf
  /// hash (a deleted or formerly internal slot) a destination. With r
  /// relocations this costs at most r * depth internal hashes.
  void relocate_leaves(std::span<const core::LeafReloc> relocs,
                       std::size_t new_node_count);

 private:
  void bubble_up(NodeId v);

  crypto::Hasher hasher_;
  std::size_t width_;
  std::vector<Md> hash_;
};

}  // namespace fgad::integrity
