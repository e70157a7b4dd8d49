// Server-side modulation tree (Section IV-B of the paper).
//
// A left-complete binary tree stored as a heap array (see node_id.h for the
// geometry). Each non-root node carries a *link modulator* (on the edge from
// its parent); each leaf additionally carries a *leaf modulator* and a
// reference to the stored ciphertext (an opaque item slot owned by the cloud
// layer's ItemStore).
//
// The tree is pure server state: it never sees the master key. Mutations are
// driven by client-computed commits:
//   * apply_delete — modulator-adjustment (Eqs. 6-7) + balancing (IV-D);
//   * apply_insert — leaf split (IV-E).
// Both return the leaf moves the cloud layer needs to keep its
// item -> leaf back-pointers consistent.
//
// Optional duplicate tracking maintains a hash set of every modulator value
// in the tree so the server can implement the paper's "inform the client to
// re-perform the operation with a different modulator" rule. It costs memory
// proportional to the tree, so huge benchmark instances may disable it; the
// *client-side* distinctness check on MT(k) — the one Theorem 2's proof
// relies on — is always active regardless.
#pragma once

#include <functional>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/node_id.h"
#include "core/views.h"
#include "crypto/digest.h"
#include "proto/wire.h"

namespace fgad::core {

using crypto::HashAlg;

class ModulationTree {
 public:
  struct Config {
    HashAlg alg = HashAlg::kSha1;
    bool track_duplicates = true;
  };

  /// An item whose leaf changed position; the owner must update its
  /// item -> leaf mapping.
  struct LeafMove {
    std::uint64_t item_slot;
    NodeId new_leaf;
  };

  struct DeleteOutcome {
    std::uint64_t removed_item_slot;  // ciphertext to discard
    std::vector<LeafMove> moves;
  };

  struct DeleteManyOutcome {
    /// Ciphertexts to discard, aligned with the commit's leaf list.
    std::vector<std::uint64_t> removed_item_slots;
    std::vector<LeafMove> moves;
    /// Old-node -> new-node pairs for the relocated leaves, hole-ascending.
    /// The integrity layer replays them on its hash tree and rehashes only
    /// the destinations' ancestors (integrity::HashTree::relocate_leaves).
    std::vector<LeafReloc> leaf_relocations;
  };

  struct InsertOutcome {
    NodeId new_leaf;                  // where the new item lives
    std::vector<LeafMove> moves;      // the split leaf's item, if re-homed
  };

  ModulationTree() : ModulationTree(Config{}) {}
  explicit ModulationTree(Config cfg);

  HashAlg alg() const { return cfg_.alg; }
  std::size_t node_count() const { return link_.size(); }
  std::size_t leaf_count() const { return leaf_count_of(node_count()); }
  bool empty() const { return link_.empty(); }

  bool valid_node(NodeId v) const { return v < node_count(); }
  bool is_leaf(NodeId v) const {
    return valid_node(v) && is_leaf_in(v, node_count());
  }

  /// Link modulator on (parent(v), v); v must be a valid non-root node.
  const crypto::Md& link_mod(NodeId v) const;
  /// Leaf modulator of leaf v.
  const crypto::Md& leaf_mod(NodeId v) const;
  /// Item slot stored at leaf v.
  std::uint64_t item_slot(NodeId v) const;

  /// The last leaf t (largest node id); tree must be non-empty.
  NodeId last_leaf() const { return static_cast<NodeId>(node_count() - 1); }

  /// The leaf the next insertion will split: (node_count-1)/2.
  NodeId insert_parent() const;

  // -- Bulk construction -----------------------------------------------

  /// Builds a fresh tree with n leaves. `link_gen(v)` supplies the link
  /// modulator of node v (v >= 1); `leaf_gen(v)` supplies (leaf modulator,
  /// item slot) for leaf v. Replaces any existing contents.
  void build(std::size_t n_leaves,
             const std::function<crypto::Md(NodeId)>& link_gen,
             const std::function<std::pair<crypto::Md, std::uint64_t>(NodeId)>&
                 leaf_gen);

  // -- Protocol-side extraction ------------------------------------------

  /// P(v): root-to-v path with link modulators.
  PathView path_to(NodeId v) const;

  /// The sibling cut C for leaf k, in canonical (depth) order.
  std::vector<CutEntry> cut_for(NodeId k) const;

  /// Assembles the full DeleteInfo for leaf k (ciphertext and item id are
  /// filled in by the cloud layer).
  DeleteInfo delete_info_for(NodeId k) const;

  /// The merged cut for a set of leaves (ascending, distinct), node ids
  /// ascending. For a single leaf this is cut_for(k) reordered by node id —
  /// which equals depth order, since path node ids grow with depth.
  std::vector<CutEntry> cut_for_many(std::span<const NodeId> leaves) const;

  /// Assembles the DeleteManyInfo for a set of leaves (ascending, distinct;
  /// item ids and ciphertexts are filled in by the cloud layer). An
  /// optional pool parallelizes the per-target/hole/mover path extraction;
  /// the result is identical with and without it.
  DeleteManyInfo delete_many_info_for(std::span<const NodeId> leaves,
                                      ThreadPool* pool = nullptr) const;

  /// Assembles the InsertInfo for the next insertion.
  InsertInfo insert_info() const;

  // -- Mutations (apply client commits) ----------------------------------

  /// Applies a deletion commit for a leaf. Validates shape; with duplicate
  /// tracking on, rejects commits that would introduce duplicate modulator
  /// values (the client then re-runs with fresh randomness).
  Result<DeleteOutcome> apply_delete(const DeleteCommit& commit);

  /// Applies a merged-cut bulk deletion commit: one delta bundle, one
  /// relocation set, all-or-nothing (every shape/width/duplicate check runs
  /// before the first mutation). See DESIGN.md §16.
  Result<DeleteManyOutcome> apply_delete_many(const DeleteManyCommit& commit);

  /// Applies an insertion commit. `item_slot` is the cloud-layer slot where
  /// the new ciphertext was stored.
  Result<InsertOutcome> apply_insert(const InsertCommit& commit,
                                     std::uint64_t item_slot);

  /// Re-points a leaf at a different item slot (used when a persisted file
  /// is reloaded and the item store renumbers its slots).
  void set_item_slot(NodeId v, std::uint64_t item_slot) {
    leaf_rec(v).item_slot = item_slot;
  }

  /// Replaces the leaf modulator of a leaf (test/tamper hook).
  void set_leaf_mod(NodeId v, crypto::Md m);
  /// Replaces a link modulator (test/tamper hook).
  void set_link_mod(NodeId v, crypto::Md m);

  // -- Duplicate bookkeeping ---------------------------------------------

  bool track_duplicates() const { return cfg_.track_duplicates; }
  /// True iff `m` already appears somewhere in the tree (only meaningful
  /// with tracking enabled).
  bool contains_value(const crypto::Md& m) const;

  // -- Persistence --------------------------------------------------------

  void serialize(proto::Writer& w) const;
  /// Like serialize(), but each leaf's item_slot is passed through
  /// `slot_remap` first. FileStore uses this to write file-order positions
  /// instead of live slot numbers, making the persisted image canonical:
  /// save(load(save(x))) is byte-identical to save(x) no matter how the
  /// in-memory slot layout fragmented (DESIGN.md §13).
  void serialize(proto::Writer& w,
                 const std::function<std::uint64_t(std::uint64_t)>&
                     slot_remap) const;
  static Result<ModulationTree> deserialize(proto::Reader& r, Config cfg);

  /// Serialized size in bytes (the "fetch the entire modulation tree"
  /// communication cost of Table III).
  std::size_t serialized_size() const;

  /// Estimated resident memory (diagnostics).
  std::size_t memory_bytes() const;

 private:
  struct LeafRec {
    crypto::Md leaf_mod;
    std::uint64_t item_slot = 0;
  };

  static constexpr std::uint32_t kNoLeafRef = ~std::uint32_t{0};

  const LeafRec& leaf_rec(NodeId v) const;
  LeafRec& leaf_rec(NodeId v);
  std::uint32_t alloc_leaf_rec(crypto::Md mod, std::uint64_t item_slot);
  void free_leaf_rec(std::uint32_t ref);

  // Duplicate-set maintenance (no-ops when tracking is off).
  void dup_add(const crypto::Md& m);
  void dup_remove(const crypto::Md& m);
  bool dup_would_collide(const crypto::Md& m) const;

  // XORs delta into a tracked modulator in place.
  void xor_mod(crypto::Md& target, const crypto::Md& delta);

  Config cfg_;
  std::size_t width_;                    // modulator width in bytes
  std::vector<crypto::Md> link_;         // [0] unused
  std::vector<std::uint32_t> leaf_ref_;  // node -> leaves_ index or kNoLeafRef
  std::vector<LeafRec> leaves_;
  std::vector<std::uint32_t> free_leaf_refs_;
  std::unordered_set<crypto::Md, crypto::Md::Hasher> values_;
};

}  // namespace fgad::core
