// Heap-array geometry of the modulation tree.
//
// The paper's modulation tree is always *left-complete* (the balancing
// algorithm of Section IV-D restores completeness after every deletion, and
// Section IV-E's insertion fills the leftmost slot of the shallowest
// incomplete level). A left-complete binary tree with n leaves is exactly
// the shape of a binary heap with 2n-1 nodes:
//
//   * node ids are array indices 0 .. 2n-2, root is 0;
//   * children of i are 2i+1 and 2i+2; parent of i is (i-1)/2;
//   * node i is a leaf iff 2i+1 >= node_count; leaves are ids >= n-1;
//   * the paper's "last leaf t at the last level" is id 2n-2;
//   * the paper's insertion point (first leaf of the deepest incomplete
//     level) is the parent of the two appended slots, (node_count-1)/2.
//
// These free functions centralize that arithmetic.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fgad::core {

using NodeId = std::uint64_t;

inline constexpr NodeId kNoNode = ~NodeId{0};

constexpr NodeId root_id() noexcept { return 0; }
constexpr bool is_root(NodeId v) noexcept { return v == 0; }
constexpr NodeId parent_of(NodeId v) noexcept { return (v - 1) / 2; }
constexpr NodeId left_child(NodeId v) noexcept { return 2 * v + 1; }
constexpr NodeId right_child(NodeId v) noexcept { return 2 * v + 2; }

/// One leaf relocation of a deletion's rebalancing move: the leaf at node
/// `from` (in the chopped tail) moves to node `to` (below the new node
/// count).
struct LeafReloc {
  NodeId from;
  NodeId to;
};

/// Sibling of a non-root node.
constexpr NodeId sibling_of(NodeId v) noexcept {
  return (v % 2 == 1) ? v + 1 : v - 1;
}

/// True iff v is a leaf in a tree of `node_count` nodes.
constexpr bool is_leaf_in(NodeId v, std::size_t node_count) noexcept {
  return left_child(v) >= node_count;
}

/// Leaf count of a tree with `node_count` nodes (node_count is 0 or odd).
constexpr std::size_t leaf_count_of(std::size_t node_count) noexcept {
  return (node_count + 1) / 2;
}

/// Node count of a tree with n leaves.
constexpr std::size_t node_count_for(std::size_t n_leaves) noexcept {
  return n_leaves == 0 ? 0 : 2 * n_leaves - 1;
}

/// Depth of node v (root has depth 0).
constexpr unsigned depth_of(NodeId v) noexcept {
  unsigned d = 0;
  while (v != 0) {
    v = parent_of(v);
    ++d;
  }
  return d;
}

/// True iff `anc` is an ancestor of `v` (or equal to it).
constexpr bool is_ancestor_or_self(NodeId anc, NodeId v) noexcept {
  while (v > anc) {
    v = parent_of(v);
  }
  return v == anc;
}

}  // namespace fgad::core
