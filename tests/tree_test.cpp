// ModulationTree: construction, path/cut extraction, serialization,
// duplicate tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/bulk_geometry.h"
#include "core/tree.h"
#include "crypto/random.h"

namespace fgad::core {
namespace {

using crypto::DeterministicRandom;
using crypto::Md;

ModulationTree make_tree(std::size_t n, DeterministicRandom& rnd,
                         bool track = true) {
  ModulationTree tree(ModulationTree::Config{HashAlg::kSha1, track});
  tree.build(
      n, [&](NodeId) { return rnd.random_md(20); },
      [&](NodeId v) {
        return std::pair<Md, std::uint64_t>(rnd.random_md(20), v * 10);
      });
  return tree;
}

TEST(Tree, EmptyTree) {
  ModulationTree tree{ModulationTree::Config{HashAlg::kSha1, true}};
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.node_count(), 0u);
  EXPECT_EQ(tree.leaf_count(), 0u);
  EXPECT_FALSE(tree.is_leaf(0));
}

TEST(Tree, BuildShape) {
  DeterministicRandom rnd(1);
  const auto tree = make_tree(6, rnd);
  EXPECT_EQ(tree.node_count(), 11u);
  EXPECT_EQ(tree.leaf_count(), 6u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_FALSE(tree.is_leaf(v)) << v;
  }
  for (NodeId v = 5; v < 11; ++v) {
    EXPECT_TRUE(tree.is_leaf(v)) << v;
    EXPECT_EQ(tree.item_slot(v), v * 10);
  }
}

TEST(Tree, PathGeometry) {
  DeterministicRandom rnd(2);
  const auto tree = make_tree(8, rnd);  // 15 nodes, leaves 7..14
  const PathView p = tree.path_to(12);
  ASSERT_TRUE(p.well_formed());
  EXPECT_EQ(p.nodes.front(), 0u);
  EXPECT_EQ(p.target(), 12u);
  EXPECT_EQ(p.depth(), 3u);
  // Links match the tree's stored modulators.
  for (std::size_t i = 1; i < p.nodes.size(); ++i) {
    EXPECT_EQ(p.links[i - 1], tree.link_mod(p.nodes[i]));
  }
}

TEST(Tree, SingleLeafPath) {
  DeterministicRandom rnd(3);
  const auto tree = make_tree(1, rnd);
  const PathView p = tree.path_to(0);
  EXPECT_TRUE(p.well_formed());
  EXPECT_EQ(p.depth(), 0u);
  EXPECT_TRUE(tree.is_leaf(0));
}

TEST(Tree, CutIsSiblingsTopDown) {
  DeterministicRandom rnd(4);
  const auto tree = make_tree(8, rnd);
  const NodeId k = 11;
  const auto cut = tree.cut_for(k);
  const PathView p = tree.path_to(k);
  ASSERT_EQ(cut.size(), p.depth());
  for (std::size_t i = 0; i < cut.size(); ++i) {
    EXPECT_EQ(cut[i].node, sibling_of(p.nodes[i + 1]));
    EXPECT_EQ(cut[i].link, tree.link_mod(cut[i].node));
    EXPECT_EQ(cut[i].is_leaf, tree.is_leaf(cut[i].node));
  }
}

// The cut separates all other leaves from the root: every other leaf's path
// passes through exactly one cut node.
TEST(Tree, CutSeparatesAllOtherLeaves) {
  DeterministicRandom rnd(5);
  const auto tree = make_tree(13, rnd);
  for (NodeId k = 12; k < 25; ++k) {
    const auto cut = tree.cut_for(k);
    for (NodeId leaf = 12; leaf < 25; ++leaf) {
      if (leaf == k) continue;
      int crossings = 0;
      for (const auto& c : cut) {
        if (is_ancestor_or_self(c.node, leaf)) {
          ++crossings;
        }
      }
      EXPECT_EQ(crossings, 1) << "k=" << k << " leaf=" << leaf;
    }
  }
}

TEST(Tree, DeleteInfoAssembly) {
  DeterministicRandom rnd(6);
  const auto tree = make_tree(9, rnd);
  const DeleteInfo info = tree.delete_info_for(10);
  EXPECT_EQ(info.path.target(), 10u);
  EXPECT_EQ(info.cut.size(), info.path.depth());
  EXPECT_TRUE(info.has_balance);
  EXPECT_EQ(info.t_path.target(), tree.last_leaf());
  EXPECT_EQ(info.s_link, tree.link_mod(sibling_of(tree.last_leaf())));
}

TEST(Tree, DeleteInfoSingleLeafNoBalance) {
  DeterministicRandom rnd(7);
  const auto tree = make_tree(1, rnd);
  const DeleteInfo info = tree.delete_info_for(0);
  EXPECT_FALSE(info.has_balance);
  EXPECT_TRUE(info.cut.empty());
}

TEST(Tree, InsertInfo) {
  DeterministicRandom rnd(8);
  const auto tree = make_tree(5, rnd);  // 9 nodes; insert parent = 4
  const InsertInfo info = tree.insert_info();
  EXPECT_FALSE(info.empty_tree);
  EXPECT_EQ(info.q_path.target(), 4u);
  EXPECT_EQ(info.q_leaf_mod, tree.leaf_mod(4));

  ModulationTree empty{ModulationTree::Config{HashAlg::kSha1, true}};
  EXPECT_TRUE(empty.insert_info().empty_tree);
}

TEST(Tree, SerializeRoundtrip) {
  DeterministicRandom rnd(9);
  for (std::size_t n : {0u, 1u, 2u, 7u, 32u}) {
    const auto tree = make_tree(n, rnd);
    proto::Writer w;
    tree.serialize(w);
    EXPECT_EQ(w.size(), tree.serialized_size()) << "n=" << n;
    proto::Reader r(w.data());
    auto back = ModulationTree::deserialize(
        r, ModulationTree::Config{HashAlg::kSha1, true});
    ASSERT_TRUE(back.is_ok()) << "n=" << n;
    ASSERT_TRUE(r.finish());
    const ModulationTree& t2 = back.value();
    ASSERT_EQ(t2.node_count(), tree.node_count());
    for (NodeId v = 1; v < tree.node_count(); ++v) {
      EXPECT_EQ(t2.link_mod(v), tree.link_mod(v));
    }
    for (NodeId v = (n ? n - 1 : 0); v < tree.node_count(); ++v) {
      EXPECT_EQ(t2.leaf_mod(v), tree.leaf_mod(v));
      EXPECT_EQ(t2.item_slot(v), tree.item_slot(v));
    }
  }
}

TEST(Tree, DeserializeRejectsGarbage) {
  proto::Reader r1(Bytes{});
  EXPECT_FALSE(ModulationTree::deserialize(r1, {}).is_ok());

  proto::Writer w;
  w.u8(99);  // unknown alg
  w.u64(3);
  proto::Reader r2(w.data());
  EXPECT_FALSE(ModulationTree::deserialize(r2, {}).is_ok());

  proto::Writer w2;
  w2.u8(1);
  w2.u64(4);  // even node count is impossible
  proto::Reader r3(w2.data());
  EXPECT_FALSE(ModulationTree::deserialize(r3, {}).is_ok());
}

// Regression: a huge claimed node count must be rejected before any
// allocation happens (found by the decoder fuzzer as a bad_alloc DoS).
TEST(Tree, DeserializeRejectsHugeClaimedCountWithoutAllocating) {
  proto::Writer w;
  w.u8(1);                        // SHA-1
  w.u64((1ull << 38) + 1);        // plausible-looking but absurd, odd count
  w.raw(Bytes(64, 0xab));         // far fewer bytes than the claim implies
  proto::Reader r(w.data());
  auto tree = ModulationTree::deserialize(r, {});
  ASSERT_FALSE(tree.is_ok());
  EXPECT_EQ(tree.code(), Errc::kDecodeError);
}

TEST(Tree, DuplicateTrackingObservesValues) {
  DeterministicRandom rnd(10);
  const auto tree = make_tree(8, rnd);
  EXPECT_TRUE(tree.contains_value(tree.link_mod(3)));
  EXPECT_TRUE(tree.contains_value(tree.leaf_mod(9)));
  EXPECT_FALSE(tree.contains_value(rnd.random_md(20)));
}

// The index is a multiset: a value held by two nodes stays tracked until
// both drop it, whether the repeat came from a mutation or from an image.
TEST(Tree, DuplicateIndexCountsRepeatedValues) {
  DeterministicRandom rnd(13);
  auto tree = make_tree(8, rnd);
  const Md shared = tree.link_mod(2);
  tree.set_link_mod(1, shared);  // nodes 1 and 2 both hold it
  tree.set_link_mod(1, rnd.random_md(20));
  EXPECT_TRUE(tree.contains_value(shared));  // node 2 still does
  tree.set_link_mod(2, rnd.random_md(20));
  EXPECT_FALSE(tree.contains_value(shared));

  // A link and a leaf modulator sharing a value, through an image.
  const Md leaf_value = tree.leaf_mod(9);
  tree.set_link_mod(3, leaf_value);
  proto::Writer w;
  tree.serialize(w);
  proto::Reader r(w.data());
  auto restored = ModulationTree::deserialize(
      r, ModulationTree::Config{HashAlg::kSha1, true});
  ASSERT_TRUE(restored.is_ok());
  ModulationTree& t2 = restored.value();
  t2.set_link_mod(3, rnd.random_md(20));
  EXPECT_TRUE(t2.contains_value(leaf_value));  // leaf 9 still holds it
  t2.set_leaf_mod(9, rnd.random_md(20));
  EXPECT_FALSE(t2.contains_value(leaf_value));
}

// Seeded random mutation sequences through every public mutator. After
// each step every live link and leaf modulator must be indexed and every
// value the tree held earlier but holds no longer must not be. Some deltas
// and set_* values are chosen to copy a live value, so repeated values
// (count > 1) are exercised, and some commits reuse a live value as a
// fresh modulator and must be rejected without touching the index.
class DupIndexModel {
 public:
  DupIndexModel(std::size_t n, std::uint64_t seed)
      : rnd_(seed), tree_(make_tree(n, rnd_)) {
    record_live();
  }

  void step() {
    switch (rnd_.random_u64() % 7) {
      case 0:
      case 1:
        if (!tree_.empty()) erase_one();
        break;
      case 2:
        if (!tree_.empty()) erase_many();
        break;
      case 3:
        insert();
        break;
      case 4:
        if (tree_.node_count() > 1) {
          const NodeId v = 1 + pick(tree_.node_count() - 1);
          tree_.set_link_mod(v, value_to_write());
        }
        break;
      case 5:
        if (!tree_.empty()) {
          const std::size_t n = tree_.leaf_count();
          tree_.set_leaf_mod(n - 1 + pick(n), value_to_write());
        }
        break;
      default:
        reload();
        break;
    }
    record_live();
  }

  void check() const {
    const std::set<Md> live = live_values();
    for (const Md& v : live) {
      ASSERT_TRUE(tree_.contains_value(v)) << "live value not indexed";
    }
    for (const Md& v : seen_) {
      if (!live.contains(v)) {
        ASSERT_FALSE(tree_.contains_value(v)) << "retired value indexed";
      }
    }
  }

  const ModulationTree& tree() const { return tree_; }

 private:
  std::size_t pick(std::size_t bound) { return rnd_.random_u64() % bound; }
  Md fresh() { return rnd_.random_md(20); }

  std::set<Md> live_values() const {
    std::set<Md> live;
    for (NodeId v = 1; v < tree_.node_count(); ++v) {
      live.insert(tree_.link_mod(v));
    }
    const std::size_t n = tree_.leaf_count();
    for (NodeId v = n == 0 ? 0 : n - 1; v < tree_.node_count(); ++v) {
      live.insert(tree_.leaf_mod(v));
    }
    return live;
  }

  void record_live() {
    const std::set<Md> live = live_values();
    seen_.insert(live.begin(), live.end());
  }

  // Some live value (the tree must be non-empty).
  Md live_value() {
    const std::size_t n = tree_.leaf_count();
    return tree_.leaf_mod(n - 1 + pick(n));
  }

  Md value_to_write() { return pick(2) == 0 ? live_value() : fresh(); }

  // A delta for cut node c: usually random, sometimes the one that turns
  // c's (first) modulator into a copy of another live value.
  Md delta_for(NodeId c) {
    if (pick(4) != 0) return fresh();
    const Md& cur =
        tree_.is_leaf(c) ? tree_.leaf_mod(c) : tree_.link_mod(2 * c + 1);
    return cur ^ live_value();
  }

  // With probability 1/8, replaces `fresh_value` by a live value: the
  // commit must then fail with kDuplicateModulator and change nothing.
  bool maybe_poison(Md& fresh_value) {
    if (tree_.empty() || pick(8) != 0) return false;
    fresh_value = live_value();
    return true;
  }

  template <typename R>
  void expect_outcome(const R& result, bool poisoned) {
    if (poisoned) {
      ASSERT_FALSE(result.is_ok());
      EXPECT_EQ(result.code(), Errc::kDuplicateModulator);
    } else {
      ASSERT_TRUE(result.is_ok()) << result.error().message;
    }
  }

  void erase_one() {
    DeleteCommit c;
    c.leaf = tree_.leaf_count() - 1 + pick(tree_.leaf_count());
    for (NodeId cur = c.leaf; !is_root(cur); cur = parent_of(cur)) {
      c.deltas.push_back(delta_for(sibling_of(cur)));
    }
    std::reverse(c.deltas.begin(), c.deltas.end());
    bool poisoned = false;
    if (tree_.leaf_count() > 1) {
      const NodeId last = tree_.last_leaf();
      c.has_balance = true;
      c.promoted_leaf_mod = fresh();
      c.has_step2 = c.leaf != last && c.leaf != last - 1;
      if (c.has_step2) {
        c.t_new_link = fresh();
        c.t_new_leaf_mod = fresh();
      }
      poisoned = maybe_poison(c.has_step2 && pick(2) == 0
                                  ? c.t_new_link
                                  : c.promoted_leaf_mod);
    }
    expect_outcome(tree_.apply_delete(c), poisoned);
  }

  void erase_many() {
    const std::size_t n = tree_.leaf_count();
    const std::size_t m = 1 + pick(std::min<std::size_t>(n, 8));
    std::set<NodeId> chosen;
    while (chosen.size() < m) {
      chosen.insert(n - 1 + pick(n));
    }
    DeleteManyCommit c;
    c.leaves.assign(chosen.begin(), chosen.end());
    for (NodeId node : merged_cut_nodes(tree_.node_count(), c.leaves)) {
      c.deltas.push_back(delta_for(node));
    }
    const BulkGeometry geo = bulk_geometry(tree_.node_count(), c.leaves);
    for (NodeId h : geo.holes) {
      DeleteManyCommit::Reloc rl;
      rl.new_leaf_mod = fresh();
      rl.has_new_link = chosen.contains(h);
      if (rl.has_new_link) rl.new_link = fresh();
      c.relocs.push_back(rl);
    }
    bool poisoned = false;
    if (!c.relocs.empty()) {
      poisoned = maybe_poison(c.relocs[pick(c.relocs.size())].new_leaf_mod);
    }
    expect_outcome(tree_.apply_delete_many(c), poisoned);
  }

  void insert() {
    InsertCommit c;
    bool poisoned = false;
    if (tree_.empty()) {
      c.empty_tree = true;
      c.root_leaf_mod = fresh();
    } else {
      c.q = tree_.insert_parent();
      c.left_link = fresh();
      c.right_link = fresh();
      c.moved_leaf_mod = fresh();
      c.new_leaf_mod = fresh();
      poisoned = maybe_poison(pick(2) == 0 ? c.left_link : c.new_leaf_mod);
    }
    expect_outcome(tree_.apply_insert(c, /*item_slot=*/0), poisoned);
  }

  void reload() {
    proto::Writer w;
    tree_.serialize(w);
    proto::Reader r(w.data());
    auto restored = ModulationTree::deserialize(
        r, ModulationTree::Config{HashAlg::kSha1, true});
    ASSERT_TRUE(restored.is_ok());
    tree_ = std::move(restored.value());
  }

  DeterministicRandom rnd_;
  ModulationTree tree_;
  std::set<Md> seen_;  // every value the tree has held
};

TEST(Tree, DuplicateIndexTracksMutations) {
  const auto run = [](std::size_t n, std::size_t steps) {
    DupIndexModel model(n, 1000 + n);
    model.check();
    for (std::size_t i = 0; i < steps; ++i) {
      model.step();
      ASSERT_NO_FATAL_FAILURE(model.check())
          << "n = " << n << ", step " << i;
    }
  };
  for (std::size_t n = 1; n <= 64; ++n) {
    run(n, 60);
  }
  for (std::size_t n : {257u, 1000u, 4096u}) {
    run(n, 40);
  }
}

TEST(Tree, AccessorsRejectBadNodes) {
  DeterministicRandom rnd(11);
  const auto tree = make_tree(4, rnd);
  EXPECT_THROW(tree.link_mod(0), std::out_of_range);     // root has no link
  EXPECT_THROW(tree.link_mod(100), std::out_of_range);
  EXPECT_THROW(tree.leaf_mod(0), std::out_of_range);     // internal node
  EXPECT_THROW(tree.path_to(100), std::out_of_range);
  EXPECT_THROW(tree.cut_for(0), std::out_of_range);
}

TEST(Tree, SerializedSizeIsLinear) {
  DeterministicRandom rnd(12);
  const auto small = make_tree(10, rnd);
  const auto big = make_tree(100, rnd);
  // 2n-1 links (minus root) * 20 + n * 28 + header.
  EXPECT_GT(big.serialized_size(), 9 * small.serialized_size() / 2);
  EXPECT_LT(big.serialized_size(), 11 * small.serialized_size());
}

}  // namespace
}  // namespace fgad::core
