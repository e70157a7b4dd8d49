#include "core/client_math.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/bulk_geometry.h"

namespace fgad::core {

namespace {

// A node may carry both a link modulator (edge from its parent) and a leaf
// modulator; the ledger tracks them apart.
enum class Kind : std::uint8_t { kLink, kLeaf };

// One modulator ledger for both delete verifiers. A delete bundle mentions
// O(m log n) modulators (m = 1 for the single delete), many of them several
// times (overlapping root paths). Per-slot consistency goes through a small
// open-addressed node map that grows with the nodes mentioned, never sized
// by the tree; pairwise distinctness sorts the distinct values by a 64-bit
// prehash so full value compares happen only within hash-equal runs.
class ModLedger {
 public:
  // A single delete mentions about 3 * depth nodes, so it fits without
  // growing for trees up to ~2^20 leaves; bulk bundles grow.
  static constexpr std::size_t kInitialNodes = 128;
  ModLedger() : nodes_(kInitialNodes) { unique_.reserve(kInitialNodes / 2); }

  // Records `value` for the slot; fails if the slot was already seen with
  // a conflicting value (a self-inconsistent server response).
  Status add(NodeId node, Kind kind, const Md& value) {
    NodeMods& e = find_or_insert(node);
    const Md*& seen = kind == Kind::kLeaf ? e.leaf : e.link;
    if (seen == nullptr) {
      seen = &value;
      unique_.push_back(&value);
      return Status::ok();
    }
    if (*seen != value) {
      return Status(Errc::kTamperDetected,
                    "delete info: node reported with conflicting modulators");
    }
    return Status::ok();  // consistent duplicate mention
  }

  // Pairwise distinctness across every distinct slot's value; `what`
  // is the error message.
  Status check_distinct(const char* what) const {
    std::vector<std::pair<std::uint64_t, const Md*>> by_hash;
    by_hash.reserve(unique_.size());
    const Md::Hasher hash;
    for (const Md* v : unique_) {
      by_hash.emplace_back(hash(*v), v);
    }
    std::sort(by_hash.begin(), by_hash.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                return *a.second < *b.second;
              });
    for (std::size_t i = 1; i < by_hash.size(); ++i) {
      if (by_hash[i].first == by_hash[i - 1].first &&
          *by_hash[i].second == *by_hash[i - 1].second) {
        return Status(Errc::kDuplicateModulator, what);
      }
    }
    return Status::ok();
  }

 private:
  struct NodeMods {
    NodeId node = kNoNode;
    const Md* link = nullptr;  // first recorded value per slot
    const Md* leaf = nullptr;
    bool empty() const { return link == nullptr && leaf == nullptr; }
  };

  // Fibonacci hashing spreads the structured ids of root paths.
  std::size_t home(NodeId node) const {
    return static_cast<std::size_t>((node * 0x9e3779b97f4a7c15ull) >> 32) &
           (nodes_.size() - 1);
  }

  NodeMods& find_or_insert(NodeId node) {
    if (2 * (used_ + 1) > nodes_.size()) {
      grow();
    }
    const std::size_t mask = nodes_.size() - 1;
    for (std::size_t i = home(node);; i = (i + 1) & mask) {
      NodeMods& e = nodes_[i];
      if (e.empty()) {
        e.node = node;
        ++used_;
        return e;
      }
      if (e.node == node) {
        return e;
      }
    }
  }

  void grow() {
    std::vector<NodeMods> old(2 * nodes_.size());
    old.swap(nodes_);
    const std::size_t mask = nodes_.size() - 1;
    for (const NodeMods& e : old) {
      if (e.empty()) continue;
      std::size_t i = home(e.node);
      while (!nodes_[i].empty()) {
        i = (i + 1) & mask;
      }
      nodes_[i] = e;
    }
  }

  std::vector<NodeMods> nodes_;  // power-of-two capacity, load <= 1/2
  std::size_t used_ = 0;         // occupied entries
  std::vector<const Md*> unique_;  // distinct slots, in mention order
};

}  // namespace

ModList ClientMath::mods_of(const PathView& path, const Md& leaf_mod) {
  ModList mods = path.links;
  mods.push_back(leaf_mod);
  return mods;
}

Md ClientMath::derive_key(const Md& master, const PathView& path,
                          const Md& leaf_mod) const {
  Md cur = master;
  for (const Md& x : path.links) {
    cur = chain_.step(cur, x);
  }
  return chain_.step(cur, leaf_mod);
}

Status ClientMath::verify_delete_info(const DeleteInfo& info) const {
  const std::size_t w = width();
  if (!info.path.well_formed()) {
    return Status(Errc::kTamperDetected, "delete info: malformed path");
  }
  if (info.cut.size() != info.path.depth()) {
    return Status(Errc::kTamperDetected, "delete info: cut size mismatch");
  }
  if (info.leaf_mod.size() != w) {
    return Status(Errc::kTamperDetected, "delete info: bad leaf modulator");
  }

  ModLedger ledger;
  for (std::size_t i = 0; i + 1 < info.path.nodes.size(); ++i) {
    if (info.path.links[i].size() != w) {
      return Status(Errc::kTamperDetected, "delete info: bad link width");
    }
    if (auto st = ledger.add(info.path.nodes[i + 1], Kind::kLink,
                             info.path.links[i]);
        !st) {
      return st;
    }
  }
  if (auto st = ledger.add(info.path.target(), Kind::kLeaf, info.leaf_mod);
      !st) {
    return st;
  }
  for (std::size_t i = 0; i < info.cut.size(); ++i) {
    const CutEntry& e = info.cut[i];
    if (e.node != sibling_of(info.path.nodes[i + 1])) {
      return Status(Errc::kTamperDetected, "delete info: cut geometry wrong");
    }
    if (e.link.size() != w || (e.is_leaf && e.leaf_mod.size() != w)) {
      return Status(Errc::kTamperDetected, "delete info: bad cut modulator");
    }
    if (auto st = ledger.add(e.node, Kind::kLink, e.link); !st) {
      return st;
    }
    if (e.is_leaf) {
      if (auto st = ledger.add(e.node, Kind::kLeaf, e.leaf_mod); !st) {
        return st;
      }
    }
  }

  if (info.has_balance) {
    if (!info.t_path.well_formed() || info.t_path.depth() == 0) {
      return Status(Errc::kTamperDetected,
                    "delete info: malformed balancing path");
    }
    if (info.t_leaf_mod.size() != w || info.s_link.size() != w ||
        info.s_leaf_mod.size() != w) {
      return Status(Errc::kTamperDetected,
                    "delete info: bad balancing modulators");
    }
    for (std::size_t i = 0; i + 1 < info.t_path.nodes.size(); ++i) {
      if (info.t_path.links[i].size() != w) {
        return Status(Errc::kTamperDetected, "delete info: bad link width");
      }
      if (auto st = ledger.add(info.t_path.nodes[i + 1], Kind::kLink,
                               info.t_path.links[i]);
          !st) {
        return st;
      }
    }
    const NodeId t = info.t_path.target();
    const NodeId s = sibling_of(t);
    if (auto st = ledger.add(t, Kind::kLeaf, info.t_leaf_mod); !st) {
      return st;
    }
    if (auto st = ledger.add(s, Kind::kLink, info.s_link); !st) {
      return st;
    }
    if (auto st = ledger.add(s, Kind::kLeaf, info.s_leaf_mod); !st) {
      return st;
    }
  }

  // The paper's client check: all modulators in MT(k) must be pairwise
  // distinct; a server that clones a path to keep a deleted key derivable
  // necessarily produces a duplicate (Theorem 2, case ii).
  return ledger.check_distinct(
      "delete info: modulators are not pairwise distinct");
}

Result<ClientMath::DeletePlan> ClientMath::plan_delete(
    const DeleteInfo& info, const Md& master_old, const Md& master_new,
    crypto::RandomSource& rnd) const {
  if (auto st = verify_delete_info(info); !st) {
    return Error(st.error());
  }
  if (master_old.size() != width() || master_new.size() != width()) {
    return Error(Errc::kInvalidArgument, "plan_delete: bad master key width");
  }

  const std::size_t l = info.path.depth();
  const std::vector<Md> pre_old = chain_.prefixes(master_old, info.path.links);
  const std::vector<Md> pre_new = chain_.prefixes(master_new, info.path.links);

  DeletePlan plan;
  plan.old_key = chain_.step(pre_old[l], info.leaf_mod);

  // The paper's footnote to Theorem 2: if by (astronomically unlikely)
  // coincidence F(K', M_k) == F(K, M_k), the client must pick another K'.
  if (chain_.step(pre_new[l], info.leaf_mod) == plan.old_key) {
    return Error(Errc::kInvalidArgument,
                 "plan_delete: new master key collides; pick another");
  }

  DeleteCommit& commit = plan.commit;
  commit.leaf = info.path.target();
  commit.deltas.reserve(l);
  for (std::size_t i = 0; i < l; ++i) {
    // M_c = <x_1 .. x_i-1, y_i>: the path prefix plus the cut link (Eq. 5).
    const Md& y = info.cut[i].link;
    Md delta = chain_.step(pre_old[i], y);
    delta ^= chain_.step(pre_new[i], y);
    commit.deltas.push_back(delta);
  }

  if (!info.has_balance) {
    return plan;
  }
  commit.has_balance = true;

  // delta(c) for a cut node c, or null: the verified cut holds one node
  // per depth, cut[i] at depth i + 1, so membership is one compare.
  const auto delta_of = [&](NodeId c) -> const Md* {
    const std::size_t dep = depth_of(c);
    if (dep == 0 || dep > l || info.cut[dep - 1].node != c) {
      return nullptr;
    }
    return &commit.deltas[dep - 1];
  };
  // Post-adjustment value of a modulator: XOR in delta(v) if v is a cut
  // node. For the link on edge (parent, child) pass v = parent: Eq. (6)
  // XORs delta(parent) into both child links of every internal cut node.
  // For a leaf modulator pass v = the leaf: Eq. (7), a cut leaf absorbs its
  // own delta.
  const auto post_mod = [&](NodeId v, const Md& mod) {
    const Md* delta = delta_of(v);
    if (delta == nullptr) {
      return mod;
    }
    Md out = mod;
    out ^= *delta;
    return out;
  };

  // Walk P(t) in the post-adjustment state under K'. By the cancellation
  // property (Lemma 1 applied along the unique cut crossing), these prefix
  // values equal the pre-adjustment ones under K below the cut, which is
  // exactly what Eqs. (8)-(9) rely on.
  const PathView& tp = info.t_path;
  const std::size_t j = tp.depth();
  std::vector<Md> tpre(j + 1);
  tpre[0] = master_new;
  for (std::size_t i = 0; i < j; ++i) {
    tpre[i + 1] =
        chain_.step(tpre[i], post_mod(tp.nodes[i], tp.links[i]));
  }
  const Md& prefix_p = tpre[j - 1];  // F(K', M_p), p = parent of t
  const Md& prefix_t = tpre[j];      // F(K', M_p + <x_{p,t}>)

  const NodeId k = info.path.target();
  const NodeId t = tp.target();
  const NodeId s = sibling_of(t);
  const NodeId p = parent_of(t);

  const Md t_leaf_post = post_mod(t, info.t_leaf_mod);
  const Md s_link_post = post_mod(p, info.s_link);
  const Md s_leaf_post = post_mod(s, info.s_leaf_mod);

  // Balancing Step 1 (Eq. 8): promote the surviving sibling of the last
  // pair into the parent slot, folding the removed link into its leaf
  // modulator so its data key is unchanged.
  if (k == t) {
    // The deleted leaf is t itself; s survives.
    Md promoted = prefix_p;
    promoted ^= chain_.step(prefix_p, s_link_post);
    promoted ^= s_leaf_post;
    commit.promoted_leaf_mod = promoted;
    return plan;
  }
  if (k == s) {
    // The deleted leaf is t's sibling; t survives and is promoted.
    Md promoted = prefix_p;
    promoted ^= prefix_t;
    promoted ^= t_leaf_post;
    commit.promoted_leaf_mod = promoted;
    return plan;
  }

  // General case: s is promoted (Step 1) and t is re-homed into k's slot
  // with a fresh link modulator (Step 2, Eq. 9).
  {
    Md promoted = prefix_p;
    promoted ^= chain_.step(prefix_p, s_link_post);
    promoted ^= s_leaf_post;
    commit.promoted_leaf_mod = promoted;
  }
  commit.has_step2 = true;
  // Fresh random link modulator for (parent(k), t), then Eq. 9: the new
  // leaf modulator that preserves t's data key at its new position. The
  // prefix to parent(k) under K' is pre_new[l-1]; P(k)'s own links are never
  // delta-adjusted (cut nodes hang off the path), so no post-transform is
  // needed there.
  commit.t_new_link = rnd.random_md(width());
  const Md b_prime = chain_.step(pre_new[l - 1], commit.t_new_link);
  Md t_new_leaf = b_prime;
  t_new_leaf ^= prefix_t;
  t_new_leaf ^= t_leaf_post;
  commit.t_new_leaf_mod = t_new_leaf;
  return plan;
}

Status ClientMath::verify_delete_many_info(const DeleteManyInfo& info) const {
  const std::size_t w = width();
  const std::size_t m = info.targets.size();
  const std::uint64_t nc = info.node_count;
  if (m == 0) {
    return Status(Errc::kTamperDetected, "delete many info: no targets");
  }
  if (nc == 0 || nc % 2 == 0) {
    return Status(Errc::kTamperDetected, "delete many info: bad node count");
  }
  if (m > leaf_count_of(nc)) {
    return Status(Errc::kTamperDetected,
                  "delete many info: more targets than leaves");
  }

  ModLedger ledger;
  const auto put_path = [&](const PathView& path) -> Status {
    for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
      if (path.links[i].size() != w) {
        return Status(Errc::kTamperDetected,
                      "delete many info: bad link width");
      }
      if (auto st = ledger.add(path.nodes[i + 1], Kind::kLink, path.links[i]);
          !st) {
        return st;
      }
    }
    return Status::ok();
  };

  std::vector<NodeId> leaves;
  leaves.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const DeleteManyInfo::Target& t = info.targets[i];
    const NodeId d = t.path.well_formed() ? t.path.target() : kNoNode;
    if (d == kNoNode || !is_leaf_in(d, nc) || d >= nc) {
      return Status(Errc::kTamperDetected,
                    "delete many info: malformed target path");
    }
    if (i > 0 && d <= leaves.back()) {
      return Status(Errc::kTamperDetected,
                    "delete many info: targets not strictly ascending");
    }
    if (t.leaf_mod.size() != w) {
      return Status(Errc::kTamperDetected,
                    "delete many info: bad leaf modulator");
    }
    if (auto st = put_path(t.path); !st) {
      return st;
    }
    if (auto st = ledger.add(d, Kind::kLeaf, t.leaf_mod); !st) {
      return st;
    }
    leaves.push_back(d);
  }

  // The client recomputes the merged cut itself; the server's entries must
  // match it node for node.
  const std::vector<NodeId> expect_cut = merged_cut_nodes(nc, leaves);
  if (info.cut.size() != expect_cut.size()) {
    return Status(Errc::kTamperDetected, "delete many info: cut size mismatch");
  }
  for (std::size_t i = 0; i < info.cut.size(); ++i) {
    const CutEntry& e = info.cut[i];
    if (e.node != expect_cut[i] || e.is_leaf != is_leaf_in(e.node, nc)) {
      return Status(Errc::kTamperDetected,
                    "delete many info: cut geometry wrong");
    }
    if (e.link.size() != w || (e.is_leaf && e.leaf_mod.size() != w)) {
      return Status(Errc::kTamperDetected,
                    "delete many info: bad cut modulator");
    }
    if (auto st = ledger.add(e.node, Kind::kLink, e.link); !st) {
      return st;
    }
    if (e.is_leaf) {
      if (auto st = ledger.add(e.node, Kind::kLeaf, e.leaf_mod); !st) {
        return st;
      }
    }
  }

  // Relocation geometry: holes that are not deleted slots need their own
  // paths; every mover needs path + leaf modulator, in ascending order.
  const BulkGeometry geo = bulk_geometry(nc, leaves);
  std::vector<NodeId> expect_holes;
  for (NodeId h : geo.holes) {
    if (!std::binary_search(leaves.begin(), leaves.end(), h)) {
      expect_holes.push_back(h);
    }
  }
  if (info.hole_paths.size() != expect_holes.size()) {
    return Status(Errc::kTamperDetected,
                  "delete many info: hole path count mismatch");
  }
  for (std::size_t i = 0; i < expect_holes.size(); ++i) {
    const PathView& path = info.hole_paths[i];
    if (!path.well_formed() || path.target() != expect_holes[i]) {
      return Status(Errc::kTamperDetected,
                    "delete many info: malformed hole path");
    }
    if (auto st = put_path(path); !st) {
      return st;
    }
  }
  if (info.movers.size() != geo.movers.size()) {
    return Status(Errc::kTamperDetected,
                  "delete many info: mover count mismatch");
  }
  for (std::size_t i = 0; i < geo.movers.size(); ++i) {
    const DeleteManyInfo::Mover& mv = info.movers[i];
    if (!mv.path.well_formed() || mv.path.target() != geo.movers[i]) {
      return Status(Errc::kTamperDetected,
                    "delete many info: malformed mover path");
    }
    if (mv.leaf_mod.size() != w) {
      return Status(Errc::kTamperDetected,
                    "delete many info: bad mover leaf modulator");
    }
    if (auto st = put_path(mv.path); !st) {
      return st;
    }
    if (auto st = ledger.add(geo.movers[i], Kind::kLeaf, mv.leaf_mod); !st) {
      return st;
    }
  }

  // Per-slot consistency was enforced on every add; what remains is
  // pairwise distinctness across the whole bundle (Theorem 2's client
  // check, applied to the union of all supplied branches).
  return ledger.check_distinct(
      "delete many info: modulators are not pairwise distinct");
}

Result<ClientMath::DeleteManyPlan> ClientMath::plan_delete_many(
    const DeleteManyInfo& info, const Md& master_old, const Md& master_new,
    crypto::RandomSource& rnd, ThreadPool* pool) const {
  if (auto st = verify_delete_many_info(info); !st) {
    return Error(st.error());
  }
  if (master_old.size() != width() || master_new.size() != width()) {
    return Error(Errc::kInvalidArgument,
                 "plan_delete_many: bad master key width");
  }

  std::vector<NodeId> leaves;
  leaves.reserve(info.targets.size());
  for (const DeleteManyInfo::Target& t : info.targets) {
    leaves.push_back(t.path.target());
  }

  // Link modulator of every node mentioned anywhere in the bundle (verify
  // already proved consistency across overlapping branches). Sized up
  // front: rehashing a map this large costs more than the hashing below.
  const std::size_t mention_bound =
      (info.targets.size() + info.hole_paths.size() + info.movers.size()) *
          (depth_of(static_cast<NodeId>(info.node_count - 1)) + 1) +
      info.cut.size();
  std::unordered_map<NodeId, Md> link_of;
  link_of.reserve(mention_bound);
  const auto absorb_path = [&](const PathView& path) {
    for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
      link_of.emplace(path.nodes[i + 1], path.links[i]);
    }
  };
  for (const DeleteManyInfo::Target& t : info.targets) {
    absorb_path(t.path);
  }
  for (const PathView& p : info.hole_paths) {
    absorb_path(p);
  }
  for (const DeleteManyInfo::Mover& mv : info.movers) {
    absorb_path(mv.path);
  }
  for (const CutEntry& e : info.cut) {
    link_of.emplace(e.node, e.link);
  }

  // Memoized pre-adjustment prefixes. Queried only at nodes on deleted
  // leaves' paths (A-nodes), whose edges are never delta-adjusted, so the
  // raw links are correct under both keys.
  std::unordered_map<NodeId, Md> pre_old_of{{root_id(), master_old}};
  std::unordered_map<NodeId, Md> pre_new_of{{root_id(), master_new}};
  pre_old_of.reserve(mention_bound);
  pre_new_of.reserve(mention_bound);
  const auto plain_prefix = [&](std::unordered_map<NodeId, Md>& memo,
                                NodeId v) -> Md {
    std::vector<NodeId> pending;
    NodeId cur = v;
    while (!memo.contains(cur)) {
      pending.push_back(cur);
      cur = parent_of(cur);
    }
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
      const Md step = chain_.step(memo.at(parent_of(*it)), link_of.at(*it));
      memo.emplace(*it, step);
    }
    return memo.at(v);
  };

  DeleteManyPlan plan;
  plan.old_keys.reserve(info.targets.size());
  DeleteManyCommit& commit = plan.commit;
  commit.leaves = leaves;

  // Per-item wrong-leaf check (the paper's footnote to Theorem 2, applied
  // to every target): one shared K' must miss ALL m targets.
  for (const DeleteManyInfo::Target& t : info.targets) {
    const NodeId d = t.path.target();
    const Md old_key = chain_.step(plain_prefix(pre_old_of, d), t.leaf_mod);
    if (chain_.step(plain_prefix(pre_new_of, d), t.leaf_mod) == old_key) {
      return Error(Errc::kInvalidArgument,
                   "plan_delete_many: new master key collides; pick another");
    }
    plan.old_keys.push_back(old_key);
  }

  // One delta per merged-cut node (Eq. 5 with M_c = path prefix to
  // parent(c) plus the cut link). parent(c) is always an A-node. The
  // prefix walks share the memo tables and stay sequential; the two chain
  // steps per cut node are independent of each other, so with a pool they
  // fan out across workers (each worker gets its own hash context — the
  // EVP context inside ModulatedHashChain is not shareable).
  struct CutPrefix {
    Md pre_old;
    Md pre_new;
  };
  std::vector<CutPrefix> cut_prefix;
  cut_prefix.reserve(info.cut.size());
  for (const CutEntry& e : info.cut) {
    const NodeId p = parent_of(e.node);
    cut_prefix.push_back(
        CutPrefix{plain_prefix(pre_old_of, p), plain_prefix(pre_new_of, p)});
  }
  commit.deltas.resize(info.cut.size());
  const auto delta_range = [&](std::size_t begin, std::size_t end,
                               const ModulatedHashChain& chain) {
    for (std::size_t i = begin; i < end; ++i) {
      Md delta = chain.step(cut_prefix[i].pre_old, info.cut[i].link);
      delta ^= chain.step(cut_prefix[i].pre_new, info.cut[i].link);
      commit.deltas[i] = delta;
    }
  };
  if (pool != nullptr && pool->size() > 1 && info.cut.size() >= 64) {
    std::vector<ModulatedHashChain> chains;
    chains.reserve(pool->size());
    for (std::size_t i = 0; i < pool->size(); ++i) {
      chains.emplace_back(alg());
    }
    pool->parallel_for(info.cut.size(), /*grain=*/32,
                       [&](std::size_t begin, std::size_t end,
                           std::size_t worker) {
                         delta_range(begin, end, chains[worker]);
                       });
  } else {
    delta_range(0, info.cut.size(), chain_);
  }
  std::unordered_map<NodeId, Md> delta_of;
  delta_of.reserve(info.cut.size());
  for (std::size_t i = 0; i < info.cut.size(); ++i) {
    delta_of.emplace(info.cut[i].node, commit.deltas[i]);
  }

  // Post-adjustment transforms, as in plan_delete: an edge changed iff its
  // upper endpoint is an internal cut node; a cut leaf absorbs its delta.
  const auto post_link = [&](NodeId parent, const Md& link) {
    auto it = delta_of.find(parent);
    if (it == delta_of.end()) {
      return link;
    }
    Md v = link;
    v ^= it->second;
    return v;
  };
  const auto post_leaf = [&](NodeId leaf, const Md& mod) {
    auto it = delta_of.find(leaf);
    if (it == delta_of.end()) {
      return mod;
    }
    Md v = mod;
    v ^= it->second;
    return v;
  };

  // Post-adjustment prefixes under K' (the state every relocation formula
  // is evaluated in). By the single-cut-crossing cancellation these equal
  // the pre-adjustment values under K below each surviving leaf's cut node.
  std::unordered_map<NodeId, Md> post_new_of{{root_id(), master_new}};
  post_new_of.reserve(mention_bound);
  const auto post_prefix = [&](NodeId v) -> Md {
    std::vector<NodeId> pending;
    NodeId cur = v;
    while (!post_new_of.contains(cur)) {
      pending.push_back(cur);
      cur = parent_of(cur);
    }
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
      const NodeId p = parent_of(*it);
      const Md step =
          chain_.step(post_new_of.at(p), post_link(p, link_of.at(*it)));
      post_new_of.emplace(*it, step);
    }
    return post_new_of.at(v);
  };

  // Relocations: refill hole i with mover i. A hole that is a deleted slot
  // gets a fresh random link (Eq. 9 pattern); a formerly internal hole
  // keeps its existing (possibly delta-adjusted) link (Eq. 8 pattern).
  // Either way the mover's data key is preserved:
  //   H(target_prefix ^ new_leaf_mod) = H(mover_prefix ^ mover_leaf_post).
  const BulkGeometry geo = bulk_geometry(info.node_count, leaves);
  commit.relocs.reserve(geo.holes.size());
  for (std::size_t i = 0; i < geo.holes.size(); ++i) {
    const NodeId h = geo.holes[i];
    const NodeId v = geo.movers[i];
    const Md mover_prefix = post_prefix(v);
    const Md mover_leaf_post = post_leaf(v, info.movers[i].leaf_mod);
    DeleteManyCommit::Reloc rl;
    Md target_prefix;
    if (std::binary_search(leaves.begin(), leaves.end(), h)) {
      rl.has_new_link = true;
      rl.new_link = rnd.random_md(width());
      target_prefix = chain_.step(post_prefix(parent_of(h)), rl.new_link);
    } else {
      target_prefix = post_prefix(h);
    }
    Md new_mod = target_prefix;
    new_mod ^= mover_prefix;
    new_mod ^= mover_leaf_post;
    rl.new_leaf_mod = new_mod;
    commit.relocs.push_back(std::move(rl));
  }
  return plan;
}

Result<ClientMath::InsertPlan> ClientMath::plan_insert(
    const InsertInfo& info, const Md& master,
    crypto::RandomSource& rnd) const {
  const std::size_t w = width();
  if (master.size() != w) {
    return Error(Errc::kInvalidArgument, "plan_insert: bad master key width");
  }
  InsertPlan plan;
  if (info.empty_tree) {
    plan.commit.empty_tree = true;
    plan.commit.root_leaf_mod = rnd.random_md(w);
    plan.item_key = chain_.step(master, plan.commit.root_leaf_mod);
    return plan;
  }
  if (!info.q_path.well_formed()) {
    return Error(Errc::kTamperDetected, "insert info: malformed path");
  }
  if (info.q_leaf_mod.size() != w) {
    return Error(Errc::kTamperDetected, "insert info: bad leaf modulator");
  }
  for (const Md& x : info.q_path.links) {
    if (x.size() != w) {
      return Error(Errc::kTamperDetected, "insert info: bad link width");
    }
  }

  InsertCommit& c = plan.commit;
  c.q = info.q_path.target();
  c.left_link = rnd.random_md(w);
  c.right_link = rnd.random_md(w);
  c.new_leaf_mod = rnd.random_md(w);

  // A = F(K, M_q minus the leaf modulator).
  const Md a = chain_.eval(master, info.q_path.links);
  // Keep q's data key unchanged after it moves under the new internal node:
  // x_t'' = F(K, M^-) ^ F(K, M^- + <x_left>) ^ x_t  (Section IV-E).
  Md moved = a;
  moved ^= chain_.step(a, c.left_link);
  moved ^= info.q_leaf_mod;
  c.moved_leaf_mod = moved;

  // Data key of the new leaf e.
  plan.item_key = chain_.step(chain_.step(a, c.right_link), c.new_leaf_mod);
  return plan;
}

std::vector<Md> ClientMath::derive_all_keys(const Md& master,
                                            std::span<const Md> link_mods,
                                            std::span<const Md> leaf_mods) const {
  const std::size_t nodes = link_mods.size();
  const std::size_t n = leaf_count_of(nodes);
  std::vector<Md> keys;
  if (nodes == 0) {
    return keys;
  }
  // Heap order is topological: every parent index precedes its children, so
  // one linear pass computes F(K, prefix) for all nodes, hashing each node
  // exactly once (2n-1 hashes for n keys instead of n log n).
  std::vector<Md> prefix(nodes);
  prefix[0] = master;
  for (NodeId v = 1; v < nodes; ++v) {
    prefix[v] = chain_.step(prefix[parent_of(v)], link_mods[v]);
  }
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(chain_.step(prefix[n - 1 + i], leaf_mods[i]));
  }
  return keys;
}

}  // namespace fgad::core
