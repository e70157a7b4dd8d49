#include "core/tree.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "core/bulk_geometry.h"
#include "obs/metrics.h"

namespace fgad::core {

using crypto::Md;

ModulationTree::ModulationTree(Config cfg)
    : cfg_(cfg), width_(crypto::digest_size(cfg.alg)) {}

const Md& ModulationTree::link_mod(NodeId v) const {
  if (!valid_node(v) || is_root(v)) {
    throw std::out_of_range("ModulationTree::link_mod: bad node");
  }
  return link_[v];
}

const Md& ModulationTree::leaf_mod(NodeId v) const {
  return leaf_rec(v).leaf_mod;
}

std::uint64_t ModulationTree::item_slot(NodeId v) const {
  return leaf_rec(v).item_slot;
}

NodeId ModulationTree::insert_parent() const {
  if (empty()) {
    throw std::logic_error("ModulationTree::insert_parent: empty tree");
  }
  return static_cast<NodeId>((node_count() - 1) / 2);
}

const ModulationTree::LeafRec& ModulationTree::leaf_rec(NodeId v) const {
  if (!is_leaf(v) || leaf_ref_[v] == kNoLeafRef) {
    throw std::out_of_range("ModulationTree::leaf_rec: not a leaf");
  }
  return leaves_[leaf_ref_[v]];
}

ModulationTree::LeafRec& ModulationTree::leaf_rec(NodeId v) {
  return const_cast<LeafRec&>(
      static_cast<const ModulationTree*>(this)->leaf_rec(v));
}

std::uint32_t ModulationTree::alloc_leaf_rec(Md mod, std::uint64_t item_slot) {
  if (!free_leaf_refs_.empty()) {
    const std::uint32_t ref = free_leaf_refs_.back();
    free_leaf_refs_.pop_back();
    leaves_[ref] = LeafRec{mod, item_slot};
    return ref;
  }
  leaves_.push_back(LeafRec{mod, item_slot});
  return static_cast<std::uint32_t>(leaves_.size() - 1);
}

void ModulationTree::free_leaf_rec(std::uint32_t ref) {
  leaves_[ref] = LeafRec{};
  free_leaf_refs_.push_back(ref);
}

void ModulationTree::dup_add(const Md& m) {
  if (cfg_.track_duplicates) {
    values_.insert(m);
  }
}

void ModulationTree::dup_remove(const Md& m) {
  if (cfg_.track_duplicates) {
    values_.erase(m);
  }
}

bool ModulationTree::dup_would_collide(const Md& m) const {
  return cfg_.track_duplicates && values_.count(m) != 0;
}

bool ModulationTree::contains_value(const Md& m) const {
  return values_.count(m) != 0;
}

void ModulationTree::xor_mod(Md& target, const Md& delta) {
  dup_remove(target);
  target ^= delta;
  dup_add(target);
}

void ModulationTree::build(
    std::size_t n_leaves, const std::function<Md(NodeId)>& link_gen,
    const std::function<std::pair<Md, std::uint64_t>(NodeId)>& leaf_gen) {
  link_.clear();
  leaf_ref_.clear();
  leaves_.clear();
  free_leaf_refs_.clear();
  values_.clear();
  if (n_leaves == 0) {
    return;
  }
  const std::size_t nodes = node_count_for(n_leaves);
  link_.resize(nodes);
  leaf_ref_.assign(nodes, kNoLeafRef);
  leaves_.reserve(n_leaves);
  for (NodeId v = 1; v < nodes; ++v) {
    link_[v] = link_gen(v);
    dup_add(link_[v]);
  }
  for (NodeId v = n_leaves - 1; v < nodes; ++v) {
    auto [mod, slot] = leaf_gen(v);
    dup_add(mod);
    leaf_ref_[v] = alloc_leaf_rec(mod, slot);
  }
}

PathView ModulationTree::path_to(NodeId v) const {
  if (!valid_node(v)) {
    throw std::out_of_range("ModulationTree::path_to: bad node");
  }
  PathView path;
  NodeId cur = v;
  while (!is_root(cur)) {
    path.nodes.push_back(cur);
    path.links.push_back(link_[cur]);
    cur = parent_of(cur);
  }
  path.nodes.push_back(root_id());
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

std::vector<CutEntry> ModulationTree::cut_for(NodeId k) const {
  if (!is_leaf(k)) {
    throw std::out_of_range("ModulationTree::cut_for: not a leaf");
  }
  // Collect path nodes below the root, then emit siblings top-down.
  std::vector<NodeId> below_root;
  for (NodeId cur = k; !is_root(cur); cur = parent_of(cur)) {
    below_root.push_back(cur);
  }
  std::reverse(below_root.begin(), below_root.end());
  std::vector<CutEntry> cut;
  cut.reserve(below_root.size());
  for (NodeId v : below_root) {
    const NodeId c = sibling_of(v);
    CutEntry e;
    e.node = c;
    e.link = link_[c];
    e.is_leaf = is_leaf(c);
    if (e.is_leaf) {
      e.leaf_mod = leaf_rec(c).leaf_mod;
    }
    cut.push_back(e);
  }
  return cut;
}

DeleteInfo ModulationTree::delete_info_for(NodeId k) const {
  if (!is_leaf(k)) {
    throw std::out_of_range("ModulationTree::delete_info_for: not a leaf");
  }
  DeleteInfo info;
  info.path = path_to(k);
  info.leaf_mod = leaf_rec(k).leaf_mod;
  info.cut = cut_for(k);
  if (leaf_count() > 1) {
    info.has_balance = true;
    const NodeId t = last_leaf();
    info.t_path = path_to(t);
    info.t_leaf_mod = leaf_rec(t).leaf_mod;
    const NodeId s = sibling_of(t);
    info.s_link = link_[s];
    info.s_leaf_mod = leaf_rec(s).leaf_mod;
  }
  return info;
}

std::vector<CutEntry> ModulationTree::cut_for_many(
    std::span<const NodeId> leaves) const {
  for (NodeId d : leaves) {
    if (!is_leaf(d)) {
      throw std::out_of_range("ModulationTree::cut_for_many: not a leaf");
    }
  }
  const std::vector<NodeId> nodes = merged_cut_nodes(node_count(), leaves);
  std::vector<CutEntry> cut;
  cut.reserve(nodes.size());
  for (NodeId c : nodes) {
    CutEntry e;
    e.node = c;
    e.link = link_[c];
    e.is_leaf = is_leaf(c);
    if (e.is_leaf) {
      e.leaf_mod = leaf_rec(c).leaf_mod;
    }
    cut.push_back(e);
  }
  return cut;
}

DeleteManyInfo ModulationTree::delete_many_info_for(
    std::span<const NodeId> leaves, ThreadPool* pool) const {
  DeleteManyInfo info;
  info.node_count = node_count();
  info.cut = cut_for_many(leaves);
  const BulkGeometry geo = bulk_geometry(node_count(), leaves);
  const std::unordered_set<NodeId> dset(leaves.begin(), leaves.end());
  std::vector<NodeId> survivor_holes;
  for (NodeId h : geo.holes) {
    if (!dset.contains(h)) {
      survivor_holes.push_back(h);
    }
  }
  // Path extraction is one independent tree walk per target/hole/mover —
  // at bulk sizes it dominates this function, so fan it out when a pool is
  // available (path_to and leaf_rec are read-only).
  info.targets.resize(leaves.size());
  info.hole_paths.resize(survivor_holes.size());
  info.movers.resize(geo.movers.size());
  const std::size_t total =
      leaves.size() + survivor_holes.size() + geo.movers.size();
  const auto fill_range = [&](std::size_t begin, std::size_t end,
                              std::size_t /*worker*/) {
    for (std::size_t i = begin; i < end; ++i) {
      if (i < leaves.size()) {
        DeleteManyInfo::Target& t = info.targets[i];
        t.path = path_to(leaves[i]);
        t.leaf_mod = leaf_rec(leaves[i]).leaf_mod;  // throws if not a leaf
      } else if (i < leaves.size() + survivor_holes.size()) {
        const std::size_t j = i - leaves.size();
        info.hole_paths[j] = path_to(survivor_holes[j]);
      } else {
        const std::size_t j = i - leaves.size() - survivor_holes.size();
        DeleteManyInfo::Mover& mv = info.movers[j];
        mv.path = path_to(geo.movers[j]);
        mv.leaf_mod = leaf_rec(geo.movers[j]).leaf_mod;
      }
    }
  };
  if (pool != nullptr && pool->size() > 1 && total >= 64) {
    pool->parallel_for(total, /*grain=*/16, fill_range);
  } else {
    fill_range(0, total, 0);
  }
  return info;
}

InsertInfo ModulationTree::insert_info() const {
  InsertInfo info;
  if (empty()) {
    info.empty_tree = true;
    return info;
  }
  const NodeId q = insert_parent();
  info.q_path = path_to(q);
  info.q_leaf_mod = leaf_rec(q).leaf_mod;
  return info;
}

Result<ModulationTree::DeleteOutcome> ModulationTree::apply_delete(
    const DeleteCommit& commit) {
  static obs::Counter& applies =
      obs::Registry::instance().counter("fgad_tree_apply_delete_total");
  static obs::Counter& balances =
      obs::Registry::instance().counter("fgad_tree_balance_total");
  static obs::Histogram& apply_ns =
      obs::Registry::instance().histogram("fgad_tree_apply_delete_ns");
  obs::ScopedTimer timer(apply_ns);
  applies.inc();
  if (commit.has_balance) {
    balances.inc();
  }
  const NodeId d = commit.leaf;
  if (!is_leaf(d)) {
    return Error(Errc::kInvalidArgument, "apply_delete: target is not a leaf");
  }
  const unsigned depth = depth_of(d);
  if (commit.deltas.size() != depth) {
    return Error(Errc::kInvalidArgument, "apply_delete: wrong delta count");
  }
  const bool expect_balance = leaf_count() > 1;
  if (commit.has_balance != expect_balance) {
    return Error(Errc::kInvalidArgument, "apply_delete: balance flag mismatch");
  }
  for (const Md& delta : commit.deltas) {
    if (delta.size() != width_) {
      return Error(Errc::kInvalidArgument, "apply_delete: bad delta width");
    }
  }

  const std::size_t nodes = node_count();
  const NodeId last = static_cast<NodeId>(nodes - 1);
  bool expect_step2 = false;
  if (expect_balance) {
    expect_step2 = (d != last && d != last - 1);
    if (commit.has_step2 != expect_step2) {
      return Error(Errc::kInvalidArgument, "apply_delete: step2 flag mismatch");
    }
    if (commit.promoted_leaf_mod.size() != width_) {
      return Error(Errc::kInvalidArgument,
                   "apply_delete: bad promoted leaf modulator");
    }
    if (expect_step2 && (commit.t_new_link.size() != width_ ||
                         commit.t_new_leaf_mod.size() != width_)) {
      return Error(Errc::kInvalidArgument,
                   "apply_delete: bad step-2 modulators");
    }
    // Best-effort duplicate pre-check on the client-supplied fresh values.
    // Delta-adjusted values are one-way-function outputs; a collision there
    // has probability ~2^-(8*width) and would be caught by the client's
    // MT(k) distinctness check on the next operation touching it.
    std::vector<const Md*> incoming{&commit.promoted_leaf_mod};
    if (expect_step2) {
      incoming.push_back(&commit.t_new_link);
      incoming.push_back(&commit.t_new_leaf_mod);
    }
    for (std::size_t i = 0; i < incoming.size(); ++i) {
      if (dup_would_collide(*incoming[i])) {
        return Error(Errc::kDuplicateModulator,
                     "apply_delete: commit modulator duplicates tree value");
      }
      for (std::size_t j = i + 1; j < incoming.size(); ++j) {
        if (*incoming[i] == *incoming[j]) {
          return Error(Errc::kDuplicateModulator,
                       "apply_delete: commit modulators not distinct");
        }
      }
    }
  }

  // Step A: modulator adjustment on the cut (Eqs. 6 and 7).
  {
    std::vector<NodeId> below_root;
    for (NodeId cur = d; !is_root(cur); cur = parent_of(cur)) {
      below_root.push_back(cur);
    }
    std::reverse(below_root.begin(), below_root.end());
    for (std::size_t i = 0; i < below_root.size(); ++i) {
      const NodeId c = sibling_of(below_root[i]);
      const Md& delta = commit.deltas[i];
      if (is_leaf(c)) {
        xor_mod(leaf_rec(c).leaf_mod, delta);
      } else {
        xor_mod(link_[left_child(c)], delta);
        xor_mod(link_[right_child(c)], delta);
      }
    }
  }

  DeleteOutcome outcome;
  outcome.removed_item_slot = leaf_rec(d).item_slot;

  // Step B: remove the deleted leaf and rebalance (Section IV-D).
  if (nodes == 1) {
    dup_remove(leaf_rec(d).leaf_mod);
    free_leaf_rec(leaf_ref_[d]);
    link_.clear();
    leaf_ref_.clear();
    return outcome;
  }

  const NodeId p_slot = parent_of(last);

  // Drop the deleted leaf's record.
  dup_remove(leaf_rec(d).leaf_mod);
  free_leaf_rec(leaf_ref_[d]);
  leaf_ref_[d] = kNoLeafRef;

  if (!expect_step2) {
    // The deleted leaf is t or t's sibling; the survivor is promoted into
    // the parent slot (balancing Step 1 only).
    const NodeId survivor = (d == last) ? last - 1 : last;
    const std::uint32_t ref = leaf_ref_[survivor];
    dup_remove(leaves_[ref].leaf_mod);
    leaves_[ref].leaf_mod = commit.promoted_leaf_mod;
    dup_add(leaves_[ref].leaf_mod);
    leaf_ref_[p_slot] = ref;
    outcome.moves.push_back(LeafMove{leaves_[ref].item_slot, p_slot});
  } else {
    // Step 1: promote s (= last-1) into the parent slot.
    const std::uint32_t ref_s = leaf_ref_[last - 1];
    dup_remove(leaves_[ref_s].leaf_mod);
    leaves_[ref_s].leaf_mod = commit.promoted_leaf_mod;
    dup_add(leaves_[ref_s].leaf_mod);
    leaf_ref_[p_slot] = ref_s;
    outcome.moves.push_back(LeafMove{leaves_[ref_s].item_slot, p_slot});

    // Step 2: move t (= last) into the deleted slot with a fresh link
    // modulator and the client-computed leaf modulator (Eq. 9).
    const std::uint32_t ref_t = leaf_ref_[last];
    dup_remove(leaves_[ref_t].leaf_mod);
    leaves_[ref_t].leaf_mod = commit.t_new_leaf_mod;
    dup_add(leaves_[ref_t].leaf_mod);
    leaf_ref_[d] = ref_t;
    dup_remove(link_[d]);
    link_[d] = commit.t_new_link;
    dup_add(link_[d]);
    outcome.moves.push_back(LeafMove{leaves_[ref_t].item_slot, d});
  }

  // Shrink away the last two slots.
  dup_remove(link_[last - 1]);
  dup_remove(link_[last]);
  link_.resize(nodes - 2);
  leaf_ref_.resize(nodes - 2);
  return outcome;
}

Result<ModulationTree::DeleteManyOutcome> ModulationTree::apply_delete_many(
    const DeleteManyCommit& commit) {
  static obs::Counter& applies =
      obs::Registry::instance().counter("fgad_tree_apply_delete_many_total");
  static obs::Counter& deleted =
      obs::Registry::instance().counter("fgad_tree_bulk_deleted_leaves_total");
  static obs::Histogram& apply_ns =
      obs::Registry::instance().histogram("fgad_tree_apply_delete_many_ns");
  obs::ScopedTimer timer(apply_ns);
  applies.inc();

  const std::vector<NodeId>& dl = commit.leaves;
  const std::size_t m = dl.size();
  if (m == 0) {
    return Error(Errc::kInvalidArgument, "apply_delete_many: empty leaf set");
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (!is_leaf(dl[i])) {
      return Error(Errc::kInvalidArgument,
                   "apply_delete_many: target is not a leaf");
    }
    if (i > 0 && dl[i] <= dl[i - 1]) {
      return Error(Errc::kInvalidArgument,
                   "apply_delete_many: leaves not strictly ascending");
    }
  }
  const std::size_t nodes = node_count();
  const std::vector<NodeId> cut = merged_cut_nodes(nodes, dl);
  if (commit.deltas.size() != cut.size()) {
    return Error(Errc::kInvalidArgument, "apply_delete_many: wrong delta count");
  }
  for (const Md& delta : commit.deltas) {
    if (delta.size() != width_) {
      return Error(Errc::kInvalidArgument, "apply_delete_many: bad delta width");
    }
  }
  const BulkGeometry geo = bulk_geometry(nodes, dl);
  if (commit.relocs.size() != geo.holes.size()) {
    return Error(Errc::kInvalidArgument,
                 "apply_delete_many: wrong relocation count");
  }
  const std::unordered_set<NodeId> dset(dl.begin(), dl.end());
  for (std::size_t i = 0; i < commit.relocs.size(); ++i) {
    const DeleteManyCommit::Reloc& rl = commit.relocs[i];
    if (rl.has_new_link != dset.contains(geo.holes[i])) {
      return Error(Errc::kInvalidArgument,
                   "apply_delete_many: relocation link flag mismatch");
    }
    if (rl.new_leaf_mod.size() != width_ ||
        (rl.has_new_link && rl.new_link.size() != width_)) {
      return Error(Errc::kInvalidArgument,
                   "apply_delete_many: bad relocation modulator width");
    }
  }
  // Best-effort duplicate pre-check on the client-supplied fresh values
  // (same contract as apply_delete: delta-adjusted collisions are ~2^-(8w)
  // and caught by the client's MT(k) distinctness check later).
  {
    std::vector<const Md*> incoming;
    incoming.reserve(2 * commit.relocs.size());
    for (const DeleteManyCommit::Reloc& rl : commit.relocs) {
      incoming.push_back(&rl.new_leaf_mod);
      if (rl.has_new_link) {
        incoming.push_back(&rl.new_link);
      }
    }
    std::unordered_set<Md, Md::Hasher> fresh;
    fresh.reserve(incoming.size());
    for (const Md* v : incoming) {
      if (dup_would_collide(*v)) {
        return Error(Errc::kDuplicateModulator,
                     "apply_delete_many: commit modulator duplicates tree value");
      }
      if (!fresh.insert(*v).second) {
        return Error(Errc::kDuplicateModulator,
                     "apply_delete_many: commit modulators not distinct");
      }
    }
  }

  // All checks passed; mutate. Step A: one delta per merged-cut node
  // (Eqs. 6-7 applied to the cut frontier).
  for (std::size_t i = 0; i < cut.size(); ++i) {
    const NodeId c = cut[i];
    const Md& delta = commit.deltas[i];
    if (is_leaf(c)) {
      xor_mod(leaf_rec(c).leaf_mod, delta);
    } else {
      xor_mod(link_[left_child(c)], delta);
      xor_mod(link_[right_child(c)], delta);
    }
  }

  // Step B: drop every deleted leaf's record.
  DeleteManyOutcome outcome;
  outcome.removed_item_slots.reserve(m);
  for (NodeId d : dl) {
    outcome.removed_item_slots.push_back(leaf_rec(d).item_slot);
    dup_remove(leaf_rec(d).leaf_mod);
    free_leaf_rec(leaf_ref_[d]);
    leaf_ref_[d] = kNoLeafRef;
  }
  deleted.inc(m);

  if (geo.new_node_count == 0) {
    link_.clear();
    leaf_ref_.clear();
    return outcome;
  }

  // Step C: relocate tail leaves into the holes (generalized IV-D).
  for (std::size_t i = 0; i < geo.holes.size(); ++i) {
    const NodeId h = geo.holes[i];
    const NodeId v = geo.movers[i];
    const DeleteManyCommit::Reloc& rl = commit.relocs[i];
    const std::uint32_t ref = leaf_ref_[v];
    dup_remove(leaves_[ref].leaf_mod);
    leaves_[ref].leaf_mod = rl.new_leaf_mod;
    dup_add(leaves_[ref].leaf_mod);
    leaf_ref_[h] = ref;
    leaf_ref_[v] = kNoLeafRef;
    if (rl.has_new_link) {
      dup_remove(link_[h]);
      link_[h] = rl.new_link;
      dup_add(link_[h]);
    }
    outcome.moves.push_back(LeafMove{leaves_[ref].item_slot, h});
    outcome.leaf_relocations.push_back(LeafReloc{v, h});
  }

  // Step D: chop the tail (chopped slots include formerly internal nodes
  // when the tree shrank below the old leaf line).
  for (NodeId v = geo.new_node_count; v < nodes; ++v) {
    dup_remove(link_[v]);
  }
  link_.resize(geo.new_node_count);
  leaf_ref_.resize(geo.new_node_count);
  return outcome;
}

Result<ModulationTree::InsertOutcome> ModulationTree::apply_insert(
    const InsertCommit& commit, std::uint64_t item_slot) {
  static obs::Counter& applies =
      obs::Registry::instance().counter("fgad_tree_apply_insert_total");
  static obs::Histogram& apply_ns =
      obs::Registry::instance().histogram("fgad_tree_apply_insert_ns");
  obs::ScopedTimer timer(apply_ns);
  applies.inc();
  if (commit.empty_tree) {
    if (!empty()) {
      return Error(Errc::kInvalidArgument,
                   "apply_insert: tree not empty for first insert");
    }
    if (commit.root_leaf_mod.size() != width_) {
      return Error(Errc::kInvalidArgument, "apply_insert: bad root leaf mod");
    }
    link_.resize(1);  // slot 0 exists; its link entry is unused
    leaf_ref_.assign(1, kNoLeafRef);
    dup_add(commit.root_leaf_mod);
    leaf_ref_[0] = alloc_leaf_rec(commit.root_leaf_mod, item_slot);
    return InsertOutcome{root_id(), {}};
  }

  if (empty()) {
    return Error(Errc::kInvalidArgument, "apply_insert: tree is empty");
  }
  const NodeId q = insert_parent();
  if (commit.q != q) {
    return Error(Errc::kInvalidArgument, "apply_insert: stale insert point");
  }
  const std::array<const Md*, 4> incoming{&commit.left_link,
                                          &commit.right_link,
                                          &commit.moved_leaf_mod,
                                          &commit.new_leaf_mod};
  for (const Md* m : incoming) {
    if (m->size() != width_) {
      return Error(Errc::kInvalidArgument, "apply_insert: bad modulator width");
    }
  }
  for (std::size_t i = 0; i < incoming.size(); ++i) {
    if (dup_would_collide(*incoming[i])) {
      return Error(Errc::kDuplicateModulator,
                   "apply_insert: modulator duplicates tree value");
    }
    for (std::size_t j = i + 1; j < incoming.size(); ++j) {
      if (*incoming[i] == *incoming[j]) {
        return Error(Errc::kDuplicateModulator,
                     "apply_insert: modulators not distinct");
      }
    }
  }

  const NodeId left = static_cast<NodeId>(node_count());
  const NodeId right = left + 1;

  const std::uint32_t old_ref = leaf_ref_[q];
  dup_remove(leaves_[old_ref].leaf_mod);
  leaves_[old_ref].leaf_mod = commit.moved_leaf_mod;
  dup_add(leaves_[old_ref].leaf_mod);

  const std::uint32_t new_ref = alloc_leaf_rec(commit.new_leaf_mod, item_slot);
  dup_add(commit.new_leaf_mod);

  link_.push_back(commit.left_link);
  link_.push_back(commit.right_link);
  dup_add(commit.left_link);
  dup_add(commit.right_link);
  leaf_ref_.push_back(old_ref);
  leaf_ref_.push_back(new_ref);
  leaf_ref_[q] = kNoLeafRef;

  InsertOutcome out;
  out.new_leaf = right;
  out.moves.push_back(LeafMove{leaves_[old_ref].item_slot, left});
  return out;
}

void ModulationTree::set_leaf_mod(NodeId v, Md m) {
  LeafRec& rec = leaf_rec(v);
  dup_remove(rec.leaf_mod);
  rec.leaf_mod = m;
  dup_add(rec.leaf_mod);
}

void ModulationTree::set_link_mod(NodeId v, Md m) {
  if (!valid_node(v) || is_root(v)) {
    throw std::out_of_range("ModulationTree::set_link_mod: bad node");
  }
  dup_remove(link_[v]);
  link_[v] = m;
  dup_add(link_[v]);
}

void ModulationTree::serialize(proto::Writer& w) const {
  serialize(w, {});
}

void ModulationTree::serialize(
    proto::Writer& w,
    const std::function<std::uint64_t(std::uint64_t)>& slot_remap) const {
  w.u8(static_cast<std::uint8_t>(cfg_.alg));
  w.u64(node_count());
  for (NodeId v = 1; v < node_count(); ++v) {
    w.raw(link_[v].bytes());
  }
  const std::size_t n = leaf_count();
  for (NodeId v = n == 0 ? 0 : n - 1; v < node_count(); ++v) {
    const LeafRec& rec = leaf_rec(v);
    w.raw(rec.leaf_mod.bytes());
    w.u64(slot_remap ? slot_remap(rec.item_slot) : rec.item_slot);
  }
}

Result<ModulationTree> ModulationTree::deserialize(proto::Reader& r,
                                                   Config cfg) {
  const auto alg = static_cast<HashAlg>(r.u8());
  if (alg != HashAlg::kSha1 && alg != HashAlg::kSha256) {
    return Error(Errc::kDecodeError, "tree: unknown hash algorithm");
  }
  cfg.alg = alg;
  ModulationTree tree(cfg);
  const std::uint64_t nodes = r.u64();
  if (nodes != 0 && nodes % 2 == 0) {
    return Error(Errc::kDecodeError, "tree: node count must be odd");
  }
  const std::size_t width = crypto::digest_size(alg);
  if (nodes == 0) {
    if (!r.ok()) return Error(Errc::kDecodeError, "tree: truncated");
    return tree;
  }
  // Bound the claimed size by the bytes actually present BEFORE allocating:
  // (nodes-1) link modulators plus one (modulator + u64 slot) per leaf.
  // The cap check comes first so `need` cannot overflow.
  if (!r.ok() || nodes > (std::uint64_t{1} << 40)) {
    return Error(Errc::kDecodeError, "tree: implausible node count");
  }
  const std::uint64_t need =
      (nodes - 1) * width + leaf_count_of(nodes) * (width + 8);
  if (r.remaining() < need) {
    return Error(Errc::kDecodeError, "tree: truncated");
  }
  std::vector<Md> links(nodes);
  for (NodeId v = 1; v < nodes; ++v) {
    const Bytes b = r.raw(width);
    if (!r.ok()) return Error(Errc::kDecodeError, "tree: truncated links");
    links[v] = Md(b);
  }
  const std::size_t n = leaf_count_of(nodes);
  std::vector<std::pair<Md, std::uint64_t>> leaves(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Bytes b = r.raw(width);
    const std::uint64_t slot = r.u64();
    if (!r.ok()) return Error(Errc::kDecodeError, "tree: truncated leaves");
    leaves[i] = {Md(b), slot};
  }
  tree.build(
      n, [&](NodeId v) { return links[v]; },
      [&](NodeId v) { return leaves[v - (n - 1)]; });
  return tree;
}

std::size_t ModulationTree::serialized_size() const {
  const std::size_t nodes = node_count();
  if (nodes == 0) {
    return 1 + 8;
  }
  return 1 + 8 + (nodes - 1) * width_ + leaf_count() * (width_ + 8);
}

std::size_t ModulationTree::memory_bytes() const {
  std::size_t total = link_.capacity() * sizeof(Md) +
                      leaf_ref_.capacity() * sizeof(std::uint32_t) +
                      leaves_.capacity() * sizeof(LeafRec) +
                      free_leaf_refs_.capacity() * sizeof(std::uint32_t);
  if (cfg_.track_duplicates) {
    total += values_.size() * (sizeof(Md) + 2 * sizeof(void*));
  }
  return total;
}

}  // namespace fgad::core
