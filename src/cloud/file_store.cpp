#include "cloud/file_store.h"

#include <algorithm>
#include <unordered_map>

namespace fgad::cloud {

using core::NodeId;

Status FileStore::ingest(core::ModulationTree tree,
                         std::vector<IngestItem> items) {
  if (!items_.empty() || !tree_.empty()) {
    return Status(Errc::kInvalidArgument, "file store: already populated");
  }
  if (tree.leaf_count() != items.size()) {
    return Status(Errc::kInvalidArgument,
                  "file store: leaf/item count mismatch");
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    // Fresh store: slots are handed out sequentially, so slot i holds item
    // i, which is exactly what the outsourced tree's leaves reference.
    auto slot =
        items_.insert_back(items[i].item_id, std::move(items[i].ciphertext),
                           core::kNoNode, items[i].plain_size);
    if (!slot) {
      return slot.status();
    }
    if (slot.value() != i) {
      return Status(Errc::kInvalidArgument, "file store: non-sequential slot");
    }
  }
  tree_ = std::move(tree);
  // Wire up the leaf back-pointers.
  const std::size_t n = tree_.leaf_count();
  for (NodeId v = (n == 0 ? 0 : n - 1); v < tree_.node_count(); ++v) {
    if (tree_.is_leaf(v)) {
      items_.set_leaf(static_cast<std::uint32_t>(tree_.item_slot(v)), v);
    }
  }
  integrity_rebuild();
  return Status::ok();
}

void FileStore::integrity_rebuild() {
  if (!integrity_) {
    return;
  }
  const std::size_t n = tree_.leaf_count();
  std::vector<crypto::Md> hashes(n);
  const auto hash_range = [&](std::size_t begin, std::size_t end,
                              std::size_t /*worker*/) {
    crypto::Hasher hasher(tree_.alg());  // EVP ctx: one per worker
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId leaf = (n - 1) + i;
      const auto& rec =
          items_.at(static_cast<std::uint32_t>(tree_.item_slot(leaf)));
      hashes[i] = integrity::leaf_hash(hasher, rec.item_id, rec.ciphertext);
    }
  };
  // The leaf hashing dominates bulk ingest/reload; fan it out when the
  // server has a pool. The internal-node build stays sequential (it is a
  // single linear pass over already-computed digests).
  if (pool_ != nullptr && n >= 1024) {
    pool_->parallel_for(n, /*grain=*/128, hash_range);
  } else {
    hash_range(0, n, 0);
  }
  integrity_->build(hashes);
}

void FileStore::integrity_refresh_leaf(std::uint32_t slot) {
  if (!integrity_) {
    return;
  }
  const ItemStore::Record& rec = items_.at(slot);
  crypto::Hasher hasher(tree_.alg());
  integrity_->set_leaf(
      rec.leaf, integrity::leaf_hash(hasher, rec.item_id, rec.ciphertext));
}

crypto::Md FileStore::integrity_root() const {
  if (!integrity_) {
    return crypto::Md::zero(crypto::digest_size(tree_.alg()));
  }
  return integrity_->root();
}

Result<proto::AuditResp::Entry> FileStore::audit_entry(
    std::uint32_t slot, bool include_ciphertext) const {
  if (!integrity_) {
    return Error(Errc::kUnsupported, "file store: integrity disabled");
  }
  if (!items_.valid(slot)) {
    return Error(Errc::kNotFound, "file store: bad slot");
  }
  const ItemStore::Record& rec = items_.at(slot);
  proto::AuditResp::Entry e;
  e.item_id = rec.item_id;
  e.leaf = rec.leaf;
  e.has_ciphertext = include_ciphertext;
  if (include_ciphertext) {
    e.ciphertext = rec.ciphertext;
  }
  e.leaf_hash = integrity_->node_hash(rec.leaf);
  e.siblings = integrity_->prove(rec.leaf).siblings;
  return e;
}

Result<std::uint32_t> FileStore::resolve(const proto::ItemRef& ref) const {
  std::optional<std::uint32_t> slot;
  switch (ref.kind) {
    case proto::RefKind::kId:
      slot = items_.find(ref.value);
      break;
    case proto::RefKind::kOrdinal:
      slot = items_.slot_at(ref.value);
      break;
    case proto::RefKind::kByteOffset:
      slot = items_.slot_at_offset(ref.value);
      break;
  }
  if (!slot) {
    return Error(Errc::kNotFound, "file store: no such item");
  }
  return *slot;
}

Result<core::AccessInfo> FileStore::access(std::uint32_t slot) const {
  if (!items_.valid(slot)) {
    return Error(Errc::kNotFound, "file store: bad slot");
  }
  const ItemStore::Record& rec = items_.at(slot);
  core::AccessInfo info;
  info.path = tree_.path_to(rec.leaf);
  info.leaf_mod = tree_.leaf_mod(rec.leaf);
  info.item_id = rec.item_id;
  info.ciphertext = rec.ciphertext;
  return info;
}

Status FileStore::modify(std::uint64_t item_id, Bytes ciphertext,
                         std::uint64_t plain_size) {
  const auto slot = items_.find(item_id);
  if (!slot) {
    return Status(Errc::kNotFound, "file store: no such item");
  }
  items_.set_ciphertext(*slot, std::move(ciphertext), plain_size);
  integrity_refresh_leaf(*slot);
  return Status::ok();
}

Result<core::DeleteInfo> FileStore::delete_begin(std::uint32_t slot) const {
  if (!items_.valid(slot)) {
    return Error(Errc::kNotFound, "file store: bad slot");
  }
  const ItemStore::Record& rec = items_.at(slot);
  core::DeleteInfo info = tree_.delete_info_for(rec.leaf);
  info.item_id = rec.item_id;
  info.ciphertext = rec.ciphertext;
  return info;
}

Status FileStore::delete_commit(const core::DeleteCommit& commit) {
  const NodeId deleted_leaf = commit.leaf;
  auto outcome = tree_.apply_delete(commit);
  if (!outcome) {
    return outcome.status();
  }
  if (integrity_) {
    integrity_->delete_leaf(deleted_leaf);
  }
  if (auto st = items_.erase(
          static_cast<std::uint32_t>(outcome.value().removed_item_slot));
      !st) {
    return st;
  }
  for (const auto& move : outcome.value().moves) {
    items_.set_leaf(static_cast<std::uint32_t>(move.item_slot), move.new_leaf);
  }
  return Status::ok();
}

Result<core::DeleteManyInfo> FileStore::delete_many_begin(
    std::span<const std::uint32_t> slots) const {
  if (slots.empty()) {
    return Error(Errc::kInvalidArgument, "file store: no deletion targets");
  }
  std::vector<std::pair<NodeId, std::uint32_t>> by_leaf;
  by_leaf.reserve(slots.size());
  for (std::uint32_t slot : slots) {
    if (!items_.valid(slot)) {
      return Error(Errc::kNotFound, "file store: bad slot");
    }
    by_leaf.emplace_back(items_.at(slot).leaf, slot);
  }
  std::sort(by_leaf.begin(), by_leaf.end());
  std::vector<NodeId> leaves;
  leaves.reserve(by_leaf.size());
  for (std::size_t i = 0; i < by_leaf.size(); ++i) {
    if (i > 0 && by_leaf[i].first == by_leaf[i - 1].first) {
      return Error(Errc::kInvalidArgument,
                   "file store: duplicate deletion target");
    }
    leaves.push_back(by_leaf[i].first);
  }
  core::DeleteManyInfo info = tree_.delete_many_info_for(leaves, pool_);
  for (std::size_t i = 0; i < by_leaf.size(); ++i) {
    const ItemStore::Record& rec = items_.at(by_leaf[i].second);
    info.targets[i].item_id = rec.item_id;
    info.targets[i].ciphertext = rec.ciphertext;
  }
  return info;
}

Status FileStore::delete_many_commit(const core::DeleteManyCommit& commit) {
  auto outcome = tree_.apply_delete_many(commit);
  if (!outcome) {
    return outcome.status();
  }
  const core::ModulationTree::DeleteManyOutcome& out = outcome.value();
  if (integrity_) {
    integrity_->relocate_leaves(out.leaf_relocations, tree_.node_count());
  }
  for (std::uint64_t slot : out.removed_item_slots) {
    if (auto st = items_.erase(static_cast<std::uint32_t>(slot)); !st) {
      return st;
    }
  }
  for (const auto& move : out.moves) {
    items_.set_leaf(static_cast<std::uint32_t>(move.item_slot), move.new_leaf);
  }
  return Status::ok();
}

Status FileStore::insert_commit(const core::InsertCommit& commit) {
  // Store the ciphertext first to obtain the slot the new leaf will point
  // to; roll back if the tree rejects the commit (e.g. duplicate modulator).
  Result<std::uint32_t> slot =
      commit.after_item_id == core::InsertCommit::kAppend
          ? items_.insert_back(commit.item_id, commit.ciphertext,
                               core::kNoNode, commit.plain_size)
          : items_.insert_after(commit.after_item_id, commit.item_id,
                                commit.ciphertext, core::kNoNode,
                                commit.plain_size);
  if (!slot) {
    return slot.status();
  }
  auto outcome = tree_.apply_insert(commit, slot.value());
  if (!outcome) {
    (void)items_.erase(slot.value());
    return outcome.status();
  }
  if (integrity_) {
    crypto::Hasher hasher(tree_.alg());
    integrity_->append_pair(
        integrity::leaf_hash(hasher, commit.item_id, commit.ciphertext));
  }
  items_.set_leaf(slot.value(), outcome.value().new_leaf);
  for (const auto& move : outcome.value().moves) {
    items_.set_leaf(static_cast<std::uint32_t>(move.item_slot), move.new_leaf);
  }
  return Status::ok();
}

Bytes FileStore::serialized_tree() const {
  proto::Writer w;
  tree_.serialize(w);
  return std::move(w).take();
}

void FileStore::serialize(proto::Writer& w) const {
  // Canonical image: the tree's leaf->slot pointers are rewritten to the
  // file-order positions deserialize() will reassign, so the serialized
  // form is independent of how the live slot layout fragmented across
  // deletions. The durable checkpoint path relies on save(load(save(x)))
  // being byte-identical to save(x) (DESIGN.md §13).
  std::unordered_map<std::uint64_t, std::uint64_t> canonical_slot;
  canonical_slot.reserve(items_.size());
  std::uint64_t position = 0;
  for (std::uint32_t slot = items_.first(); slot != ItemStore::kNoSlot;
       slot = items_.next_of(slot)) {
    canonical_slot.emplace(slot, position++);
  }
  tree_.serialize(
      w, [&](std::uint64_t slot) { return canonical_slot.at(slot); });
  w.u64(items_.size());
  for (std::uint32_t slot = items_.first(); slot != ItemStore::kNoSlot;
       slot = items_.next_of(slot)) {
    const ItemStore::Record& rec = items_.at(slot);
    w.u64(rec.item_id);
    w.u64(rec.leaf);
    w.u64(rec.plain_size);
    w.bytes(rec.ciphertext);
  }
}

Result<FileStore> FileStore::deserialize(proto::Reader& r,
                                         bool track_duplicates,
                                         bool enable_integrity,
                                         ThreadPool* pool) {
  auto tree = core::ModulationTree::deserialize(
      r, core::ModulationTree::Config{crypto::HashAlg::kSha1,
                                      track_duplicates});
  if (!tree) {
    return tree.error();
  }
  FileStore store(tree.value().alg(), track_duplicates, enable_integrity,
                  pool);
  store.tree_ = std::move(tree).value();
  const std::uint64_t n = r.u64();
  if (!r.ok() || n != store.tree_.leaf_count()) {
    return Error(Errc::kDecodeError, "file store: item count mismatch");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t id = r.u64();
    const NodeId leaf = r.u64();
    const std::uint64_t plain_size = r.u64();
    Bytes ct = r.bytes();
    if (!r.ok()) {
      return Error(Errc::kDecodeError, "file store: truncated items");
    }
    if (!store.tree_.is_leaf(leaf)) {
      return Error(Errc::kDecodeError, "file store: bad leaf reference");
    }
    auto slot = store.items_.insert_back(id, std::move(ct), leaf, plain_size);
    if (!slot) {
      return slot.error();
    }
    // Slots are renumbered on load; refresh the tree-side pointer.
    store.tree_.set_item_slot(leaf, slot.value());
  }
  store.integrity_rebuild();
  return store;
}

}  // namespace fgad::cloud
