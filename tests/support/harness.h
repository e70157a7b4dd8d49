// Test harness gluing the client-side math to the server-side state without
// the wire protocol, plus a reference model.
//
// Harness drives the exact production components (FileStore = ModulationTree
// + ItemStore, ClientMath, ItemCodec, Outsourcer) through the paper's
// operations and *remembers every live item's data key from the moment it
// was created*. verify_all() then asserts the two core theorems after any
// sequence of operations:
//   * Theorem 1 — every surviving item's key, re-derived from the current
//     tree under the current master key, equals its original key, and the
//     item still decrypts;
//   * structural — the tree stays left-complete and back-pointers stay
//     consistent;
//   * integrity — the hash-tree root equals a rebuild from the stored
//     ciphertexts.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cloud/file_store.h"
#include "core/client_math.h"
#include "core/item_codec.h"
#include "core/outsource.h"
#include "crypto/secure_buffer.h"

namespace fgad::test {

using cloud::FileStore;
using core::ClientMath;
using core::ItemCodec;
using core::ModulationTree;
using core::NodeId;
using crypto::HashAlg;
using crypto::MasterKey;
using crypto::Md;

inline Bytes payload_for(std::size_t i, std::size_t size = 24) {
  std::string s = "item-" + std::to_string(i) + "-";
  while (s.size() < size) {
    s.push_back(static_cast<char>('a' + (i + s.size()) % 26));
  }
  s.resize(size);
  return to_bytes(s);
}

class Harness {
 public:
  explicit Harness(HashAlg alg = HashAlg::kSha1, std::uint64_t seed = 42,
                   bool track_duplicates = true)
      : alg_(alg),
        track_(track_duplicates),
        rnd_(seed),
        math_(alg),
        codec_(alg),
        store_(alg, track_duplicates) {}

  void outsource(std::size_t n) {
    core::Outsourcer out(alg_, track_);
    key_ = MasterKey::generate(rnd_, math_.width());
    auto built = out.build(
        key_, n, [&](std::size_t i) { return payload_for(i); }, counter_,
        rnd_);
    std::vector<FileStore::IngestItem> items;
    items.reserve(built.items.size());
    for (auto& it : built.items) {
      items.push_back(FileStore::IngestItem{
          it.item_id, std::move(it.ciphertext), it.plain_size});
    }
    ASSERT_TRUE(store_.ingest(std::move(built.tree), std::move(items)));
    // Record expected plaintext + key per item.
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t id = i;  // counter started at 0
      auto slot = store_.items().find(id);
      ASSERT_TRUE(slot.has_value());
      const NodeId leaf = store_.items().at(*slot).leaf;
      expected_[id] = Expected{payload_for(i), key_of(leaf)};
    }
  }

  /// Full deletion through DeleteInfo -> plan -> apply.
  Status erase(std::uint64_t item_id) {
    auto slot = store_.items().find(item_id);
    if (!slot) {
      return Status(Errc::kNotFound, "harness: no such item");
    }
    auto info = store_.delete_begin(*slot);
    if (!info) return info.status();
    MasterKey fresh = MasterKey::generate(rnd_, math_.width());
    auto plan =
        math_.plan_delete(info.value(), key_.value(), fresh.value(), rnd_);
    if (!plan) return plan.status();
    // Verify the target decrypts (the client's acceptance rule).
    auto opened = codec_.open(plan.value().old_key, info.value().ciphertext);
    if (!opened) {
      return Status(Errc::kTamperDetected, "harness: MT(k) rejected");
    }
    if (auto st = store_.delete_commit(plan.value().commit); !st) {
      return st;
    }
    key_ = std::move(fresh);
    dead_keys_.push_back(plan.value().old_key);
    expected_.erase(item_id);
    return Status::ok();
  }

  /// Merged-cut bulk deletion through DeleteManyInfo -> plan -> apply:
  /// one fresh key covers every target. Also asserts the economics claim
  /// behind the merge — the merged cut never exceeds the sum of the
  /// individual sibling cuts it replaces.
  Status erase_many(const std::vector<std::uint64_t>& ids) {
    std::vector<std::uint32_t> slots;
    slots.reserve(ids.size());
    for (std::uint64_t id : ids) {
      auto slot = store_.items().find(id);
      if (!slot) {
        return Status(Errc::kNotFound, "harness: no such item");
      }
      slots.push_back(*slot);
    }
    std::size_t individual_sum = 0;
    for (std::uint32_t s : slots) {
      auto one = store_.delete_begin(s);
      if (!one) return one.status();
      individual_sum += one.value().cut.size();
    }
    auto info = store_.delete_many_begin(slots);
    if (!info) return info.status();
    EXPECT_LE(info.value().cut.size(), individual_sum);
    MasterKey fresh = MasterKey::generate(rnd_, math_.width());
    auto plan = math_.plan_delete_many(info.value(), key_.value(),
                                       fresh.value(), rnd_);
    if (!plan) return plan.status();
    std::vector<Md> old_keys;
    for (std::size_t i = 0; i < info.value().targets.size(); ++i) {
      auto opened = codec_.open(plan.value().old_keys[i],
                                info.value().targets[i].ciphertext);
      if (!opened || opened.value().r != info.value().targets[i].item_id) {
        return Status(Errc::kTamperDetected, "harness: MT(k) rejected");
      }
      old_keys.push_back(plan.value().old_keys[i]);
    }
    if (auto st = store_.delete_many_commit(plan.value().commit); !st) {
      return st;
    }
    key_ = std::move(fresh);
    for (const Md& k : old_keys) dead_keys_.push_back(k);
    for (std::uint64_t id : ids) expected_.erase(id);
    return Status::ok();
  }

  Result<std::uint64_t> insert(const Bytes& payload) {
    const core::InsertInfo info = store_.insert_begin();
    auto plan = math_.plan_insert(info, key_.value(), rnd_);
    if (!plan) return plan.error();
    const std::uint64_t id = counter_++;
    plan.value().commit.item_id = id;
    plan.value().commit.ciphertext =
        codec_.seal(plan.value().item_key, payload, id, rnd_);
    if (auto st = store_.insert_commit(plan.value().commit); !st) {
      return Error(st.error());
    }
    expected_[id] = Expected{payload, plan.value().item_key};
    return id;
  }

  Result<Bytes> access(std::uint64_t item_id) {
    auto slot = store_.items().find(item_id);
    if (!slot) return Error(Errc::kNotFound, "harness: no such item");
    auto info = store_.access(*slot);
    if (!info) return info.error();
    const Md key =
        math_.derive_key(key_.value(), info.value().path, info.value().leaf_mod);
    auto opened = codec_.open(key, info.value().ciphertext);
    if (!opened) return Error(Errc::kIntegrityMismatch, "harness: bad item");
    return std::move(opened.value().plaintext);
  }

  /// Asserts Theorem 1 + structural invariants for the whole store.
  void verify_all() const {
    const ModulationTree& t = store_.tree();
    ASSERT_EQ(t.leaf_count(), expected_.size());
    ASSERT_EQ(store_.items().size(), expected_.size());
    ASSERT_TRUE(t.node_count() == 0 || t.node_count() % 2 == 1);
    for (const auto& [id, exp] : expected_) {
      auto slot = store_.items().find(id);
      ASSERT_TRUE(slot.has_value()) << "item " << id << " lost";
      const auto& rec = store_.items().at(*slot);
      ASSERT_TRUE(t.is_leaf(rec.leaf)) << "item " << id << " leaf invalid";
      ASSERT_EQ(t.item_slot(rec.leaf), *slot) << "back-pointer broken";
      const Md key = key_of(rec.leaf);
      ASSERT_EQ(key, exp.key) << "Theorem 1 violated for item " << id;
      auto opened = codec_.open(key, rec.ciphertext);
      ASSERT_TRUE(opened.is_ok()) << "item " << id << " undecryptable";
      ASSERT_EQ(opened.value().plaintext, exp.payload);
      ASSERT_EQ(opened.value().r, id);
    }
    // Integrity root: the incrementally repaired hash tree must equal a
    // from-scratch rebuild over the stored ciphertexts (as cloud::fsck).
    if (store_.integrity_enabled()) {
      const std::size_t n = t.leaf_count();
      crypto::Hasher hasher(alg_);
      std::vector<Md> hashes(n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& rec = store_.items().at(
            static_cast<std::uint32_t>(t.item_slot((n - 1) + i)));
        hashes[i] = integrity::leaf_hash(hasher, rec.item_id, rec.ciphertext);
      }
      integrity::HashTree rebuilt(alg_);
      rebuilt.build(hashes);
      ASSERT_EQ(store_.integrity_root(), rebuilt.root())
          << "integrity root diverged from a rebuild";
    }
  }

  /// Derives the current data key of a leaf from server state + master key.
  Md key_of(NodeId leaf) const {
    const ModulationTree& t = store_.tree();
    return math_.derive_key(key_.value(), t.path_to(leaf), t.leaf_mod(leaf));
  }

  FileStore& store() { return store_; }
  const FileStore& store() const { return store_; }
  ClientMath& math() { return math_; }
  ItemCodec& codec() { return codec_; }
  crypto::DeterministicRandom& rnd() { return rnd_; }
  MasterKey& master() { return key_; }
  std::uint64_t& counter() { return counter_; }
  const std::vector<Md>& dead_keys() const { return dead_keys_; }

  std::vector<std::uint64_t> live_ids() const {
    std::vector<std::uint64_t> ids;
    ids.reserve(expected_.size());
    for (const auto& [id, exp] : expected_) {
      ids.push_back(id);
    }
    return ids;
  }

  const Bytes& expected_payload(std::uint64_t id) const {
    return expected_.at(id).payload;
  }
  const Md& expected_key(std::uint64_t id) const {
    return expected_.at(id).key;
  }

 private:
  struct Expected {
    Bytes payload;
    Md key;
  };

  HashAlg alg_;
  bool track_;
  crypto::DeterministicRandom rnd_;
  ClientMath math_;
  ItemCodec codec_;
  FileStore store_;
  MasterKey key_;
  std::uint64_t counter_ = 0;
  std::map<std::uint64_t, Expected> expected_;
  std::vector<Md> dead_keys_;
};

}  // namespace fgad::test
