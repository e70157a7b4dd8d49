// Integrity substrate (PDP/PoR): Merkle tree, audits, verified fetches,
// and trustless root tracking across mutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>

#include "client/client.h"
#include "cloud/server.h"
#include "core/bulk_geometry.h"
#include "integrity/audit.h"
#include "integrity/merkle.h"
#include "support/harness.h"

namespace fgad::integrity {
namespace {

using client::Client;
using cloud::CloudServer;
using crypto::DeterministicRandom;
using crypto::HashAlg;
using crypto::Md;
using crypto::SystemRandom;
using test::payload_for;

std::vector<Md> make_leaf_hashes(std::size_t n, std::uint64_t seed) {
  DeterministicRandom rnd(seed);
  std::vector<Md> hashes(n);
  for (auto& h : hashes) {
    h = rnd.random_md(20);
  }
  return hashes;
}

TEST(Merkle, EmptyAndSingle) {
  HashTree tree(HashAlg::kSha1);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root(), Md::zero(20));
  const auto hashes = make_leaf_hashes(1, 1);
  tree.build(hashes);
  EXPECT_EQ(tree.root(), hashes[0]);
  const MerkleProof proof = tree.prove(0);
  crypto::Hasher hasher(HashAlg::kSha1);
  EXPECT_TRUE(verify_proof(hasher, tree.root(), hashes[0], proof));
}

class MerkleProofs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProofs, EveryLeafVerifies) {
  const std::size_t n = GetParam();
  const auto hashes = make_leaf_hashes(n, n);
  HashTree tree(HashAlg::kSha1);
  tree.build(hashes);
  crypto::Hasher hasher(HashAlg::kSha1);
  for (std::size_t i = 0; i < n; ++i) {
    const core::NodeId leaf = n - 1 + i;
    const MerkleProof proof = tree.prove(leaf);
    EXPECT_TRUE(verify_proof(hasher, tree.root(), hashes[i], proof)) << i;
    // A different leaf hash must not verify.
    Md other = hashes[i];
    other.mutable_bytes()[0] ^= 1;
    EXPECT_FALSE(verify_proof(hasher, tree.root(), other, proof)) << i;
    // A corrupted sibling must not verify.
    if (!proof.siblings.empty()) {
      MerkleProof bad = proof;
      bad.siblings[0].mutable_bytes()[3] ^= 1;
      EXPECT_FALSE(verify_proof(hasher, tree.root(), hashes[i], bad)) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofs,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 33, 100));

// HashTree mutations mirror a rebuild from scratch.
TEST(Merkle, MutationsMatchRebuild) {
  crypto::Hasher hasher(HashAlg::kSha1);
  DeterministicRandom rnd(9);
  std::vector<Md> hashes = make_leaf_hashes(9, 2);
  HashTree tree(HashAlg::kSha1);
  tree.build(hashes);

  // set_leaf.
  hashes[4] = rnd.random_md(20);
  tree.set_leaf(8 + 4, hashes[4]);
  {
    HashTree fresh(HashAlg::kSha1);
    fresh.build(hashes);
    EXPECT_EQ(tree.root(), fresh.root());
  }

  // append_pair: the old shallowest leaf moves under a new internal node.
  const Md new_h = rnd.random_md(20);
  tree.append_pair(new_h);
  {
    // Leaf order after split: leaf q = (17-1)/2 = 8 (first leaf) moves to
    // the left child, new leaf to the right; rebuilding with the same
    // logical order must agree.
    std::vector<Md> grown = hashes;
    grown.push_back(new_h);
    // Rebuild shape: the heap build assigns leaf i to node n-1+i, which for
    // n=10 puts old leaf 0's hash at node 9 and the new at node 18... the
    // shapes only coincide when the logical order matches the paper's
    // split, so compare against explicit mutations instead:
    HashTree fresh(HashAlg::kSha1);
    fresh.build(hashes);
    fresh.append_pair(new_h);
    EXPECT_EQ(tree.root(), fresh.root());
    EXPECT_EQ(tree.node_count(), 19u);
  }

  // delete_leaf of each kind agrees with an independently mutated copy.
  HashTree copy(HashAlg::kSha1);
  copy.build(hashes);
  copy.append_pair(new_h);
  tree.delete_leaf(12);  // general case
  copy.delete_leaf(12);
  EXPECT_EQ(tree.root(), copy.root());
  tree.delete_leaf(tree.node_count() - 1);  // last leaf
  copy.delete_leaf(copy.node_count() - 1);
  EXPECT_EQ(tree.root(), copy.root());
}

// Repairs `tree` (built over `hashes`) after deleting `leaves` and checks
// every node against build() over the old hashes in the new leaf order.
void expect_bulk_repair_matches_rebuild(const std::vector<Md>& hashes,
                                        const std::vector<core::NodeId>& leaves,
                                        bool single_delete) {
  const std::size_t n = hashes.size();
  const std::size_t nodes = core::node_count_for(n);
  const core::BulkGeometry geo = core::bulk_geometry(nodes, leaves);
  HashTree tree(HashAlg::kSha1);
  tree.build(hashes);
  if (single_delete) {
    ASSERT_EQ(leaves.size(), 1u);
    tree.delete_leaf(leaves[0]);
  } else {
    std::vector<core::LeafReloc> relocs;
    for (std::size_t i = 0; i < geo.holes.size(); ++i) {
      relocs.push_back(core::LeafReloc{geo.movers[i], geo.holes[i]});
    }
    tree.relocate_leaves(relocs, geo.new_node_count);
  }
  ASSERT_EQ(tree.node_count(), geo.new_node_count);

  // New leaf v holds the old hash at source(v): its mover if v is a hole,
  // else v itself (a survivor that stayed in place).
  const std::size_t n2 = core::leaf_count_of(geo.new_node_count);
  std::vector<Md> placed(n2);
  for (std::size_t i = 0; i < n2; ++i) {
    core::NodeId src = (n2 - 1) + i;
    const auto hole = std::find(geo.holes.begin(), geo.holes.end(), src);
    if (hole != geo.holes.end()) {
      src = geo.movers[hole - geo.holes.begin()];
    }
    ASSERT_GE(src, n - 1) << "source is not an old leaf";
    placed[i] = hashes[src - (n - 1)];
  }
  HashTree rebuilt(HashAlg::kSha1);
  rebuilt.build(placed);
  for (core::NodeId v = 0; v < geo.new_node_count; ++v) {
    ASSERT_EQ(tree.node_hash(v), rebuilt.node_hash(v))
        << "n=" << n << " m=" << leaves.size() << " node " << v;
  }
  EXPECT_EQ(tree.root(), rebuilt.root());
}

std::vector<core::NodeId> random_leaf_set(std::size_t n, std::size_t m,
                                          std::mt19937_64& rng) {
  std::vector<core::NodeId> all(n);
  for (std::size_t i = 0; i < n; ++i) {
    all[i] = (n - 1) + i;
  }
  std::vector<core::NodeId> picked;
  std::sample(all.begin(), all.end(), std::back_inserter(picked), m, rng);
  return picked;  // std::sample keeps the input order: ascending
}

TEST(Merkle, BulkRepairMatchesRebuild) {
  std::mt19937_64 rng(12);
  // Every n in [1, 64] and every m in [1, n], including m = n - 1, m = n
  // and m > n/2 (the tree shrinks below the old leaf line).
  for (std::size_t n = 1; n <= 64; ++n) {
    const auto hashes = make_leaf_hashes(n, 100 + n);
    for (std::size_t m = 1; m <= n; ++m) {
      for (int rep = 0; rep < 2; ++rep) {
        expect_bulk_repair_matches_rebuild(hashes,
                                           random_leaf_set(n, m, rng), false);
        if (HasFatalFailure()) return;
      }
    }
    // m = 1 through delete_leaf, every target.
    for (core::NodeId d = n - 1; d < core::node_count_for(n); ++d) {
      expect_bulk_repair_matches_rebuild(hashes, {d}, true);
      if (HasFatalFailure()) return;
    }
  }
  // Seeded random sizes up to 4,096 leaves: small batches (m <= 16), any
  // m, and m > n/2.
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t n = 1 + rng() % 4096;
    std::size_t m = n - rng() % ((n + 1) / 2);
    if (trial % 3 == 0) {
      m = 1 + rng() % std::min<std::size_t>(n, 16);
    } else if (trial % 3 == 1) {
      m = 1 + rng() % n;
    }
    expect_bulk_repair_matches_rebuild(make_leaf_hashes(n, 7000 + trial),
                                       random_leaf_set(n, m, rng), false);
    if (HasFatalFailure()) return;
  }
}

TEST(Merkle, DomainSeparation) {
  crypto::Hasher hasher(HashAlg::kSha1);
  // A leaf hash must not be confusable with an internal hash of the same
  // bytes (0x00 vs 0x01 prefixes).
  const Md a = leaf_hash(hasher, 1, to_bytes("xy"));
  const Md l = Md(to_bytes("0123456789abcdefghij"));
  const Md r = Md(to_bytes("ABCDEFGHIJKLMNOPQRST"));
  EXPECT_NE(internal_hash(hasher, l, r),
            hasher.hash(to_bytes(std::string(1, 0x00))));
  EXPECT_EQ(a, leaf_hash(hasher, 1, to_bytes("xy")));
  EXPECT_NE(a, leaf_hash(hasher, 2, to_bytes("xy")));
}

// ---- end-to-end audits -------------------------------------------------------

class AuditTest : public ::testing::Test {
 protected:
  AuditTest()
      : channel_([this](BytesView req) { return server_.handle(req); }),
        client_(channel_, rnd_),
        auditor_(channel_, HashAlg::kSha1, 1) {}

  void outsource(std::size_t n) {
    // Build via the client, then initialize the auditor trustlessly from
    // the same ciphertexts (fetched through verified bootstrap: here we
    // recompute them from the server for test brevity, then cross-check
    // against an honest rebuild).
    auto fh = client_.outsource(1, n,
                                [](std::size_t i) { return payload_for(i); });
    ASSERT_TRUE(fh.is_ok());
    fh_ = std::move(fh).value();
    std::vector<std::pair<std::uint64_t, BytesView>> items;
    const auto* file = server_.file(1);
    std::vector<const Bytes*> cts;
    for (std::uint64_t i = 0; i < n; ++i) {
      auto slot = file->items().find(i);
      ASSERT_TRUE(slot.has_value());
      cts.push_back(&file->items().at(*slot).ciphertext);
      items.emplace_back(i, BytesView(*cts.back()));
    }
    auditor_.init_from_items(items);
    // Auditor's locally computed root equals the honest server's root.
    ASSERT_EQ(auditor_.expected_root(), file->integrity_root());
  }

  CloudServer server_;
  SystemRandom rnd_;
  net::DirectChannel channel_;
  Client client_;
  integrity::Auditor auditor_;
  Client::FileHandle fh_;
};

TEST_F(AuditTest, HonestAuditsPass) {
  outsource(16);
  const std::uint64_t ids[] = {0, 5, 15};
  EXPECT_TRUE(auditor_.audit_items(ids));
  EXPECT_TRUE(auditor_.audit_random(8, rnd_));
  auto ct = auditor_.fetch_verified(7);
  ASSERT_TRUE(ct.is_ok());
  EXPECT_FALSE(ct.value().empty());
}

TEST_F(AuditTest, SubstitutedCiphertextCaught) {
  outsource(8);
  // Server swaps item 3's ciphertext for item 4's (both are valid records).
  auto* file = server_.mutable_file(1);
  const auto slot3 = *file->items().find(3);
  const auto slot4 = *file->items().find(4);
  const Bytes ct4 = file->items().at(slot4).ciphertext;
  const std::uint64_t keep_plain = file->items().at(slot3).plain_size;
  // Mutate storage behind the hash tree's back (a malicious flip).
  const_cast<cloud::ItemStore&>(file->items())
      .set_ciphertext(slot3, ct4, keep_plain);
  const std::uint64_t ids[] = {3};
  const Status st = auditor_.audit_items(ids);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kTamperDetected);
  EXPECT_FALSE(auditor_.fetch_verified(3).is_ok());
}

TEST_F(AuditTest, RollbackCaught) {
  outsource(8);
  // The client commits to a modification (root rolls forward), but the
  // server silently drops it — a rollback/omission attack. Every subsequent
  // proof folds to the stale root and is rejected.
  ASSERT_TRUE(auditor_.before_modify(2, Bytes(64, 0x7)));
  const std::uint64_t ids[] = {2};
  const Status st = auditor_.audit_items(ids);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kTamperDetected);
}

TEST_F(AuditTest, RootTracksModify) {
  outsource(10);
  const Bytes new_ct = client_.codec().seal(
      crypto::DeterministicRandom(1).random_md(20), payload_for(99), 4,
      rnd_);
  ASSERT_TRUE(auditor_.before_modify(4, new_ct));
  // Apply the actual modification with the exact ciphertext.
  ASSERT_TRUE(server_.modify(1, 4, new_ct, payload_for(99).size()));
  EXPECT_EQ(auditor_.expected_root(), server_.file(1)->integrity_root());
  const std::uint64_t ids[] = {4};
  EXPECT_TRUE(auditor_.audit_items(ids));
}

TEST_F(AuditTest, RootTracksClientOperations) {
  outsource(9);
  Xoshiro256 rng(77);
  std::vector<std::uint64_t> live;
  for (std::uint64_t i = 0; i < 9; ++i) live.push_back(i);

  for (int round = 0; round < 30; ++round) {
    const bool do_delete = !live.empty() && rng.next_below(2) == 0;
    if (do_delete) {
      const std::size_t idx = rng.next_below(live.size());
      const std::uint64_t id = live[idx];
      ASSERT_TRUE(auditor_.before_delete(id)) << "round " << round;
      ASSERT_TRUE(client_.erase_item(fh_, proto::ItemRef::id(id)));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      // Pre-seal the insertion client-side so the auditor can commit to the
      // exact bytes, then push them through a raw insert exchange.
      const std::uint64_t id = client_.counter();
      auto info = server_.insert_begin(1);
      ASSERT_TRUE(info.is_ok());
      auto plan = client_.math().plan_insert(info.value(),
                                             fh_.key.value(), rnd_);
      ASSERT_TRUE(plan.is_ok());
      plan.value().commit.item_id = id;
      const Bytes payload = payload_for(1000 + round);
      plan.value().commit.ciphertext =
          client_.codec().seal(plan.value().item_key, payload, id, rnd_);
      plan.value().commit.plain_size = payload.size();
      ASSERT_TRUE(auditor_.before_insert(
          id, plan.value().commit.ciphertext));
      ASSERT_TRUE(server_.insert_commit(1, plan.value().commit));
      client_.set_counter(id + 1);
      live.push_back(id);
    }
    ASSERT_EQ(auditor_.expected_root(), server_.file(1)->integrity_root())
        << "round " << round << (do_delete ? " delete" : " insert");
  }
  // Everything still audits.
  EXPECT_TRUE(auditor_.audit_random(6, rnd_));
}

TEST_F(AuditTest, DrainToEmptyAndRefill) {
  outsource(3);
  for (std::uint64_t id : {0u, 1u, 2u}) {
    ASSERT_TRUE(auditor_.before_delete(id));
    ASSERT_TRUE(client_.erase_item(fh_, proto::ItemRef::id(id)));
    ASSERT_EQ(auditor_.expected_root(), server_.file(1)->integrity_root());
  }
  EXPECT_EQ(auditor_.leaf_count(), 0u);
}

TEST_F(AuditTest, ForgedProofRejected) {
  outsource(8);
  // Ask for an audit of item 1 but have a fake server answer with item 2's
  // (valid) entry: positional binding must catch it.
  net::DirectChannel evil([this](BytesView req) {
    auto env = proto::open_message(req);
    if (env && env.value().type == proto::MsgType::kAuditReq) {
      proto::Reader r(env.value().payload);
      auto areq = proto::AuditReq::from(r);
      if (areq && !areq.value().by_leaf && areq.value().targets.size() == 1 &&
          areq.value().targets[0] == 1) {
        areq.value().targets[0] = 2;
        return server_.handle(areq.value().to_frame());
      }
    }
    return server_.handle(req);
  });
  integrity::Auditor evil_auditor(evil, HashAlg::kSha1, 1);
  // Clone expected state from the honest auditor via re-init.
  const auto* file = server_.file(1);
  std::vector<std::pair<std::uint64_t, BytesView>> items;
  std::vector<const Bytes*> keep;
  for (std::uint64_t i = 0; i < 8; ++i) {
    keep.push_back(&file->items().at(*file->items().find(i)).ciphertext);
    items.emplace_back(i, BytesView(*keep.back()));
  }
  evil_auditor.init_from_items(items);
  const std::uint64_t ids[] = {1};
  const Status st = evil_auditor.audit_items(ids);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kTamperDetected);
}

TEST_F(AuditTest, IntegrityDisabledReportsUnsupported) {
  CloudServer bare(CloudServer::Options{true, /*enable_integrity=*/false});
  net::DirectChannel ch([&bare](BytesView req) { return bare.handle(req); });
  Client c(ch, rnd_);
  auto fh = c.outsource(1, 4, [](std::size_t i) { return payload_for(i); });
  ASSERT_TRUE(fh.is_ok());
  integrity::Auditor a(ch, HashAlg::kSha1, 1);
  const std::uint64_t ids[] = {0};
  EXPECT_EQ(a.audit_items(ids).code(), Errc::kUnsupported);
}

}  // namespace
}  // namespace fgad::integrity
