// Merged-cut bulk deletion (DESIGN.md §16): m items of one file fall in a
// single begin/commit exchange under ONE fresh master key, with one delta
// bundle covering the union of the targets' sibling cuts.
//
// Core-level tests drive FileStore::delete_many_* + ClientMath::
// plan_delete_many through the Harness (which asserts Theorem 1 for every
// survivor after each step and that the merged cut never exceeds the sum
// of the individual cuts). Client-level tests drive Client::erase_items /
// erase_batch over a DirectChannel and pin down the round-trip economics,
// the per-target wrong-leaf defence, and the retry-bound semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "client/client.h"
#include "cloud/server.h"
#include "common/thread_pool.h"
#include "core/bulk_geometry.h"
#include "crypto/random.h"
#include "support/harness.h"

namespace fgad {
namespace {

using client::Client;
using cloud::CloudServer;
using core::NodeId;
using crypto::SystemRandom;
using test::Harness;
using test::payload_for;

Bytes store_image(Harness& h) {
  proto::Writer w;
  h.store().serialize(w);
  return w.data();
}

// ---- geometry unit tests ---------------------------------------------------

TEST(BulkGeometry, MergedCutOfOneLeafIsItsSiblingPath) {
  // 15 nodes = 8 leaves (ids 7..14). The cut of one leaf is the sibling
  // of every node on its root path — depth nodes in ascending id order.
  const std::size_t nodes = 15;
  for (NodeId leaf = 7; leaf < 15; ++leaf) {
    std::vector<NodeId> one{leaf};
    auto cut = core::merged_cut_nodes(nodes, one);
    ASSERT_EQ(cut.size(), 3u) << leaf;
    std::vector<NodeId> expect;
    for (NodeId v = leaf; v != core::root_id(); v = core::parent_of(v)) {
      expect.push_back(core::sibling_of(v));
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(cut, expect) << leaf;
  }
}

TEST(BulkGeometry, SiblingPairSharesTheUpperCut) {
  // Deleting both children of one internal node: the pair contributes no
  // cut node at its own depth (each sibling is itself deleted), so the
  // merged cut is exactly the upper path's siblings.
  const std::size_t nodes = 15;
  std::vector<NodeId> pair{7, 8};  // children of node 3
  auto cut = core::merged_cut_nodes(nodes, pair);
  EXPECT_EQ(cut, (std::vector<NodeId>{2, 4}));
}

TEST(BulkGeometry, AllLeavesYieldEmptyCutAndEmptyTree) {
  const std::size_t nodes = 15;
  std::vector<NodeId> all{7, 8, 9, 10, 11, 12, 13, 14};
  EXPECT_TRUE(core::merged_cut_nodes(nodes, all).empty());
  auto geo = core::bulk_geometry(nodes, all);
  EXPECT_EQ(geo.new_node_count, 0u);
  EXPECT_TRUE(geo.holes.empty());
  EXPECT_TRUE(geo.movers.empty());
}

TEST(BulkGeometry, HolesAndMoversPairUp) {
  // 21 nodes = 11 leaves (10..20). Delete 3: N' = 15, new leaves 7..14.
  const std::size_t nodes = 21;
  std::vector<NodeId> dels{10, 13, 20};
  auto geo = core::bulk_geometry(nodes, dels);
  EXPECT_EQ(geo.new_node_count, 15u);
  ASSERT_EQ(geo.holes.size(), geo.movers.size());
  // Holes: formerly-internal slots [7, 10) plus deleted leaves < 15.
  EXPECT_EQ(geo.holes, (std::vector<NodeId>{7, 8, 9, 10, 13}));
  // Movers: surviving leaves >= 15 in ascending order.
  EXPECT_EQ(geo.movers, (std::vector<NodeId>{15, 16, 17, 18, 19}));
}

// ---- core protocol tests ---------------------------------------------------

TEST(DeleteMany, SingleTargetByteIdenticalToPlanDelete) {
  // m=1 through the merged-cut path must leave the server byte-identical
  // to the classic single plan_delete — same deltas, same relocation,
  // same random draws. Cover the general case and both degenerate
  // promote-only cases (target at / next to the last leaf).
  for (std::uint64_t target : {7u, 0u, 18u, 19u}) {
    Harness single(crypto::HashAlg::kSha1, 1234);
    Harness bulk(crypto::HashAlg::kSha1, 1234);
    single.outsource(20);
    bulk.outsource(20);
    ASSERT_EQ(store_image(single), store_image(bulk));

    ASSERT_TRUE(single.erase(target)) << target;
    ASSERT_TRUE(bulk.erase_many({target})) << target;
    EXPECT_EQ(store_image(single), store_image(bulk)) << target;
    single.verify_all();
    bulk.verify_all();
  }
}

TEST(DeleteMany, AdjacentSiblingLeaves) {
  Harness h(crypto::HashAlg::kSha1, 7);
  h.outsource(16);
  // Items 4 and 5 sit on leaves 19/20 — a sibling pair under node 9.
  ASSERT_TRUE(h.erase_many({4, 5}));
  h.verify_all();
  EXPECT_FALSE(h.access(4).is_ok());
  EXPECT_FALSE(h.access(5).is_ok());
  EXPECT_EQ(h.access(6).value(), payload_for(6));
}

TEST(DeleteMany, OverlappingCutsShareAncestors) {
  Harness h(crypto::HashAlg::kSha1, 8);
  h.outsource(16);
  // Four consecutive leaves span two sibling pairs under one grandparent:
  // their individual cuts overlap heavily and the merge must count each
  // boundary node once.
  ASSERT_TRUE(h.erase_many({0, 1, 2, 3}));
  h.verify_all();
  for (std::uint64_t id : {0u, 1u, 2u, 3u}) {
    EXPECT_FALSE(h.access(id).is_ok()) << id;
  }
}

// The bulk verifier's ledger: a node mentioned twice must carry the same
// value each time, and distinct (node, kind) slots must carry distinct
// values, a node's own link and leaf modulator included.
TEST(DeleteMany, VerifierRejectsConflictingAndClonedMentions) {
  Harness h(crypto::HashAlg::kSha1, 9);
  h.outsource(16);
  // Leaves 15 and 18 share the ancestors 1 and 3.
  const std::vector<NodeId> leaves{15, 18};
  const core::DeleteManyInfo info =
      h.store().tree().delete_many_info_for(leaves);
  ASSERT_TRUE(h.math().verify_delete_many_info(info));

  core::DeleteManyInfo conflicting = info;
  conflicting.targets[1].path.links[0] = h.rnd().random_md(20);
  EXPECT_EQ(h.math().verify_delete_many_info(conflicting).code(),
            Errc::kTamperDetected);

  core::DeleteManyInfo cloned = info;
  cloned.targets[1].leaf_mod = cloned.targets[0].leaf_mod;
  EXPECT_EQ(h.math().verify_delete_many_info(cloned).code(),
            Errc::kDuplicateModulator);

  core::DeleteManyInfo same_node = info;
  same_node.targets[0].leaf_mod = same_node.targets[0].path.links.back();
  EXPECT_EQ(h.math().verify_delete_many_info(same_node).code(),
            Errc::kDuplicateModulator);
}

TEST(DeleteMany, DeleteAllLeaves) {
  Harness h(crypto::HashAlg::kSha1, 9);
  h.outsource(8);
  std::vector<std::uint64_t> all = h.live_ids();
  ASSERT_TRUE(h.erase_many(all));
  h.verify_all();
  EXPECT_EQ(h.store().tree().node_count(), 0u);
  EXPECT_EQ(h.store().item_count(), 0u);
}

TEST(DeleteMany, CutStaysWithinLogBound) {
  Harness h(crypto::HashAlg::kSha1, 10);
  const std::size_t n = 256;
  h.outsource(n);
  // 16 spread-out targets: the merged cut is bounded by m * ceil(log2 n)
  // (each target contributes at most its own root path of siblings).
  std::vector<std::uint64_t> ids;
  std::vector<std::uint32_t> slots;
  for (std::uint64_t id = 0; id < n; id += 16) {
    ids.push_back(id);
    slots.push_back(*h.store().items().find(id));
  }
  auto info = h.store().delete_many_begin(slots);
  ASSERT_TRUE(info.is_ok());
  const std::size_t bound =
      ids.size() *
      static_cast<std::size_t>(std::ceil(std::log2(static_cast<double>(n))));
  EXPECT_LE(info.value().cut.size(), bound);
  ASSERT_TRUE(h.erase_many(ids));
  h.verify_all();
}

TEST(DeleteMany, RandomBatchesUntilEmpty) {
  Harness h(crypto::HashAlg::kSha1, 11);
  h.outsource(64);
  Xoshiro256 rng(99);
  while (h.store().item_count() > 0) {
    std::vector<std::uint64_t> live = h.live_ids();
    const std::size_t m =
        1 + rng.next_below(std::min<std::size_t>(live.size(), 9));
    // Draw m distinct ids.
    std::vector<std::uint64_t> batch;
    for (std::size_t k = 0; k < m; ++k) {
      std::size_t pick = rng.next_below(live.size());
      batch.push_back(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_TRUE(h.erase_many(batch)) << "at size " << h.store().item_count();
    h.verify_all();
  }
  EXPECT_EQ(h.store().tree().node_count(), 0u);
}

TEST(DeleteMany, InterleavesWithInsertAndSingleDelete) {
  Harness h(crypto::HashAlg::kSha1, 12);
  h.outsource(24);
  ASSERT_TRUE(h.erase_many({2, 3, 11}));
  h.verify_all();
  ASSERT_TRUE(h.insert(payload_for(500)).is_ok());
  ASSERT_TRUE(h.erase(7));
  h.verify_all();
  ASSERT_TRUE(h.erase_many({0, 23, 8, 9}));
  h.verify_all();
}

// ---- client-level tests ----------------------------------------------------

struct ClientStack {
  CloudServer server;
  SystemRandom rnd;
  std::size_t rpcs = 0;
  net::DirectChannel ch;
  Client client;

  explicit ClientStack(Client::Options copts = {})
      : ch([this](BytesView req) {
          ++rpcs;
          return server.handle(req);
        }),
        client(ch, rnd, copts) {}
};

TEST(EraseItems, OneRoundTripOneRotationForManyItems) {
  ClientStack s;
  std::vector<Bytes> items;
  for (int i = 0; i < 32; ++i) items.push_back(payload_for(i));
  auto fh = s.client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  std::vector<proto::ItemRef> refs;
  for (std::uint64_t id : {3u, 4u, 10u, 11u, 20u, 31u}) {
    refs.push_back(proto::ItemRef::id(id));
  }
  const std::size_t before = s.rpcs;
  ASSERT_TRUE(s.client.erase_items(fh.value(), refs));
  // The whole bulk deletion is ONE begin + ONE commit.
  EXPECT_EQ(s.rpcs - before, 2u);

  for (std::uint64_t id : {3u, 4u, 10u, 11u, 20u, 31u}) {
    EXPECT_FALSE(s.client.access(fh.value(), proto::ItemRef::id(id)).is_ok());
  }
  // The single rotated key decrypts every survivor.
  for (std::uint64_t id : {0u, 5u, 12u, 30u}) {
    EXPECT_EQ(s.client.access(fh.value(), proto::ItemRef::id(id)).value(),
              payload_for(id));
  }
}

TEST(EraseItems, EmptyAndSingleRefDegenerate) {
  ClientStack s;
  std::vector<Bytes> items;
  for (int i = 0; i < 8; ++i) items.push_back(payload_for(i));
  auto fh = s.client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  ASSERT_TRUE(s.client.erase_items(fh.value(), {}));
  std::vector<proto::ItemRef> one{proto::ItemRef::id(5)};
  ASSERT_TRUE(s.client.erase_items(fh.value(), one));
  EXPECT_FALSE(s.client.access(fh.value(), proto::ItemRef::id(5)).is_ok());
  EXPECT_TRUE(s.client.access(fh.value(), proto::ItemRef::id(0)).is_ok());
}

TEST(EraseItems, DuplicateRefsRejected) {
  ClientStack s;
  std::vector<Bytes> items;
  for (int i = 0; i < 8; ++i) items.push_back(payload_for(i));
  auto fh = s.client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  std::vector<proto::ItemRef> dup{proto::ItemRef::id(2),
                                  proto::ItemRef::id(2)};
  EXPECT_EQ(s.client.erase_items(fh.value(), dup).code(),
            Errc::kInvalidArgument);
  // Nothing was deleted.
  EXPECT_TRUE(s.client.access(fh.value(), proto::ItemRef::id(2)).is_ok());
}

TEST(EraseItems, TamperedTargetCiphertextRejected) {
  ClientStack s;
  std::vector<Bytes> items;
  for (int i = 0; i < 16; ++i) items.push_back(payload_for(i));
  auto fh = s.client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  // A malicious cloud swaps two targets' ciphertexts in the begin
  // response; the per-target decrypt check must reject the bundle
  // before anything is committed (Theorem 2 applied per item).
  s.server.tamper_delete_many_info = [](core::DeleteManyInfo& info) {
    std::swap(info.targets[0].ciphertext, info.targets[1].ciphertext);
  };
  std::vector<proto::ItemRef> refs{proto::ItemRef::id(1),
                                   proto::ItemRef::id(9)};
  EXPECT_EQ(s.client.erase_items(fh.value(), refs).code(),
            Errc::kTamperDetected);
  s.server.tamper_delete_many_info = nullptr;
  EXPECT_TRUE(s.client.access(fh.value(), proto::ItemRef::id(1)).is_ok());
  EXPECT_TRUE(s.client.access(fh.value(), proto::ItemRef::id(9)).is_ok());
}

TEST(EraseBatch, MixedSameFileAndCrossFileRefs) {
  ClientStack s;
  std::vector<Bytes> items;
  for (int i = 0; i < 12; ++i) items.push_back(payload_for(i));
  auto fh1 = s.client.outsource(1, items);
  auto fh2 = s.client.outsource(2, items);
  ASSERT_TRUE(fh1.is_ok());
  ASSERT_TRUE(fh2.is_ok());
  auto ids2 = s.client.list_items(fh2.value());
  ASSERT_TRUE(ids2.is_ok());

  // Two refs into file 1 (bulk path) interleaved with one into file 2
  // (pipelined single path).
  std::vector<Client::FileHandle*> handles{&fh1.value(), &fh2.value(),
                                           &fh1.value()};
  std::vector<proto::ItemRef> refs{proto::ItemRef::id(2),
                                   proto::ItemRef::id(ids2.value()[5]),
                                   proto::ItemRef::id(7)};
  const Status st = s.client.erase_batch(handles, refs);
  ASSERT_TRUE(st) << st.to_string();
  EXPECT_FALSE(s.client.access(fh1.value(), proto::ItemRef::id(2)).is_ok());
  EXPECT_FALSE(s.client.access(fh1.value(), proto::ItemRef::id(7)).is_ok());
  EXPECT_FALSE(
      s.client.access(fh2.value(), proto::ItemRef::id(ids2.value()[5]))
          .is_ok());
  EXPECT_TRUE(s.client.access(fh1.value(), proto::ItemRef::id(0)).is_ok());
  EXPECT_TRUE(
      s.client.access(fh2.value(), proto::ItemRef::id(ids2.value()[0]))
          .is_ok());
}

TEST(EraseBatch, TwoHandlesSharingOneIdRejected) {
  ClientStack s;
  std::vector<Bytes> items;
  for (int i = 0; i < 4; ++i) items.push_back(payload_for(i));
  auto fh1 = s.client.outsource(1, items);
  ASSERT_TRUE(fh1.is_ok());
  Client::FileHandle imposter;
  imposter.id = 1;
  imposter.key = fh1.value().key.clone();
  std::vector<Client::FileHandle*> handles{&fh1.value(), &imposter};
  std::vector<proto::ItemRef> refs{proto::ItemRef::id(0),
                                   proto::ItemRef::id(1)};
  EXPECT_EQ(s.client.erase_batch(handles, refs).code(),
            Errc::kInvalidArgument);
}

TEST(Retries, MaxRetriesZeroStillMakesTheInitialAttempt) {
  // max_retries bounds RE-runs, not runs: 0 means "try exactly once".
  // (The old loop ran `attempt < max_retries` and made zero attempts,
  // reporting retry exhaustion without ever contacting the server.)
  Client::Options copts;
  copts.max_retries = 0;
  ClientStack s(copts);
  std::vector<Bytes> items;
  for (int i = 0; i < 8; ++i) items.push_back(payload_for(i));
  auto fh = s.client.outsource(1, items);
  ASSERT_TRUE(fh.is_ok());

  auto id = s.client.insert(fh.value(), payload_for(100));
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  ASSERT_TRUE(s.client.erase_item(fh.value(), proto::ItemRef::id(2)));
  std::vector<proto::ItemRef> refs{proto::ItemRef::id(4),
                                   proto::ItemRef::id(5)};
  ASSERT_TRUE(s.client.erase_items(fh.value(), refs));
  EXPECT_TRUE(s.client.access(fh.value(), proto::ItemRef::id(0)).is_ok());
}

TEST(DeleteManyParallel, PoolAndSequentialPathsAreByteIdentical) {
  // delete_many_info_for and plan_delete_many both take an optional pool
  // and promise identical output with and without it. On a 1-core machine
  // the default pools are size 1 and the parallel branches never run, so
  // force a multi-worker pool and a batch large enough to cross the
  // activation thresholds (cut >= 64, paths >= 64).
  using core::ClientMath;
  using core::ModulationTree;
  using crypto::DeterministicRandom;
  using crypto::HashAlg;
  using crypto::Md;

  ClientMath math(HashAlg::kSha1);
  const std::size_t n = 1500;
  DeterministicRandom rnd(91);
  const Md master_old = rnd.random_md(math.width());
  const Md master_new = rnd.random_md(math.width());

  ModulationTree tree(ModulationTree::Config{HashAlg::kSha1, false});
  tree.build(
      n, [&](NodeId) { return rnd.random_md(math.width()); },
      [&](NodeId v) {
        return std::pair<Md, std::uint64_t>(rnd.random_md(math.width()),
                                            v - (n - 1));
      });

  std::vector<NodeId> leaves;
  for (std::size_t i = 0; i < 90; ++i) {
    leaves.push_back(static_cast<NodeId>(n - 1 + 16 * i));
  }

  ThreadPool pool(4);
  ASSERT_GT(pool.size(), 1u);
  const auto seq_info = tree.delete_many_info_for(leaves);
  const auto par_info = tree.delete_many_info_for(leaves, &pool);
  ASSERT_GE(seq_info.cut.size(), 64u);  // crosses plan's parallel threshold

  auto expect_same_path = [](const core::PathView& a, const core::PathView& b,
                             const char* what, std::size_t i) {
    EXPECT_EQ(a.nodes, b.nodes) << what << " " << i;
    EXPECT_EQ(a.links, b.links) << what << " " << i;
  };
  ASSERT_EQ(par_info.node_count, seq_info.node_count);
  ASSERT_EQ(par_info.targets.size(), seq_info.targets.size());
  for (std::size_t i = 0; i < seq_info.targets.size(); ++i) {
    expect_same_path(par_info.targets[i].path, seq_info.targets[i].path,
                     "target", i);
    EXPECT_EQ(par_info.targets[i].leaf_mod, seq_info.targets[i].leaf_mod) << i;
  }
  ASSERT_EQ(par_info.cut.size(), seq_info.cut.size());
  for (std::size_t i = 0; i < seq_info.cut.size(); ++i) {
    EXPECT_EQ(par_info.cut[i].node, seq_info.cut[i].node) << i;
    EXPECT_EQ(par_info.cut[i].link, seq_info.cut[i].link) << i;
    EXPECT_EQ(par_info.cut[i].is_leaf, seq_info.cut[i].is_leaf) << i;
    if (seq_info.cut[i].is_leaf) {
      EXPECT_EQ(par_info.cut[i].leaf_mod, seq_info.cut[i].leaf_mod) << i;
    }
  }
  ASSERT_EQ(par_info.hole_paths.size(), seq_info.hole_paths.size());
  for (std::size_t i = 0; i < seq_info.hole_paths.size(); ++i) {
    expect_same_path(par_info.hole_paths[i], seq_info.hole_paths[i], "hole",
                     i);
  }
  ASSERT_EQ(par_info.movers.size(), seq_info.movers.size());
  for (std::size_t i = 0; i < seq_info.movers.size(); ++i) {
    expect_same_path(par_info.movers[i].path, seq_info.movers[i].path,
                     "mover", i);
    EXPECT_EQ(par_info.movers[i].leaf_mod, seq_info.movers[i].leaf_mod) << i;
  }

  // Identically seeded randomness must yield byte-identical plans: every
  // random draw happens on the sequential spine, only the delta hashing
  // fans out to workers.
  DeterministicRandom rnd_seq(7), rnd_par(7);
  auto seq_plan =
      math.plan_delete_many(seq_info, master_old, master_new, rnd_seq);
  auto par_plan =
      math.plan_delete_many(par_info, master_old, master_new, rnd_par, &pool);
  ASSERT_TRUE(seq_plan.is_ok()) << seq_plan.status().to_string();
  ASSERT_TRUE(par_plan.is_ok()) << par_plan.status().to_string();
  EXPECT_EQ(par_plan.value().old_keys, seq_plan.value().old_keys);
  EXPECT_EQ(par_plan.value().commit.leaves, seq_plan.value().commit.leaves);
  EXPECT_EQ(par_plan.value().commit.deltas, seq_plan.value().commit.deltas);
  ASSERT_EQ(par_plan.value().commit.relocs.size(),
            seq_plan.value().commit.relocs.size());
  for (std::size_t i = 0; i < seq_plan.value().commit.relocs.size(); ++i) {
    const auto& a = par_plan.value().commit.relocs[i];
    const auto& b = seq_plan.value().commit.relocs[i];
    EXPECT_EQ(a.new_leaf_mod, b.new_leaf_mod) << i;
    EXPECT_EQ(a.has_new_link, b.has_new_link) << i;
    if (b.has_new_link) {
      EXPECT_EQ(a.new_link, b.new_link) << i;
    }
  }
}

}  // namespace
}  // namespace fgad
