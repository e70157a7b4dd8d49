// PrefixCache equivalence: cached path-prefix derivation must return exactly
// the key the scalar ClientMath::derive_key returns, across randomized
// outsource → delete → insert → (rebalancing) sequences, provided the cache
// is invalidated whenever the master key or tree structure changes — the same
// rule Client follows. Also regression-tests the invalidation contract: after
// a delete re-keys the file, a stale cache would reproduce old-master chain
// values, so invalidate() must restore correctness.
#include <gtest/gtest.h>

#include "core/prefix_cache.h"
#include "support/harness.h"

namespace fgad {
namespace {

using core::NodeId;
using core::PrefixCache;
using crypto::HashAlg;
using crypto::Md;

// Checks every live item's key via the cache against the harness's scalar
// derivation (and the key remembered at creation time — Theorem 1).
void expect_cache_matches_scalar(test::Harness& h, PrefixCache& cache) {
  const auto& tree = h.store().tree();
  for (std::uint64_t id : h.live_ids()) {
    auto slot = h.store().items().find(id);
    ASSERT_TRUE(slot.has_value());
    const NodeId leaf = h.store().items().at(*slot).leaf;
    const Md cached = cache.derive_key(h.math().chain(), h.master().value(),
                                       tree.path_to(leaf),
                                       tree.leaf_mod(leaf));
    ASSERT_EQ(cached, h.key_of(leaf)) << "item " << id;
    ASSERT_EQ(cached, h.expected_key(id)) << "item " << id;
  }
}

TEST(PrefixCache, MatchesScalarOnStaticFile) {
  test::Harness h;
  h.outsource(200);
  PrefixCache cache;
  // Two passes: the first populates, the second must hit and still agree.
  expect_cache_matches_scalar(h, cache);
  const std::uint64_t misses = cache.misses();
  expect_cache_matches_scalar(h, cache);
  EXPECT_EQ(cache.misses(), misses) << "second pass should be all hits";
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.hash_steps_saved(), 0u);
}

TEST(PrefixCache, RandomizedDeleteInsertSequence) {
  // Deletions exercise the paper's swap-with-last rebalancing and re-key the
  // whole file; insertions split a leaf. Both restructure paths, so the
  // client invalidates after each mutation — keys must then match the scalar
  // derivation everywhere, every time.
  test::Harness h(HashAlg::kSha1, /*seed=*/1234);
  h.outsource(64);
  PrefixCache cache;
  expect_cache_matches_scalar(h, cache);

  std::uint64_t next_payload = 1000;
  crypto::DeterministicRandom op_rnd(99);
  for (int step = 0; step < 60; ++step) {
    const auto ids = h.live_ids();
    const bool do_delete = !ids.empty() && (op_rnd.random_u64() % 3 != 0);
    if (do_delete) {
      const std::uint64_t victim = ids[op_rnd.random_u64() % ids.size()];
      ASSERT_TRUE(h.erase(victim)) << "step " << step;
    } else {
      ASSERT_TRUE(h.insert(test::payload_for(next_payload++)).is_ok())
          << "step " << step;
    }
    cache.invalidate();
    EXPECT_EQ(cache.size(), 0u);
    expect_cache_matches_scalar(h, cache);
  }
  h.verify_all();
}

TEST(PrefixCache, StaleCacheAfterRekeyIsWrongUntilInvalidated) {
  // Regression for the invalidation contract. Warm the cache, delete an item
  // (which rotates the master key), and derive again WITHOUT invalidating:
  // for an item whose cached ancestor survived, the stale chain value yields
  // the old key, not the new one. invalidate() restores agreement.
  test::Harness h(HashAlg::kSha1, /*seed=*/7);
  h.outsource(128);
  PrefixCache cache;
  expect_cache_matches_scalar(h, cache);

  const auto ids = h.live_ids();
  ASSERT_TRUE(h.erase(ids[3]));

  const auto& tree = h.store().tree();
  bool saw_stale_mismatch = false;
  for (std::uint64_t id : h.live_ids()) {
    auto slot = h.store().items().find(id);
    ASSERT_TRUE(slot.has_value());
    const NodeId leaf = h.store().items().at(*slot).leaf;
    const Md stale = cache.derive_key(h.math().chain(), h.master().value(),
                                      tree.path_to(leaf), tree.leaf_mod(leaf));
    if (stale != h.key_of(leaf)) {
      saw_stale_mismatch = true;
    }
  }
  ASSERT_TRUE(saw_stale_mismatch)
      << "a warm cache must go stale after re-key, or this test is vacuous";

  cache.invalidate();
  expect_cache_matches_scalar(h, cache);
  h.verify_all();
}

TEST(PrefixCache, SingleItemAccessIsAmortizedConstant) {
  // After one warm derivation, re-deriving the same leaf hashes only the
  // final leaf-modulator step: the whole internal path is cached.
  test::Harness h(HashAlg::kSha1, /*seed=*/3);
  h.outsource(1 << 10);
  const auto& tree = h.store().tree();
  auto slot = h.store().items().find(17);
  ASSERT_TRUE(slot.has_value());
  const NodeId leaf = h.store().items().at(*slot).leaf;

  PrefixCache cache;
  (void)cache.derive_key(h.math().chain(), h.master().value(),
                         tree.path_to(leaf), tree.leaf_mod(leaf));
  const std::uint64_t saved_before = cache.hash_steps_saved();
  const Md again = cache.derive_key(h.math().chain(), h.master().value(),
                                    tree.path_to(leaf), tree.leaf_mod(leaf));
  EXPECT_EQ(again, h.key_of(leaf));
  // The repeat walk found the deepest path node cached: it skipped the whole
  // internal path (depth = path length) and performed exactly one hash.
  EXPECT_EQ(cache.hash_steps_saved() - saved_before,
            tree.path_to(leaf).depth());
}

}  // namespace
}  // namespace fgad
