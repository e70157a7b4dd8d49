// Fine-grained deletion: Theorem 1 (all other keys unchanged) and the
// balancing algorithm, across every tree shape and leaf position.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "support/harness.h"

namespace fgad::test {
namespace {

using ::testing::TestWithParam;

class DeleteEveryPosition : public TestWithParam<std::size_t> {};

// Deleting any single item leaves every other item's key and content
// intact (Theorem 1), for every position in trees of size 1..17.
TEST_P(DeleteEveryPosition, SingleDeletionPreservesOthers) {
  const std::size_t n = GetParam();
  for (std::size_t victim = 0; victim < n; ++victim) {
    Harness h(HashAlg::kSha1, /*seed=*/1000 + victim);
    h.outsource(n);
    ASSERT_TRUE(h.erase(victim)) << "n=" << n << " victim=" << victim;
    h.verify_all();
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSmallSizes, DeleteEveryPosition,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15,
                                           16, 17));

class DeleteAll : public TestWithParam<std::size_t> {};

// Deleting every item in ascending order drains the tree; invariants hold
// at every intermediate size.
TEST_P(DeleteAll, AscendingOrder) {
  const std::size_t n = GetParam();
  Harness h(HashAlg::kSha1, 7);
  h.outsource(n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(h.erase(i)) << "i=" << i;
    h.verify_all();
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(h.store().tree().node_count(), 0u);
  EXPECT_TRUE(h.store().items().empty());
}

TEST_P(DeleteAll, DescendingOrder) {
  const std::size_t n = GetParam();
  Harness h(HashAlg::kSha1, 8);
  h.outsource(n);
  for (std::size_t i = n; i-- > 0;) {
    ASSERT_TRUE(h.erase(i)) << "i=" << i;
    h.verify_all();
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(h.store().tree().node_count(), 0u);
}

TEST_P(DeleteAll, RandomOrder) {
  const std::size_t n = GetParam();
  Harness h(HashAlg::kSha1, 9);
  h.outsource(n);
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Xoshiro256 rng(n * 31 + 5);
  std::shuffle(order.begin(), order.end(), rng);
  for (std::uint64_t id : order) {
    ASSERT_TRUE(h.erase(id)) << "id=" << id;
    h.verify_all();
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(h.store().tree().node_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeleteAll,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 64));

// The deleted item's key is dead: it differs from every key derivable from
// the post-deletion tree under the new master key.
TEST(DeleteSecurity, DeadKeyNotDerivableFromSurvivingState) {
  const std::size_t n = 32;
  Harness h(HashAlg::kSha1, 77);
  h.outsource(n);
  ASSERT_TRUE(h.erase(11));
  ASSERT_EQ(h.dead_keys().size(), 1u);
  const Md dead = h.dead_keys()[0];
  const auto& tree = h.store().tree();
  for (core::NodeId v = 0; v < tree.node_count(); ++v) {
    if (tree.is_leaf(v)) {
      EXPECT_NE(h.key_of(v), dead);
    }
  }
}

// Repeated deletion keeps shrinking: n -> n-1 leaves, node count -2.
TEST(DeleteShape, NodeCountShrinksByTwo) {
  Harness h(HashAlg::kSha1, 3);
  h.outsource(9);
  std::size_t nodes = h.store().tree().node_count();
  EXPECT_EQ(nodes, 17u);
  ASSERT_TRUE(h.erase(4));
  EXPECT_EQ(h.store().tree().node_count(), nodes - 2);
  ASSERT_TRUE(h.erase(0));
  EXPECT_EQ(h.store().tree().node_count(), nodes - 4);
}

// Master key must rotate on every deletion.
TEST(DeleteSecurity, MasterKeyRotates) {
  Harness h(HashAlg::kSha1, 5);
  h.outsource(8);
  const Md before = h.master().value();
  ASSERT_TRUE(h.erase(3));
  EXPECT_NE(h.master().value(), before);
}

// Deleting a missing item fails cleanly and changes nothing.
TEST(DeleteErrors, MissingItem) {
  Harness h(HashAlg::kSha1, 6);
  h.outsource(4);
  const Status st = h.erase(99);
  EXPECT_EQ(st.code(), Errc::kNotFound);
  h.verify_all();
}

// Double delete: second attempt fails, survivors intact.
TEST(DeleteErrors, DoubleDelete) {
  Harness h(HashAlg::kSha1, 6);
  h.outsource(6);
  ASSERT_TRUE(h.erase(2));
  EXPECT_EQ(h.erase(2).code(), Errc::kNotFound);
  h.verify_all();
}

// Commit validation: server rejects malformed commits.
TEST(DeleteCommitValidation, WrongDeltaCount) {
  Harness h(HashAlg::kSha1, 10);
  h.outsource(8);
  auto slot = h.store().items().find(3);
  ASSERT_TRUE(slot.has_value());
  auto info = h.store().delete_begin(*slot);
  ASSERT_TRUE(info.is_ok());
  MasterKey fresh = MasterKey::generate(h.rnd(), h.math().width());
  auto plan = h.math().plan_delete(info.value(), h.master().value(),
                                   fresh.value(), h.rnd());
  ASSERT_TRUE(plan.is_ok());
  auto commit = plan.value().commit;
  commit.deltas.pop_back();
  EXPECT_EQ(h.store().delete_commit(commit).code(), Errc::kInvalidArgument);
}

TEST(DeleteCommitValidation, NonLeafTarget) {
  Harness h(HashAlg::kSha1, 10);
  h.outsource(8);
  core::DeleteCommit commit;
  commit.leaf = 0;  // root is internal for n=8
  EXPECT_EQ(h.store().delete_commit(commit).code(), Errc::kInvalidArgument);
}

TEST(DeleteCommitValidation, BalanceFlagMismatch) {
  Harness h(HashAlg::kSha1, 11);
  h.outsource(8);
  auto slot = h.store().items().find(1);
  auto info = h.store().delete_begin(slot.value());
  ASSERT_TRUE(info.is_ok());
  MasterKey fresh = MasterKey::generate(h.rnd(), h.math().width());
  auto plan = h.math().plan_delete(info.value(), h.master().value(),
                                   fresh.value(), h.rnd());
  ASSERT_TRUE(plan.is_ok());
  auto commit = plan.value().commit;
  commit.has_balance = false;
  EXPECT_EQ(h.store().delete_commit(commit).code(), Errc::kInvalidArgument);
}

// fgad_chain_steps_total counts every chain step of a single delete, the
// direct ones in plan_delete as well as those inside prefixes(). At n = 16
// the tree is complete, so k (item 0) and the balancing leaf t (the last
// leaf) both sit at depth l = j = 4 and the general case applies:
// 2l for the two prefix walks, 2 for the old key and the collision check,
// 2l for the deltas, j for t's post-adjustment path, 1 for the promoted
// sibling and 1 for t's new link: 4l + j + 4 = 24.
TEST(DeleteCommitValidation, PlanDeleteCountsEveryChainStep) {
  Harness h(HashAlg::kSha1, 12);
  h.outsource(16);
  auto slot = h.store().items().find(0);
  ASSERT_TRUE(slot.has_value());
  auto info = h.store().delete_begin(*slot);
  ASSERT_TRUE(info.is_ok());
  ASSERT_EQ(info.value().path.depth(), 4u);
  ASSERT_EQ(info.value().t_path.depth(), 4u);
  MasterKey fresh = MasterKey::generate(h.rnd(), h.math().width());
  obs::Counter& steps =
      obs::Registry::instance().counter("fgad_chain_steps_total");
  const std::uint64_t before = steps.value();
  auto plan = h.math().plan_delete(info.value(), h.master().value(),
                                   fresh.value(), h.rnd());
  ASSERT_TRUE(plan.is_ok());
  ASSERT_TRUE(plan.value().commit.has_step2);
  EXPECT_EQ(steps.value() - before, 24u);
}

// SHA-256 variant: the scheme is hash-agnostic.
class DeleteSha256 : public TestWithParam<std::size_t> {};

TEST_P(DeleteSha256, WorksWithWiderModulators) {
  const std::size_t n = GetParam();
  Harness h(HashAlg::kSha256, 21);
  h.outsource(n);
  Xoshiro256 rng(n);
  auto ids = h.live_ids();
  for (int round = 0; round < 3 && !ids.empty(); ++round) {
    const std::uint64_t id = ids[rng.next_below(ids.size())];
    ASSERT_TRUE(h.erase(id));
    h.verify_all();
    if (::testing::Test::HasFailure()) return;
    ids = h.live_ids();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeleteSha256, ::testing::Values(2, 5, 16, 33));

}  // namespace
}  // namespace fgad::test
