// Ablation A4: google-benchmark micro suite for the core primitives —
// chain steps, key derivation by depth, delete planning by tree size, item
// sealing by payload size, and the server's tree mutations with duplicate
// tracking on and off. These are the constants behind Figures 5/6.
// Unless the caller passes its own --benchmark_out, results are also written
// to BENCH_micro_core.json (google-benchmark's native JSON format).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "core/batch_derive.h"
#include "core/bulk_geometry.h"
#include "core/client_math.h"
#include "core/item_codec.h"
#include "core/outsource.h"
#include "core/tree.h"
#include "crypto/random.h"
#include "crypto/secure_buffer.h"

namespace {

using namespace fgad;
using core::BatchDeriver;
using core::ClientMath;
using core::ItemCodec;
using core::ModulationTree;
using core::ModulatedHashChain;
using core::NodeId;
using crypto::DeterministicRandom;
using crypto::HashAlg;
using crypto::MasterKey;
using crypto::Md;

void BM_ChainStep(benchmark::State& state) {
  const auto alg = static_cast<HashAlg>(state.range(0));
  ModulatedHashChain chain(alg);
  DeterministicRandom rnd(1);
  Md cur = rnd.random_md(chain.width());
  const Md x = rnd.random_md(chain.width());
  for (auto _ : state) {
    cur = chain.step(cur, x);
    benchmark::DoNotOptimize(cur);
  }
}
BENCHMARK(BM_ChainStep)
    ->Arg(static_cast<int>(HashAlg::kSha1))
    ->Arg(static_cast<int>(HashAlg::kSha256));

void BM_ChainEvalByDepth(benchmark::State& state) {
  ModulatedHashChain chain(HashAlg::kSha1);
  DeterministicRandom rnd(2);
  const Md k = rnd.random_md(20);
  std::vector<Md> mods(static_cast<std::size_t>(state.range(0)));
  for (auto& m : mods) m = rnd.random_md(20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.eval(k, mods));
  }
}
BENCHMARK(BM_ChainEvalByDepth)->RangeMultiplier(2)->Range(4, 32);

struct TreeFixture {
  explicit TreeFixture(std::size_t n)
      : rnd(n),
        math(HashAlg::kSha1),
        tree(ModulationTree::Config{HashAlg::kSha1, false}),
        master(MasterKey::generate(rnd, 20)) {
    tree.build(
        n, [&](NodeId) { return rnd.random_md(20); },
        [&](NodeId v) {
          return std::pair<Md, std::uint64_t>(rnd.random_md(20), v);
        });
  }
  DeterministicRandom rnd;
  ClientMath math;
  ModulationTree tree;
  MasterKey master;
};

void BM_DeriveKeyByTreeSize(benchmark::State& state) {
  TreeFixture f(static_cast<std::size_t>(state.range(0)));
  const NodeId leaf = f.tree.last_leaf();
  const auto path = f.tree.path_to(leaf);
  const Md leaf_mod = f.tree.leaf_mod(leaf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.math.derive_key(f.master.value(), path, leaf_mod));
  }
}
BENCHMARK(BM_DeriveKeyByTreeSize)->RangeMultiplier(16)->Range(1 << 6, 1 << 22);

void BM_PlanDeleteByTreeSize(benchmark::State& state) {
  TreeFixture f(static_cast<std::size_t>(state.range(0)));
  const NodeId leaf =
      static_cast<NodeId>(f.tree.node_count() / 2 + 1);  // some deep leaf
  const auto info = f.tree.delete_info_for(f.tree.is_leaf(leaf)
                                               ? leaf
                                               : f.tree.last_leaf());
  const MasterKey fresh = MasterKey::generate(f.rnd, 20);
  for (auto _ : state) {
    auto plan =
        f.math.plan_delete(info, f.master.value(), fresh.value(), f.rnd);
    if (!plan) {
      state.SkipWithError("plan_delete failed");
      return;
    }
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanDeleteByTreeSize)
    ->RangeMultiplier(16)
    ->Range(1 << 6, 1 << 22);

void BM_DeriveAllKeys(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  DeterministicRandom rnd(3);
  ClientMath math(HashAlg::kSha1);
  const Md k = rnd.random_md(20);
  std::vector<Md> links(fgad::core::node_count_for(n));
  for (std::size_t v = 1; v < links.size(); ++v) links[v] = rnd.random_md(20);
  std::vector<Md> leaf_mods(n);
  for (auto& m : leaf_mods) m = rnd.random_md(20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math.derive_all_keys(k, links, leaf_mods));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DeriveAllKeys)->Arg(1 << 10)->Arg(1 << 14);

// The parallel bulk engine against the scalar BM_DeriveAllKeys above:
// same derivation, partitioned across a thread pool. Args are
// (n, threads); threads = 1 is the inline seed-identical path.
void BM_BatchDeriveAllKeys(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  DeterministicRandom rnd(3);
  const Md k = rnd.random_md(20);
  std::vector<Md> links(fgad::core::node_count_for(n));
  for (std::size_t v = 1; v < links.size(); ++v) links[v] = rnd.random_md(20);
  std::vector<Md> leaf_mods(n);
  for (auto& m : leaf_mods) m = rnd.random_md(20);
  BatchDeriver::Options opts;
  opts.threads = threads;
  const BatchDeriver deriver(HashAlg::kSha1, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deriver.derive_all_keys(k, links, leaf_mods));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BatchDeriveAllKeys)
    ->ArgsProduct({{1 << 14, 1 << 18}, {1, 2, 4, 8}});

void BM_SealByPayload(benchmark::State& state) {
  ItemCodec codec(HashAlg::kSha1);
  DeterministicRandom rnd(4);
  const Md key = rnd.random_md(20);
  const Bytes m(static_cast<std::size_t>(state.range(0)), 0x5a);
  std::uint64_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.seal(key, m, r++, rnd));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SealByPayload)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_OpenByPayload(benchmark::State& state) {
  ItemCodec codec(HashAlg::kSha1);
  DeterministicRandom rnd(5);
  const Md key = rnd.random_md(20);
  const Bytes m(static_cast<std::size_t>(state.range(0)), 0x5a);
  const Bytes sealed = codec.seal(key, m, 1, rnd);
  for (auto _ : state) {
    auto opened = codec.open(key, sealed);
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OpenByPayload)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_TreePathTo(benchmark::State& state) {
  TreeFixture f(static_cast<std::size_t>(state.range(0)));
  const NodeId leaf = f.tree.last_leaf();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tree.path_to(leaf));
  }
}
BENCHMARK(BM_TreePathTo)->Arg(1 << 10)->Arg(1 << 20);

void BM_TreeDeleteInfo(benchmark::State& state) {
  TreeFixture f(static_cast<std::size_t>(state.range(0)));
  const NodeId leaf = f.tree.last_leaf() - 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree.delete_info_for(f.tree.is_leaf(leaf) ? leaf
                                                    : f.tree.last_leaf()));
  }
}
BENCHMARK(BM_TreeDeleteInfo)->Arg(1 << 10)->Arg(1 << 20);

// Plans a bulk deletion of m = 16 leaves spread over the tree. The client
// verifier's ledger is sized by the bundle's mentions, so this should grow
// with log n, not with n.
void BM_PlanDeleteManyByTreeSize(benchmark::State& state) {
  TreeFixture f(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kM = 16;
  const std::size_t n = f.tree.leaf_count();
  std::vector<NodeId> leaves;
  for (std::size_t i = 0; i < kM; ++i) {
    leaves.push_back(static_cast<NodeId>(n - 1 + i * (n / kM) + i));
  }
  const auto info = f.tree.delete_many_info_for(leaves);
  const MasterKey fresh = MasterKey::generate(f.rnd, 20);
  for (auto _ : state) {
    auto plan =
        f.math.plan_delete_many(info, f.master.value(), fresh.value(), f.rnd);
    if (!plan) {
      state.SkipWithError("plan_delete_many failed");
      return;
    }
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanDeleteManyByTreeSize)->Arg(1 << 14)->Arg(1 << 20);

// Server-side commit application on a tree of n leaves, duplicate tracking
// off (0) or on (1). Commits carry random modulators (the tree checks shape
// and duplicates, not key preservation); only apply_* is timed. The tree
// is rebuilt, untimed, once deletions have halved it.
class ApplyFixture {
 public:
  ApplyFixture(std::size_t n, bool track)
      : n_(n), rnd_(n), tree_(ModulationTree::Config{HashAlg::kSha1, track}) {
    for (auto& d : deltas_) d = rnd_.random_md(20);
    rebuild();
  }

  ModulationTree& tree() { return tree_; }

  void rebuild_if_halved() {
    if (tree_.leaf_count() < n_ / 2) rebuild();
  }

  NodeId random_leaf() {
    const std::size_t n = tree_.leaf_count();
    return static_cast<NodeId>(n - 1 + rnd_.random_u64() % n);
  }

  const Md& delta() { return deltas_[next_delta_++ % deltas_.size()]; }

  // A value no tree modulator equals (the tree's values are random).
  Md fresh() {
    Md m = Md::zero(20);
    ++fresh_counter_;
    std::memcpy(m.data(), &fresh_counter_, sizeof(fresh_counter_));
    return m;
  }

 private:
  void rebuild() {
    tree_.build(
        n_, [&](NodeId) { return rnd_.random_md(20); },
        [&](NodeId v) {
          return std::pair<Md, std::uint64_t>(rnd_.random_md(20), v);
        });
  }

  std::size_t n_;
  DeterministicRandom rnd_;
  ModulationTree tree_;
  std::array<Md, 1024> deltas_;
  std::size_t next_delta_ = 0;
  std::uint64_t fresh_counter_ = 0;
};

// Times one apply_* call; `fn` returns its Result.
template <typename Fn>
void time_one(benchmark::State& state, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = fn();
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(result);
  state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  if (!result) state.SkipWithError("apply failed");
}

void BM_TreeApplyDelete(benchmark::State& state) {
  ApplyFixture f(static_cast<std::size_t>(state.range(0)), state.range(1) != 0);
  for (auto _ : state) {
    f.rebuild_if_halved();
    ModulationTree& tree = f.tree();
    core::DeleteCommit c;
    c.leaf = f.random_leaf();
    c.deltas.resize(core::depth_of(c.leaf));
    for (Md& d : c.deltas) d = f.delta();
    const NodeId last = tree.last_leaf();
    c.has_balance = true;
    c.promoted_leaf_mod = f.fresh();
    c.has_step2 = c.leaf != last && c.leaf != last - 1;
    if (c.has_step2) {
      c.t_new_link = f.fresh();
      c.t_new_leaf_mod = f.fresh();
    }
    time_one(state, [&] { return tree.apply_delete(c); });
  }
}
BENCHMARK(BM_TreeApplyDelete)
    ->ArgsProduct({{1 << 14, 1 << 20}, {0, 1}})
    ->UseManualTime();

void BM_TreeApplyDeleteMany(benchmark::State& state) {
  ApplyFixture f(static_cast<std::size_t>(state.range(0)), state.range(1) != 0);
  constexpr std::size_t kM = 16;
  for (auto _ : state) {
    f.rebuild_if_halved();
    ModulationTree& tree = f.tree();
    core::DeleteManyCommit c;
    while (c.leaves.size() < kM) {
      const NodeId d = f.random_leaf();
      if (std::find(c.leaves.begin(), c.leaves.end(), d) == c.leaves.end()) {
        c.leaves.push_back(d);
      }
    }
    std::sort(c.leaves.begin(), c.leaves.end());
    c.deltas.resize(core::merged_cut_nodes(tree.node_count(), c.leaves).size());
    for (Md& d : c.deltas) d = f.delta();
    for (NodeId h : core::bulk_geometry(tree.node_count(), c.leaves).holes) {
      core::DeleteManyCommit::Reloc rl;
      rl.new_leaf_mod = f.fresh();
      rl.has_new_link = std::binary_search(c.leaves.begin(), c.leaves.end(), h);
      if (rl.has_new_link) rl.new_link = f.fresh();
      c.relocs.push_back(rl);
    }
    time_one(state, [&] { return tree.apply_delete_many(c); });
  }
}
BENCHMARK(BM_TreeApplyDeleteMany)
    ->ArgsProduct({{1 << 14, 1 << 20}, {0, 1}})
    ->UseManualTime();

}  // namespace

// BENCHMARK_MAIN, plus default JSON output (BENCH_micro_core.json) when the
// caller did not request its own --benchmark_out destination.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_core.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_argc = static_cast<int>(args.size());
  benchmark::Initialize(&args_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
