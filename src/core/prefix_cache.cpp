#include "core/prefix_cache.h"

#include "obs/metrics.h"

namespace fgad::core {

Md PrefixCache::derive_key(const ModulatedHashChain& chain, const Md& master,
                           const PathView& path, const Md& leaf_mod) {
  // Find the deepest path node whose prefix value is cached. nodes[0] is
  // the root, whose prefix is the master key itself (never cached).
  const std::size_t depth = path.depth();  // == links.size()
  std::size_t start = depth;
  auto it = map_.end();
  while (start > 0) {
    it = map_.find(path.nodes[start]);
    if (it != map_.end()) {
      break;
    }
    --start;
  }

  static obs::Counter& cache_hits =
      obs::Registry::instance().counter("fgad_prefix_cache_hits_total");
  static obs::Counter& cache_misses =
      obs::Registry::instance().counter("fgad_prefix_cache_misses_total");
  static obs::Counter& cache_steps_saved =
      obs::Registry::instance().counter("fgad_prefix_cache_steps_saved_total");
  Md cur;
  if (start == 0) {
    cur = master;
    ++misses_;
    cache_misses.inc();
  } else {
    cur = it->second;
    ++hits_;
    steps_saved_ += start;
    cache_hits.inc();
    cache_steps_saved.inc(start);
  }
  // Hash the missing suffix, caching each node's prefix along the way.
  ModulatedHashChain::count_steps(depth - start + 1);
  for (std::size_t i = start; i < depth; ++i) {
    cur = chain.step(cur, path.links[i]);
    map_.emplace(path.nodes[i + 1], cur);
  }
  return chain.step(cur, leaf_mod);
}

}  // namespace fgad::core
