#include "core/chain.h"

#include "obs/metrics.h"

namespace fgad::core {

namespace {
// One shared counter of F(K,M) chain steps across every chain instance —
// incremented once per call with the batch size, not per step, so the
// hot loop stays untouched.
obs::Counter& chain_steps() {
  static obs::Counter& c =
      obs::Registry::instance().counter("fgad_chain_steps_total");
  return c;
}
}  // namespace

void ModulatedHashChain::count_steps(std::uint64_t n) { chain_steps().inc(n); }

Md ModulatedHashChain::eval(const Md& master, std::span<const Md> mods) const {
  chain_steps().inc(mods.size());
  Md cur = master;
  for (const Md& x : mods) {
    cur = step(cur, x);
  }
  return cur;
}

std::vector<Md> ModulatedHashChain::prefixes(const Md& master,
                                             std::span<const Md> mods) const {
  chain_steps().inc(mods.size());
  std::vector<Md> out;
  out.reserve(mods.size() + 1);
  out.push_back(master);
  for (const Md& x : mods) {
    out.push_back(step(out.back(), x));
  }
  return out;
}

}  // namespace fgad::core
