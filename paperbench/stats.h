// Statistics helpers: percentiles over recorded samples and before/after
// deltas of the library's obs::Registry counters and histograms.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace paperbench {

/// Nearest-rank percentile of `v` (sorted in place); 0 for no samples.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(p / 100.0 * v.size() + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(v, 50); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0;
  }
  double s = 0;
  for (double x : v) {
    s += x;
  }
  return s / static_cast<double>(v.size());
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Cumulative values of every registered counter and histogram.
struct RegistrySnap {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> hists;

  static RegistrySnap take() {
    RegistrySnap s;
    auto& reg = fgad::obs::Registry::instance();
    for (const auto& [name, c] : reg.all_counters()) {
      s.counters[name] = c->value();
    }
    for (const auto& [name, h] : reg.all_histograms()) {
      s.hists[name] = {h->count(), h->sum()};
    }
    return s;
  }
};

/// Difference between two registry snapshots.
class RegistryDelta {
 public:
  RegistryDelta(const RegistrySnap& before, const RegistrySnap& after)
      : before_(before), after_(after) {}

  double counter(const std::string& name) const {
    return static_cast<double>(get(after_.counters, name) -
                               get(before_.counters, name));
  }
  double hist_count(const std::string& name) const {
    return static_cast<double>(get(after_.hists, name).first -
                               get(before_.hists, name).first);
  }
  double hist_sum(const std::string& name) const {
    return static_cast<double>(get(after_.hists, name).second -
                               get(before_.hists, name).second);
  }
  double hist_mean(const std::string& name) const {
    return ratio(hist_sum(name), hist_count(name));
  }

 private:
  template <class M>
  static typename M::mapped_type get(const M& m, const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? typename M::mapped_type{} : it->second;
  }
  const RegistrySnap& before_;
  const RegistrySnap& after_;
};

}  // namespace paperbench
