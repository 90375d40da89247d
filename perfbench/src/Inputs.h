// Seeded input generators of the workloads. Each takes the seed
// as an argument; the flow under test receives only what they return.
#pragma once

#include "core/Tuner.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// `depth` back-to-back Helmholtz-style contractions at extent 11 (the
/// chain bench_dist_sweep sweeps).
std::string chainSource(int depth);

/// The inverse Helmholtz operator of paper Fig. 1 at extent p + 1.
std::string helmholtzSource(int extent);

/// The chain workloads' design space: 5 x 5 x 2 x 2 x 2 = 200 points.
/// It does not depend on the seed: the canonical report of the sweep is
/// checked against a committed digest.
std::vector<cfd::TuneAxis> chainSweepSpace(std::uint64_t seed);

/// One compile request of serve-mix.
struct ServeVariant {
  int extent = 0;
  std::vector<std::pair<std::string, std::string>> params;

  std::string key() const; ///< "extent=.. unroll=.. sharing=.. m=.."
};

/// `count` requests of round `round`: a Zipf-like draw (exponent 1.1)
/// over the 13 x 3 x 2 x 3 small Helmholtz variants (extents 4..16,
/// unroll 1|2|4, sharing 0|1, m 1|2|4 — all feasible), whose
/// popularity order is itself a per-round seeded permutation.
std::vector<ServeVariant> drawServeMix(std::uint64_t seed, int round,
                                       int count);

} // namespace perfbench
