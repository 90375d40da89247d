#include "Inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// splitmix64: the benchmark's only random source.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a counter-based stream.
double uniform(std::uint64_t& state) {
  state = mix64(state);
  return static_cast<double>(state >> 11) * 0x1.0p-53;
}

std::string cube(const std::string& n) { return n + " " + n + " " + n; }

} // namespace

std::string chainSource(int depth) {
  const std::string n = "11";
  std::string src;
  src += "var input  S : [" + n + " " + n + "]\n";
  src += "var input  u : [" + cube(n) + "]\n";
  src += "var output v : [" + cube(n) + "]\n";
  for (int i = 0; i + 1 < depth; ++i)
    src += "var t" + std::to_string(i) + " : [" + cube(n) + "]\n";
  std::string prev = "u";
  for (int i = 0; i < depth; ++i) {
    const std::string name =
        i + 1 < depth ? "t" + std::to_string(i) : std::string("v");
    src += name + " = S # S # S # " + prev + " . [[1 6] [3 7] [5 8]]\n";
    prev = name;
  }
  return src;
}

std::string helmholtzSource(int extent) {
  const std::string n = std::to_string(extent);
  std::string src;
  src += "var input  S : [" + n + " " + n + "]\n";
  src += "var input  D : [" + cube(n) + "]\n";
  src += "var input  u : [" + cube(n) + "]\n";
  src += "var output v : [" + cube(n) + "]\n";
  src += "var t : [" + cube(n) + "]\n";
  src += "var r : [" + cube(n) + "]\n";
  src += "t = S # S # S # u . [[1 6] [3 7] [5 8]]\n";
  src += "r = D * t\n";
  src += "v = S # S # S # r . [[0 6] [2 7] [4 8]]\n";
  return src;
}

std::vector<cfd::TuneAxis> chainSweepSpace(std::uint64_t /*seed*/) {
  return {{"unroll", {"1", "2", "4", "8", "16"}},
          {"m", {"2", "4", "8", "16", "32"}},
          {"opt", {"0", "1"}},
          {"sharing", {"0", "1"}},
          {"objective", {"hw", "sw"}}};
}

std::string ServeVariant::key() const {
  std::string key = "extent=" + std::to_string(extent);
  for (const auto& [name, value] : params)
    key += " " + name + "=" + value;
  return key;
}

std::vector<ServeVariant> drawServeMix(std::uint64_t seed, int round,
                                       int count) {
  std::vector<ServeVariant> domain;
  for (int extent = 4; extent <= 16; ++extent)
    for (const char* unroll : {"1", "2", "4"})
      for (const char* sharing : {"0", "1"})
        for (const char* m : {"1", "2", "4"})
          domain.push_back(
              {extent, {{"unroll", unroll}, {"sharing", sharing}, {"m", m}}});

  // Each round (a fresh daemon) draws its own popularity order, a
  // seeded permutation of the domain: rounds and seeds differ in which
  // variants are hot, not in how skewed the mix is.
  std::uint64_t state =
      mix64(seed ^ mix64(static_cast<std::uint64_t>(round) + 0x5eedull));
  for (std::size_t i = domain.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(uniform(state) *
                                            static_cast<double>(i + 1));
    std::swap(domain[i], domain[j]);
  }
  std::vector<double> cdf(domain.size());
  double total = 0;
  for (std::size_t rank = 0; rank < domain.size(); ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), 1.1);
    cdf[rank] = total;
  }

  std::uint64_t draw = mix64(state);
  std::vector<ServeVariant> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double u = uniform(draw) * total;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    requests.push_back(domain[std::min(rank, domain.size() - 1)]);
  }
  return requests;
}

} // namespace perfbench
