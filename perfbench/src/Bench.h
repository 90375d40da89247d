// Shared plumbing of the end-to-end benchmark: run options, the result
// every workload fills, sample statistics, and per-run scratch
// directories.
#pragma once

#include "Trace.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double millisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Committed digest of the canonical chain-sweep report.
  std::string sweepDigestPath;
  /// Parallelism of the bench process: min(4, nproc).
  int threads = 1;
};

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload reports. Operations are the units the output
/// checks count (design points, requests, kernels).
struct WorkloadResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures; ///< first few failure reasons
  std::vector<std::string> notes;    ///< printed beside the metrics
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> perLayer;

  /// Counts `count` failed operations, keeping the first few reasons.
  void fail(const std::string& reason, std::int64_t count = 1);
  void set(const std::string& name, double value, const std::string& unit) {
    endToEnd[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    perLayer[name] = {value, unit};
  }
};

/// Whether a workload starts round `round`: at least three rounds, then
/// until `seconds` have passed since `start`.
inline bool keepGoing(int round, Clock::time_point start, double seconds) {
  return round < 3 || millisSince(start) < seconds * 1000.0;
}

/// Median of a sample (0 for an empty one).
double median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> values, double p);

/// Peak resident set in MB: the larger of this process and its largest
/// reaped child (RUSAGE_CHILDREN).
double peakRssMb();

/// Creates `path` afresh (removing whatever was there).
void freshDirectory(const std::string& path);

/// Flushes the file system (sync(2)) before and after a run, outside
/// every timed span, so one run's writeback and deletions do not land in
/// the next run's measurement.
void settleDisk();

struct ReplayCounts;

/// Per-layer metrics common to every traced run: self time per span
/// name (stage replay, store replay, eval) and the replay's counts.
void addTraceLayers(WorkloadResult& result, const Tracer& tracer,
                    const ReplayCounts& replay);

/// The end-to-end metrics every workload reports (BENCHMARK.json).
void setEndToEnd(WorkloadResult& result, double setupSeconds,
                 double pointsPerSecond, double p50Ms, double p99Ms,
                 double compileColdMs, double bestLatencyCycles);

// The workloads; each runs for options.seconds and, in a traced run,
// fills the per-layer metrics from `tracer` and its own replay.
WorkloadResult runChainSweep(const RunOptions& options, Tracer& tracer);
WorkloadResult runChainSweepDist(const RunOptions& options, Tracer& tracer);
WorkloadResult runServeMix(const RunOptions& options, Tracer& tracer);

} // namespace perfbench
