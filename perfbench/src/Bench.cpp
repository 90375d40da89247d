#include "Bench.h"
#include "Replay.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

void WorkloadResult::fail(const std::string& reason, std::int64_t count) {
  failed += count;
  if (failures.size() < 8)
    failures.push_back(reason);
}

double median(std::vector<double> values) {
  if (values.empty())
    return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty())
    return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peakRssMb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

void freshDirectory(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

void settleDisk() { ::sync(); }

void addTraceLayers(WorkloadResult& result, const Tracer& tracer,
                    const ReplayCounts& replay) {
  const std::map<std::string, double> self = tracer.selfMillis();
  const auto selfOf = [&self](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second;
  };
  static const std::pair<const char*, const char*> kSpanLayers[] = {
      {"dsl.parse", "dsl.parse_ms"},
      {"ir.lower", "ir.lower_ms"},
      {"ir.optimize", "ir.optimize_ms"},
      {"sched.schedule", "sched.schedule_ms"},
      {"sched.reschedule", "sched.reschedule_ms"},
      {"mem.liveness", "mem.liveness_ms"},
      {"mem.compat_graph", "mem.compat_graph_ms"},
      {"mem.plan", "mem.plan_ms"},
      {"hls.analyze", "hls.analyze_ms"},
      {"sysgen.generate", "sysgen.generate_ms"},
      {"store.publish", "store.publish_ms"},
      {"store.load", "store.load_ms"},
      {"eval.reference", "eval.reference_ms"},
      {"eval.execute", "eval.execute_ms"},
  };
  for (const auto& [span, metric] : kSpanLayers)
    result.layer(metric, selfOf(span), "ms");
  result.layer("ir.ops_after_optimize",
               static_cast<double>(replay.opsAfterOptimize), "count");
  result.layer("mem.compat_graph_builds",
               static_cast<double>(replay.compatBuilds), "count");
  result.layer("mem.compat_edges", static_cast<double>(replay.compatEdges),
               "count");
  result.layer("core.stage_keys_distinct",
               static_cast<double>(replay.distinctKeys), "count");
  result.layer("trace.spans", static_cast<double>(tracer.spanCount()),
               "count");
}

void setEndToEnd(WorkloadResult& result, double setupSeconds,
                 double pointsPerSecond, double p50Ms, double p99Ms,
                 double compileColdMs, double bestLatencyCycles) {
  result.set("setup_s", setupSeconds, "s");
  result.set("points_per_s", pointsPerSecond, "1/s");
  result.set("request_p50_ms", p50Ms, "ms");
  result.set("request_p99_ms", p99Ms, "ms");
  result.set("compile_cold_ms", compileColdMs, "ms");
  result.set("best_latency_cycles", bestLatencyCycles, "cycles");
  const double attempted =
      static_cast<double>(std::max<std::int64_t>(result.attempted, 1));
  result.set("correct_frac",
             static_cast<double>(result.attempted - result.failed) /
                 attempted,
             "ratio");
  result.set("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace perfbench
