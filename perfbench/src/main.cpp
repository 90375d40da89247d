// cfd_perfbench — the end-to-end benchmark of the CFDlang-to-FPGA flow.
//
//   cfd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--sweep-digest FILE]
//
// Run from the repository root. Runs one workload for S seconds in a
// fresh scratch directory under .bench_run/, checks
// its outputs, prints every metric by name and unit, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (tracing off). With
// --trace 1 the run measures the workload untraced for S/2 seconds,
// then traced for S/2 seconds, replays its stage keys, and reports the
// per-layer metrics plus the tracing overhead; the spans are written to
// .bench_run/traces/<workload>-<seed>.json.
//
// Exit status: 0 when every check passed, 1 when one failed (the JSON
// line is still printed), 2 on a usage error.
#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include <unistd.h>

namespace {

using namespace perfbench;

struct LayerSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A traced run
/// reports all of them; a layer a workload never reaches reads 0.
constexpr LayerSpec kPerLayer[] = {
    {"dsl.parse_ms", "ms"},
    {"ir.lower_ms", "ms"},
    {"ir.optimize_ms", "ms"},
    {"ir.ops_after_optimize", "count"},
    {"sched.schedule_ms", "ms"},
    {"sched.reschedule_ms", "ms"},
    {"mem.liveness_ms", "ms"},
    {"mem.compat_graph_ms", "ms"},
    {"mem.compat_graph_builds", "count"},
    {"mem.compat_edges", "count"},
    {"mem.plan_ms", "ms"},
    {"hls.analyze_ms", "ms"},
    {"sysgen.generate_ms", "ms"},
    {"core.stage_hits", "count"},
    {"core.stage_misses", "count"},
    {"core.stage_keys_distinct", "count"},
    {"core.stage_useful_ratio", "ratio"},
    {"core.flow_hits", "count"},
    {"core.flow_misses", "count"},
    {"core.flow_inflight_joins", "count"},
    {"core.flow_hit_frac", "ratio"},
    {"core.parallel_efficiency", "ratio"},
    {"store.publishes", "count"},
    {"store.publish_ms", "ms"},
    {"store.hits", "count"},
    {"store.load_ms", "ms"},
    {"store.verify_failures", "count"},
    {"store.disk_bytes", "B"},
    {"eval.reference_ms", "ms"},
    {"eval.execute_ms", "ms"},
    {"eval.flops", "count"},
    {"serve.encode_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.bytes_per_request", "B"},
    {"serve.compile_ms_p50", "ms"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.overhead_ms_p99", "ms"},
    {"serve.first_seen_frac", "ratio"},
    {"serve.protocol_errors", "count"},
    {"dist.chunks_dispatched", "count"},
    {"dist.chunks_retried", "count"},
    {"dist.workers_lost", "count"},
    {"dist.worker_stage_misses", "count"},
    {"dist.locality_ratio", "ratio"},
    {"dist.tail_ms", "ms"},
    {"sim.modeled_speedup", "x"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
    {"check.failed_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "cfd_perfbench: " << message
            << "\nusage: cfd_perfbench --workload chain-sweep|"
               "chain-sweep-dist|serve-mix --seed N "
               "--seconds S --trace 0|1 [--sweep-digest FILE]\n";
  std::exit(2);
}

WorkloadResult runWorkload(const RunOptions& options, Tracer& tracer) {
  if (options.workload == "chain-sweep")
    return runChainSweep(options, tracer);
  if (options.workload == "chain-sweep-dist")
    return runChainSweepDist(options, tracer);
  return runServeMix(options, tracer);
}

std::string jsonNumber(double value) {
  if (!std::isfinite(value))
    return "0";
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\')
      out += '\\';
    out += c;
  }
  return out + "\"";
}

} // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool haveWorkload = false, haveSeed = false, haveSeconds = false,
       haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc)
      usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        haveWorkload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        haveSeed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        haveSeconds = options.seconds > 0;
      } else if (arg == "--trace") {
        options.trace = value == "1";
        haveTrace = value == "0" || value == "1";
      } else if (arg == "--sweep-digest") {
        options.sweepDigestPath = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  static const std::set<std::string> kWorkloads = {
      "chain-sweep", "chain-sweep-dist", "serve-mix"};
  if (!haveWorkload || kWorkloads.count(options.workload) == 0)
    usage("unknown or missing --workload");
  if (!haveSeed || !haveSeconds || !haveTrace)
    usage("--seed, --seconds and --trace are required");

  // Every path below is inside the run directory, so socket paths stay
  // short however deep the checkout is.
  namespace fs = std::filesystem;
  if (options.sweepDigestPath.empty())
    options.sweepDigestPath = "perfbench/chain_sweep_report.digest";
  options.sweepDigestPath = fs::absolute(options.sweepDigestPath).string();
  const fs::path runDir = fs::absolute(
      ".bench_run/" + options.workload + "-" + std::to_string(options.seed) +
      "-" + std::to_string(::getpid()));
  const fs::path traceDir = runDir.parent_path() / "traces";
  freshDirectory(runDir.string());
  fs::current_path(runDir);
  // Start from a quiet disk: writeback left by the build or an earlier
  // run would otherwise land inside the measurement.
  settleDisk();
  // Sessions must not pick up a store from the environment.
  ::unsetenv("CFD_CACHE_DIR");
  options.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  WorkloadResult result;
  if (!options.trace) {
    Tracer off(false);
    result = runWorkload(options, off);
  } else {
    RunOptions half = options;
    half.seconds = options.seconds / 2;
    Tracer off(false);
    const WorkloadResult untraced = runWorkload(half, off);
    Tracer on(true);
    result = runWorkload(half, on);
    const double base = untraced.endToEnd.at("request_p50_ms").value;
    const double traced = result.endToEnd.at("request_p50_ms").value;
    result.layer("trace.overhead_ms", traced - base, "ms");
    result.layer("trace.overhead_pct",
                 base > 0 ? 100.0 * (traced - base) / base : 0, "%");
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    result.failures.insert(result.failures.end(), untraced.failures.begin(),
                           untraced.failures.end());
    fs::create_directories(traceDir);
    const fs::path tracePath =
        traceDir / (options.workload + "-" + std::to_string(options.seed) +
                    ".json");
    if (!on.writeChromeTrace(tracePath.string()))
      result.fail("cannot write " + tracePath.string());
    result.layer("check.failed_frac",
                 static_cast<double>(result.failed) /
                     static_cast<double>(std::max<std::int64_t>(
                         result.attempted, 1)),
                 "ratio");
  }
  fs::current_path(runDir.parent_path());
  fs::remove_all(runDir);
  settleDisk(); // the deletions settle here, not in the next run

  // Human-readable table, then the one-line JSON result.
  std::map<std::string, Metric> metrics;
  if (options.trace) {
    for (const LayerSpec& spec : kPerLayer) {
      const auto it = result.perLayer.find(spec.name);
      metrics[spec.name] = {it == result.perLayer.end() ? 0.0
                                                        : it->second.value,
                            spec.unit};
    }
    for (const auto& [name, metric] : result.perLayer)
      if (metrics.count(name) == 0)
        result.fail("per-layer metric " + name + " is not declared");
  } else {
    metrics = result.endToEnd;
  }
  std::cout << "workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace "
            << (options.trace ? 1 : 0) << " threads " << options.threads
            << "\n";
  for (const auto& [name, metric] : metrics)
    std::cout << "  " << name << " " << jsonNumber(metric.value) << " "
              << metric.unit << "\n";
  for (const std::string& note : result.notes)
    std::cout << "  " << note << "\n";
  for (const std::string& failure : result.failures)
    std::cerr << "check failed: " << failure << "\n";

  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += (first ? "" : ", ") + jsonString(name) +
            ": {\"value\": " + jsonNumber(metric.value) +
            ", \"unit\": " + jsonString(metric.unit) + "}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return result.failed == 0 ? 0 : 1;
}
