// chain-sweep and chain-sweep-dist: the 200-point design space over the
// 40-contraction chain, swept in-process by a cold Session and sharded
// by dist::SweepCoordinator over forked single-thread worker daemons.
// Both render the canonical sweep report, which must match the
// committed digest byte for byte (expected infeasible verdicts
// included).
#include "Bench.h"
#include "Inputs.h"
#include "Replay.h"
#include "Validation.h"

#include "core/Session.h"
#include "dist/Coordinator.h"
#include "dist/WorkerPoolSpawner.h"
#include "hls/HlsModel.h"
#include "serve/Client.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>

namespace perfbench {

namespace {

constexpr int kChainDepth = 40;
constexpr std::size_t kPoints = 200;

std::string readDigest(const std::string& path) {
  std::ifstream in(path);
  std::string hash;
  std::string bytes;
  in >> hash >> bytes;
  return hash + " " + bytes;
}

/// "<FNV-1a 64 in hex> <byte count>" of the canonical report.
std::string reportDigest(const std::string& report) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : report) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(hex) + " " + std::to_string(report.size());
}

/// Modeled kernel latency of the fastest frontier point, in kernel
/// clock cycles (the report carries microseconds at the kernel clock).
double fastestFrontierCycles(const cfd::dist::DistSweepResult& report) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t index : report.frontier)
    best = std::min(best, report.rows[index].kernelUs);
  return std::round(best * cfd::hls::kKernelClockMHz);
}

/// Checks one round's canonical report against the committed digest;
/// every design point of a diverged report counts as failed.
void checkReport(WorkloadResult& result, const std::string& report,
                 std::size_t rows, const std::string& expected) {
  result.attempted += static_cast<std::int64_t>(kPoints);
  if (rows != kPoints) {
    result.fail("sweep returned " + std::to_string(rows) + " rows",
                static_cast<std::int64_t>(kPoints));
    return;
  }
  const std::string digest = reportDigest(report);
  if (digest != expected) {
    result.fail("sweep report digest " + digest + " != committed " +
                expected,
                static_cast<std::int64_t>(kPoints));
  }
}

/// Completion time of every point, from (time, points done) progress
/// events: point i is done at the first event whose count reaches i.
/// A sweep's percentiles are taken per round and their median reported,
/// so a slow spell of the machine moves a few rounds, not the tail.
std::vector<double>
pointLatencies(const std::vector<std::pair<double, std::size_t>>& events,
               double wallMs) {
  std::vector<double> latencies;
  latencies.reserve(kPoints);
  std::size_t next = 1;
  for (const auto& [time, done] : events)
    for (; next <= std::min(done, kPoints); ++next)
      latencies.push_back(time);
  for (; next <= kPoints; ++next)
    latencies.push_back(wallMs);
  return latencies;
}

/// Records progress events with their time since `start`.
class ProgressLog {
public:
  explicit ProgressLog(Clock::time_point start) : start_(start) {}
  void record(std::size_t done) {
    const double time = millisSince(start_);
    std::lock_guard<std::mutex> lock(mutex_);
    events_.emplace_back(time, done);
  }
  std::vector<std::pair<double, std::size_t>> events() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::sort(events_.begin(), events_.end());
    return events_;
  }

private:
  const Clock::time_point start_;
  std::mutex mutex_; // guards events_
  std::vector<std::pair<double, std::size_t>> events_;
};

/// Replays every stage key of the 200 points (traced runs only).
StageReplay replaySpace(Tracer& tracer, const std::string& source,
                        const std::vector<cfd::TuneAxis>& axes) {
  StageReplay replay(tracer);
  const auto variants = cfd::expandAxisVariants(axes, cfd::FlowOptions{});
  for (std::size_t i = 0; i < variants.size(); ++i)
    replay.replay(source, variants[i].options,
                  static_cast<std::int64_t>(i + 1));
  return replay;
}

} // namespace

WorkloadResult runChainSweep(const RunOptions& options, Tracer& tracer) {
  WorkloadResult result;
  const std::string expected = readDigest(options.sweepDigestPath);
  std::vector<double> setupSeconds, wallMs, p50Ms, p99Ms, bestCycles;
  std::vector<double> stageHits, stageMisses, flowHits, flowMisses, joins;

  const auto runStart = Clock::now();
  for (int round = 0; keepGoing(round, runStart, options.seconds); ++round) {
    const auto setupStart = Clock::now();
    const std::string source = chainSource(kChainDepth);
    const std::vector<cfd::TuneAxis> axes = chainSweepSpace(options.seed);
    cfd::Session session(cfd::SessionOptions{.workers = options.threads});
    // Readiness: the pool starts its threads on first use.
    session.workerPool().parallelFor(
        static_cast<std::size_t>(options.threads), options.threads,
        [](std::size_t) {});
    cfd::SweepRequest request(source);
    for (const cfd::TuneAxis& axis : axes)
      request.axis(axis.key, axis.values);
    setupSeconds.push_back(millisSince(setupStart) / 1000.0);

    const auto start = Clock::now();
    ProgressLog progress(start);
    request.onProgress(
        [&progress](std::size_t done, std::size_t) { progress.record(done); });
    std::optional<cfd::Expected<cfd::SweepResult>> swept;
    {
      ScopedSpan span(tracer, "core.sweep", 0, round + 1);
      swept.emplace(session.sweep(request));
    }
    const double wall = millisSince(start);
    if (!swept->ok()) {
      result.attempted += static_cast<std::int64_t>(kPoints);
      result.fail("sweep failed: " + swept->errorText(),
                  static_cast<std::int64_t>(kPoints));
      continue;
    }
    const cfd::dist::DistSweepResult report =
        cfd::dist::SweepCoordinator::fromSweepResult(**swept);
    checkReport(result, report.reportText(), (*swept)->rows().size(),
                expected);
    wallMs.push_back(wall);
    bestCycles.push_back(fastestFrontierCycles(report));
    const std::vector<double> latencies =
        pointLatencies(progress.events(), wall);
    p50Ms.push_back(percentile(latencies, 50));
    p99Ms.push_back(percentile(latencies, 99));

    const cfd::Session::Stats stats = session.stats();
    stageHits.push_back(static_cast<double>(stats.stageCache.hits));
    stageMisses.push_back(static_cast<double>(stats.stageCache.misses));
    flowHits.push_back(static_cast<double>(stats.flowCache.hits));
    flowMisses.push_back(static_cast<double>(stats.flowCache.misses));
    joins.push_back(static_cast<double>(stats.flowCache.inFlightJoins));
  }

  const double medianWall = median(wallMs);
  setEndToEnd(result, median(setupSeconds),
              medianWall > 0 ? static_cast<double>(kPoints) * 1000.0 /
                                   medianWall
                             : 0,
              median(p50Ms), median(p99Ms), medianWall, median(bestCycles));
  if (!tracer.enabled())
    return result;

  const std::string source = chainSource(kChainDepth);
  const auto axes = chainSweepSpace(options.seed);
  StageReplay replay = replaySpace(tracer, source, axes);

  // The replay must account for exactly the stages a 1-worker Session
  // computes: one StageCache miss per distinct stage key.
  cfd::Session serial(cfd::SessionOptions{.workers = 1});
  cfd::SweepRequest request(source);
  for (const cfd::TuneAxis& axis : axes)
    request.axis(axis.key, axis.values);
  const auto swept = serial.sweep(request);
  const std::int64_t serialMisses = serial.stats().stageCache.misses;
  ++result.attempted;
  if (!swept.ok() || serialMisses != replay.counts().distinctKeys)
    result.fail("replayed " + std::to_string(replay.counts().distinctKeys) +
                " distinct stage keys, 1-worker session missed " +
                std::to_string(serialMisses));

  // The store and eval layers, reached by no timed workload: every
  // replayed stage prefix is published to a fresh disk store and loaded
  // back, and the fastest frontier design is validated.
  const StageReplay::StoreCounts stored = replay.replayStore("store-replay");
  ++result.attempted;
  if (stored.failedLoads != 0)
    result.fail(std::to_string(stored.failedLoads) +
                " published store entries did not load back");
  result.layer("store.publishes", static_cast<double>(stored.publishes),
               "count");
  result.layer("store.hits", static_cast<double>(stored.hits), "count");
  result.layer("store.verify_failures",
               static_cast<double>(stored.verifyFailures), "count");
  result.layer("store.disk_bytes", stored.diskBytes, "B");
  if (swept.ok()) {
    const cfd::dist::DistSweepResult report =
        cfd::dist::SweepCoordinator::fromSweepResult(*swept);
    std::size_t fastest = report.frontier.front();
    for (std::size_t index : report.frontier)
      if (report.rows[index].kernelUs < report.rows[fastest].kernelUs)
        fastest = index;
    result.layer("eval.flops",
                 replayValidation(result, tracer,
                                  *swept->rows()[fastest].flow, options.seed),
                 "count");
  }
  const double speedup = modeledSpeedup();
  result.layer("sim.modeled_speedup", speedup, "x");
  result.notes.push_back(
      "modeled speedup of the default p=11 system over the A53 model, "
      "50,000 elements: " +
      std::to_string(speedup) + "x (paper: 12x)");
  addTraceLayers(result, tracer, replay.counts());

  const double hits = median(flowHits);
  const double misses = median(flowMisses);
  result.layer("core.stage_hits", median(stageHits), "count");
  result.layer("core.stage_misses", median(stageMisses), "count");
  result.layer("core.stage_useful_ratio",
               median(stageMisses) > 0
                   ? static_cast<double>(replay.counts().distinctKeys) /
                         median(stageMisses)
                   : 0,
               "ratio");
  result.layer("core.flow_hits", hits, "count");
  result.layer("core.flow_misses", misses, "count");
  result.layer("core.flow_inflight_joins", median(joins), "count");
  result.layer("core.flow_hit_frac",
               hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  result.layer("core.parallel_efficiency",
               replay.counts().stageMillis /
                   (medianWall * static_cast<double>(options.threads)),
               "ratio");
  return result;
}

WorkloadResult runChainSweepDist(const RunOptions& options, Tracer& tracer) {
  WorkloadResult result;
  const std::string expected = readDigest(options.sweepDigestPath);
  std::vector<double> setupSeconds, wallMs, p50Ms, p99Ms, bestCycles;
  std::vector<double> dispatched, retried, lost, workerMisses, tails;

  const auto runStart = Clock::now();
  for (int round = 0; keepGoing(round, runStart, options.seconds); ++round) {
    const auto setupStart = Clock::now();
    const std::string socketDir = "dist" + std::to_string(round);
    freshDirectory(socketDir);
    const std::string source = chainSource(kChainDepth);
    cfd::dist::DistSweepOptions sweep;
    sweep.source = source;
    sweep.axes = chainSweepSpace(options.seed);
    // Fresh workers every round: a warm worker would skip the stage
    // work this workload measures.
    cfd::dist::WorkerPoolSpawner pool({.workers = options.threads,
                                       .sessionWorkers = 1,
                                       .socketDir = socketDir});
    {
      ScopedSpan span(tracer, "dist.spawn", 0, round + 1);
      const cfd::Expected<bool> started = pool.start();
      if (!started.ok()) {
        result.attempted += static_cast<std::int64_t>(kPoints);
        result.fail("workers did not start: " + started.errorText(),
                    static_cast<std::int64_t>(kPoints));
        break;
      }
    }
    sweep.workerSockets = pool.socketPaths();
    setupSeconds.push_back(millisSince(setupStart) / 1000.0);

    const auto start = Clock::now();
    ProgressLog progress(start);
    sweep.onProgress = [&progress](std::size_t done, std::size_t) {
      progress.record(done);
    };
    std::optional<cfd::Expected<cfd::dist::DistSweepResult>> run;
    {
      ScopedSpan span(tracer, "dist.run", 0, round + 1);
      run.emplace(cfd::dist::SweepCoordinator(sweep).run());
    }
    const double wall = millisSince(start);
    if (!run->ok()) {
      result.attempted += static_cast<std::int64_t>(kPoints);
      result.fail("distributed sweep failed: " + run->errorText(),
                  static_cast<std::int64_t>(kPoints));
      continue;
    }
    checkReport(result, (*run)->reportText(), (*run)->rows.size(), expected);
    wallMs.push_back(wall);
    bestCycles.push_back(fastestFrontierCycles(**run));
    const auto events = progress.events();
    const std::vector<double> latencies = pointLatencies(events, wall);
    p50Ms.push_back(percentile(latencies, 50));
    p99Ms.push_back(percentile(latencies, 99));

    if (tracer.enabled()) {
      const cfd::dist::DistSweepStats& stats = (*run)->stats;
      dispatched.push_back(static_cast<double>(stats.chunksDispatched));
      retried.push_back(static_cast<double>(stats.chunksRetried));
      lost.push_back(static_cast<double>(stats.workersLost));
      // Tail: from the event that crossed 90% of the points to done.
      double tailStart = wall;
      for (const auto& [time, done] : events)
        if (done * 10 >= kPoints * 9) {
          tailStart = time;
          break;
        }
      tails.push_back(wall - tailStart);
      double misses = 0;
      for (const std::string& socket : pool.socketPaths()) {
        auto client = cfd::serve::Client::connect(socket);
        if (!client.ok())
          continue;
        cfd::serve::Request status;
        status.kind = cfd::serve::RequestKind::Status;
        const auto reply = client->call(status);
        if (reply.ok() && reply->ok)
          misses += static_cast<double>(
              reply->result.at("stats").at("stage_cache").at("misses")
                  .asInt());
      }
      workerMisses.push_back(misses);
    }
    pool.stopAll();
    std::filesystem::remove_all(socketDir);
  }

  const double medianWall = median(wallMs);
  setEndToEnd(result, median(setupSeconds),
              medianWall > 0 ? static_cast<double>(kPoints) * 1000.0 /
                                   medianWall
                             : 0,
              median(p50Ms), median(p99Ms), medianWall, median(bestCycles));
  if (!tracer.enabled())
    return result;

  const StageReplay replay = replaySpace(tracer, chainSource(kChainDepth),
                                         chainSweepSpace(options.seed));
  addTraceLayers(result, tracer, replay.counts());
  const double misses = median(workerMisses);
  result.layer("dist.chunks_dispatched", median(dispatched), "count");
  result.layer("dist.chunks_retried", median(retried), "count");
  result.layer("dist.workers_lost", median(lost), "count");
  result.layer("dist.worker_stage_misses", misses, "count");
  result.layer("dist.locality_ratio",
               misses > 0 ? static_cast<double>(
                                replay.counts().distinctKeys) /
                                misses
                          : 0,
               "ratio");
  result.layer("dist.tail_ms", median(tails), "ms");
  result.layer("core.parallel_efficiency",
               replay.counts().stageMillis /
                   (medianWall * static_cast<double>(options.threads)),
               "ratio");
  return result;
}

} // namespace perfbench
