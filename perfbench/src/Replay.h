// Stage replay of the traced run.
//
// The rows a sweep returns cannot give per-stage times: infeasible rows
// carry no Flow, and stages adopted from a cache read 0 ms. So the
// traced run takes every distinct stage key a workload computes
// (cfd::computeStageKeys) and replays that stage once through its
// public entry point, under one span per call:
//
//   dsl.parse        dsl::parseAndCheck
//   ir.lower         ir::lower
//   ir.optimize      ir::optimize
//   sched.schedule   sched::buildReferenceSchedule
//   sched.reschedule sched::reschedule
//   mem.liveness     mem::analyzeLiveness
//   mem.compat_graph mem::buildCompatibilityGraph  } one stage key,
//   mem.plan         mem::planMemory               } timed apart
//   hls.analyze      hls::analyzeKernel
//   sysgen.generate  sysgen::generateSystem
//
// A stage that throws (an infeasible point) ends that point's replay,
// exactly where the pipeline stops; its key is remembered so the
// failure is replayed once too.
#pragma once

#include "Trace.h"

#include "core/StageCache.h"
#include "core/StageGraph.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

struct ReplayCounts {
  std::int64_t distinctKeys = 0;  ///< stages replayed successfully
  std::int64_t compatBuilds = 0;
  std::int64_t compatEdges = 0;   ///< address-space + interface edges
  std::int64_t opsAfterOptimize = 0;
  double stageMillis = 0;         ///< serial time of every replayed stage
};

class StageReplay {
public:
  explicit StageReplay(Tracer& tracer) : tracer_(tracer) {}

  /// Replays the stages of (source, options) not replayed before.
  void replay(const std::string& source, cfd::FlowOptions options,
              std::int64_t requestId);

  struct StoreCounts {
    std::int64_t publishes = 0;
    std::int64_t hits = 0;
    std::int64_t verifyFailures = 0;
    std::int64_t failedLoads = 0; ///< published entries that did not load
    double diskBytes = 0;
  };

  /// Publishes every replayed prefix into a fresh store rooted at
  /// `root`, then loads each back (spans store.publish / store.load).
  StoreCounts replayStore(const std::string& root);

  const ReplayCounts& counts() const { return counts_; }

private:
  struct Entry {
    cfd::Stage stage;
    cfd::StageArtifacts artifacts; ///< prefix up to `stage`
    std::string source;
    cfd::FlowOptions options;
  };

  /// Runs one stage over `artifacts` (which holds its inputs).
  void runStage(cfd::Stage stage, const std::string& source,
                const cfd::FlowOptions& options,
                cfd::StageArtifacts& artifacts, std::int64_t parent,
                std::int64_t requestId);

  Tracer& tracer_;
  std::unordered_map<std::uint64_t, Entry> done_;
  std::unordered_set<std::uint64_t> failed_;
  ReplayCounts counts_;
};

} // namespace perfbench
