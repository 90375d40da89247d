#include "Replay.h"

#include "Bench.h"

#include "dsl/Parser.h"
#include "hls/HlsModel.h"
#include "ir/Lowering.h"
#include "ir/PassManager.h"
#include "mem/Compatibility.h"
#include "mem/Liveness.h"
#include "mem/Mnemosyne.h"
#include "sched/Reschedule.h"
#include "sched/Schedule.h"
#include "store/ArtifactStore.h"
#include "sysgen/SystemGenerator.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <vector>

namespace perfbench {

using namespace cfd;

void StageReplay::replay(const std::string& source, FlowOptions options,
                         std::int64_t requestId) {
  normalizeOptions(options);
  const auto keys = computeStageKeys(source, options);
  ScopedSpan point(tracer_, "replay.point", 0, requestId);
  StageArtifacts artifacts;
  for (int i = 0; i < kStageCount; ++i) {
    const Stage stage = static_cast<Stage>(i);
    if (failed_.count(keys[i]) != 0)
      return;
    if (auto it = done_.find(keys[i]); it != done_.end()) {
      artifacts = it->second.artifacts;
      continue;
    }
    const auto start = Clock::now();
    try {
      runStage(stage, source, options, artifacts, point.id(), requestId);
    } catch (const std::exception&) {
      counts_.stageMillis += millisSince(start);
      failed_.insert(keys[i]);
      return;
    }
    counts_.stageMillis += millisSince(start);
    ++counts_.distinctKeys;
    done_.emplace(keys[i], Entry{stage, artifacts, source, options});
  }
}

void StageReplay::runStage(Stage stage, const std::string& source,
                           const FlowOptions& options,
                           StageArtifacts& artifacts, std::int64_t parent,
                           std::int64_t requestId) {
  const auto span = [&](const char* name) {
    return std::make_unique<ScopedSpan>(tracer_, name, parent, requestId);
  };
  switch (stage) {
  case Stage::Parse: {
    const auto s = span("dsl.parse");
    artifacts.ast =
        std::make_shared<const dsl::Program>(dsl::parseAndCheck(source));
    break;
  }
  case Stage::Lower: {
    const auto s = span("ir.lower");
    artifacts.program = std::make_shared<const ir::Program>(
        ir::lower(*artifacts.ast, options.lowering));
    break;
  }
  case Stage::Optimize: {
    const auto s = span("ir.optimize");
    auto optimized = std::make_shared<OptimizeArtifact>();
    optimized->program = *artifacts.program;
    optimized->report = ir::optimize(optimized->program, options.optimize);
    counts_.opsAfterOptimize += static_cast<std::int64_t>(
        optimized->program.operations().size());
    artifacts.optimized = std::move(optimized);
    break;
  }
  case Stage::Schedule: {
    const auto s = span("sched.schedule");
    artifacts.referenceSchedule = std::make_shared<const sched::Schedule>(
        sched::buildReferenceSchedule(artifacts.optimized->program,
                                      options.layouts));
    break;
  }
  case Stage::Reschedule: {
    const auto s = span("sched.reschedule");
    sched::Schedule rescheduled = *artifacts.referenceSchedule;
    sched::reschedule(rescheduled, options.reschedule);
    artifacts.schedule =
        std::make_shared<const sched::Schedule>(std::move(rescheduled));
    break;
  }
  case Stage::Liveness: {
    const auto s = span("mem.liveness");
    artifacts.liveness = std::make_shared<const mem::LivenessInfo>(
        mem::analyzeLiveness(*artifacts.schedule));
    break;
  }
  case Stage::MemoryPlan: {
    auto memory = std::make_shared<MemoryPlanArtifact>();
    {
      const auto s = span("mem.compat_graph");
      memory->graph =
          mem::buildCompatibilityGraph(*artifacts.schedule, *artifacts.liveness);
    }
    ++counts_.compatBuilds;
    counts_.compatEdges +=
        static_cast<std::int64_t>(memory->graph.numAddressSpaceEdges() +
                                  memory->graph.numInterfaceEdges());
    {
      const auto s = span("mem.plan");
      memory->plan =
          mem::planMemory(*artifacts.schedule, memory->graph, options.memory);
    }
    artifacts.memory = std::move(memory);
    break;
  }
  case Stage::Hls: {
    const auto s = span("hls.analyze");
    artifacts.kernel =
        std::make_shared<const hls::KernelReport>(hls::analyzeKernel(
            *artifacts.schedule, artifacts.memory->plan, options.hls));
    break;
  }
  case Stage::SysGen: {
    const auto s = span("sysgen.generate");
    artifacts.system =
        std::make_shared<const sysgen::SystemDesign>(sysgen::generateSystem(
            *artifacts.kernel, artifacts.memory->plan, *artifacts.schedule,
            options.system));
    break;
  }
  }
}

StageReplay::StoreCounts StageReplay::replayStore(const std::string& root) {
  freshDirectory(root);
  store::ArtifactStore store({.root = root, .capacityBytes = 0});
  std::vector<std::uint64_t> keys;
  keys.reserve(done_.size());
  for (const auto& [key, entry] : done_)
    keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t key : keys) {
    const Entry& entry = done_.at(key);
    ScopedSpan span(tracer_, "store.publish");
    store.publish(key, entry.stage, entry.artifacts, entry.source,
                  entry.options);
  }
  StoreCounts counts;
  for (std::uint64_t key : keys) {
    const Entry& entry = done_.at(key);
    ScopedSpan span(tracer_, "store.load");
    if (store.load(key, entry.stage, entry.source, entry.options) == nullptr)
      ++counts.failedLoads;
  }
  const store::ArtifactStore::Stats stats = store.stats();
  counts.publishes = stats.publishes;
  counts.hits = stats.hits;
  counts.verifyFailures = stats.verifyFailures;
  counts.diskBytes = static_cast<double>(store.diskBytes());
  return counts;
}

} // namespace perfbench
