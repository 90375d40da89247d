#include "Validation.h"

#include "Inputs.h"

#include "core/Session.h"
#include "eval/Evaluator.h"
#include "sim/PlatformSim.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

namespace perfbench {

namespace {

constexpr double kMaxRelativeError = 1e-9;

} // namespace

double replayValidation(WorkloadResult& result, Tracer& tracer,
                        const cfd::Flow& flow, std::uint64_t seed) {
  // The inputs Flow::validate(seed) draws: seed, seed + 1, ... over the
  // program's input tensors in order.
  const cfd::ir::Program& program = flow.program();
  std::map<std::string, cfd::eval::DenseTensor> values;
  cfd::eval::TensorStore store(program, flow.schedule().layouts);
  for (const auto& tensor : program.tensors())
    if (tensor.kind == cfd::ir::TensorKind::Input) {
      values[tensor.name] =
          cfd::eval::makeTestInput(tensor.type.shape, seed++);
      store.import(tensor.id, values[tensor.name]);
    }
  {
    ScopedSpan span(tracer, "eval.reference");
    cfd::eval::evaluateReference(flow.ast(), values);
  }
  cfd::eval::OpCounts counts;
  {
    ScopedSpan span(tracer, "eval.execute");
    counts = cfd::eval::execute(flow.schedule(), store);
  }
  double error = 0;
  double magnitude = 0;
  for (const auto& tensor : program.tensors()) {
    if (tensor.kind != cfd::ir::TensorKind::Output)
      continue;
    const cfd::eval::DenseTensor& reference = values.at(tensor.name);
    error = std::max(error, cfd::eval::maxAbsDifference(
                                store.exportTensor(tensor.id), reference));
    for (double value : reference.data)
      magnitude = std::max(magnitude, std::abs(value));
  }
  ++result.attempted;
  const double relative = error / magnitude;
  if (!(relative <= kMaxRelativeError))
    result.fail("validation: max |error| relative to the reference is " +
                std::to_string(relative));
  return static_cast<double>(counts.flops());
}

double modeledSpeedup() {
  cfd::Session session(cfd::SessionOptions{.workers = 1});
  const auto compiled =
      session.compile(cfd::CompileRequest(helmholtzSource(11)));
  if (!compiled.ok())
    return 0;
  constexpr std::int64_t kElements = 50000;
  const cfd::Flow& flow = compiled->flow();
  const double cpuUs = cfd::sim::cpuTotalTimeUs(
      flow.softwareCounts(cfd::sched::ScheduleObjective::Software),
      kElements);
  return cpuUs / flow.simulate({.numElements = kElements}).totalTimeUs();
}

} // namespace perfbench
