// Probes the traced chain-sweep run makes beyond the stage replay: the
// validation path (eval) on a swept design and the paper's modeled
// speedup.
#pragma once

#include "Bench.h"

#include "core/Flow.h"

#include <cstdint>

namespace perfbench {

/// Replays Flow::validate on `flow` with eval::evaluateReference and
/// eval::execute timed apart (spans eval.reference / eval.execute) and
/// checks the max |error| relative to the reference outputs' magnitude.
/// Flow::validate's absolute error cannot be the check: on a long
/// contraction chain the outputs reach 1e35. Returns the interpreter's
/// flop count.
double replayValidation(WorkloadResult& result, Tracer& tracer,
                        const cfd::Flow& flow, std::uint64_t seed);

/// Simulated speedup of the default p = 11 inverse Helmholtz system over
/// the A53 model running the reference code, 50,000 elements.
double modeledSpeedup();

} // namespace perfbench
