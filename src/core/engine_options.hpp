// Shared engine configuration — the single source of the knobs every
// prediction engine reads: target machine, the three overhead vectors,
// the OpenMP schedule/chunk, and the memory-model flag.
//
// Both user-facing option structs embed this by inheritance:
//   struct PredictOptions : EngineOptions { ... }   (core/prophet.hpp)
//   struct ProphetConfig  : EngineOptions { ... }   (core/pipeline.hpp)
// so no field is duplicated between the two structs, and one can seed the
// other by assigning the EngineOptions base.
#pragma once

#include "machine/machine.hpp"
#include "runtime/iter_sched.hpp"
#include "runtime/overheads.hpp"
#include "util/types.hpp"

namespace pprophet::core {

struct EngineOptions {
  /// Target machine (its core count is the *physical* core count; the
  /// thread count of a prediction may be lower or higher).
  machine::MachineConfig machine{};
  runtime::OmpOverheads omp_overheads{};
  runtime::CilkOverheads cilk_overheads{};
  runtime::SynthOverheads synth_overheads{};
  runtime::OmpSchedule schedule = runtime::OmpSchedule::StaticCyclic;
  std::uint64_t chunk = 1;
  /// FF/Synthesizer: apply burden factors (they must have been attached by
  /// memmodel::annotate_burdens). GroundTruth always uses the machine's
  /// dynamic contention instead.
  bool memory_model = false;
};

}  // namespace pprophet::core
