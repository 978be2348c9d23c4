// The burden-pricing step (paper §V-D, then §V): calibrate Ψ/Φ on the
// target machine, then attach β_t to every top-level section.
//
// It is defined in its own translation unit, not in burden.cpp, so that the
// objects perfbench links keep their layout (ROADMAP item 2). The serve
// daemon, the machine sweep and the bench kernel suite, which perfbench
// links, still calibrate and annotate by hand until then (ROADMAP item 6).
#pragma once

#include <span>

#include "machine/machine.hpp"
#include "tree/node.hpp"
#include "util/types.hpp"

namespace pprophet::memmodel {

/// Calibrates Ψ/Φ on `machine` with unloaded DRAM stall `dram_stall` and
/// attaches β_t for each of `thread_counts` to every top-level Sec node
/// carrying counters (annotate_burdens).
void price_burdens(tree::ProgramTree& tree,
                   const machine::MachineConfig& machine, Cycles dram_stall,
                   std::span<const CoreCount> thread_counts);

}  // namespace pprophet::memmodel
