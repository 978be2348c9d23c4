// Mapping from profiled node lengths to machine Exec ops.
//
// Ground-truth ("Real") runs decompose every leaf's measured length into a
// compute part and a memory-stall part using the section's counters — the
// same T = CPI$·N + ω·D decomposition as the paper's Eq. (1) — and declare
// the section's solo DRAM traffic so the machine's bandwidth model can
// dilate it dynamically.
//
// Synthesizer runs instead execute FakeDelay(length × burden): pure compute,
// no traffic (the synthetic program "spins without affecting caches and
// memory", Figure 8), with the static per-section burden factor carrying all
// memory effects.
#pragma once

#include <cmath>

#include "machine/machine.hpp"
#include "tree/node.hpp"

namespace pprophet::runtime {

// β scaling of a node length. The two rules part by a cycle where len·β + 0.5
// rounds up in floating point (ROADMAP item 3).
/// FF: (Cycles)(len·β + 0.5). The length comes as a double so the batched
/// FF's table loop stays a straight multiply-add over a double array.
inline Cycles ff_scaled_length(double len, double beta) {
  return static_cast<Cycles>(len * beta + 0.5);
}

/// Synthesizer: FakeDelay(len × β), rounded by llround.
inline Cycles synth_scaled_length(Cycles len, double beta) {
  return static_cast<Cycles>(std::llround(static_cast<double>(len) * beta));
}

/// Per-top-level-section execution character, derived from its counters.
struct MemSplit {
  double mem_fraction = 0.0;  ///< share of node time that is DRAM stall
  double traffic_mbps = 0.0;  ///< solo DRAM traffic while executing
};

/// Derives the split from section counters: mem cycles = ω·D with ω the
/// machine's DRAM stall latency; traffic from miss volume over elapsed time.
/// Returns a zero split when counters are absent or empty.
MemSplit split_from_counters(const tree::SectionCounters* counters,
                             Cycles dram_stall_cycles);

/// How leaf lengths become Exec ops.
struct LeafCostModel {
  enum class Mode {
    Real,   ///< split into compute+mem with traffic (ground truth)
    Synth,  ///< FakeDelay(length × burden): compute only
  };
  Mode mode = Mode::Real;
  MemSplit split;
  double burden = 1.0;  ///< Synth mode only

  machine::Op leaf_op(Cycles length) const;
};

}  // namespace pprophet::runtime
