// OpenMP runtime model: executes a compiled program tree "as if
// parallelized with OpenMP" on the simulated machine.
//
// Semantics modelled (matching the paper's prediction targets):
//  * a parallel section (Sec node) forks a team of `num_threads` OS threads
//    (master + t-1 workers); loop iterations (Task children) are distributed
//    by the configured schedule;
//  * nested Sec nodes fork *new* teams — true OpenMP-2.0 nested parallelism
//    with oversubscription, which the machine's preemptive scheduler
//    time-slices (the behaviour the FF emulator cannot capture, Figure 7);
//  * locks map to simulated mutexes with library entry/exit costs;
//  * the implicit barrier at section end can be disabled per section
//    (nowait);
//  * fork/join/dispatch overheads are charged per overheads.hpp.
//
// The same executor runs in two modes (memsplit.hpp): Real (ground truth,
// counters-derived memory behaviour dilated dynamically by the machine) and
// Synth (the synthesizer's generated program: FakeDelay × burden factor plus
// tracked tree-traversal overhead, subtracted from the result as in the
// paper's Figure 8).
#pragma once

#include <memory>
#include <vector>

#include "machine/machine.hpp"
#include "machine/timeline.hpp"
#include "runtime/iter_sched.hpp"
#include "runtime/memsplit.hpp"
#include "runtime/overheads.hpp"
#include "tree/compile.hpp"

namespace pprophet::runtime {

struct OmpConfig {
  std::uint32_t num_threads = 4;
  OmpSchedule schedule = OmpSchedule::StaticCyclic;
  std::uint64_t chunk = 1;
  OmpOverheads overheads{};
};

struct ExecMode {
  LeafCostModel::Mode leaf_mode = LeafCostModel::Mode::Real;
  /// Optional execution-timeline sink (machine/timeline.hpp); must outlive
  /// the run. Null = no recording.
  machine::Timeline* timeline = nullptr;
  /// Synth mode: add per-node traversal-overhead ops and track them.
  SynthOverheads synth{};
  /// ω used to decompose section counters into compute vs memory cycles
  /// (must match the vcpu cost model's DRAM latency for consistency).
  Cycles dram_stall = 200;
  /// Synth mode: force burden β = 1.0 for top-level sections regardless of
  /// annotations (the "memory model off" prediction variant). A compiled
  /// tree is immutable, so this flag strips the burdens instead.
  bool unit_burden = false;

  static ExecMode real() { return ExecMode{}; }
  static ExecMode synth_mode() {
    ExecMode m;
    m.leaf_mode = LeafCostModel::Mode::Synth;
    return m;
  }
};

struct RunResult {
  Cycles elapsed = 0;  ///< machine finish time (gross)
  /// Synth mode: the longest per-thread traversal overhead, to subtract
  /// (paper Figure 8, GetLongestOverhead).
  Cycles traversal_overhead = 0;
  /// elapsed minus traversal overhead, clamped at >= 1.
  Cycles net() const {
    return elapsed > traversal_overhead ? elapsed - traversal_overhead : 1;
  }
  machine::MachineStats stats{};
};

/// Runs a whole compiled program tree (serial top-level U nodes on the
/// master, parallel sections as OpenMP regions) on a fresh machine. Body
/// generation allocates nothing per prediction.
RunResult run_tree_omp(const tree::CompiledTree& ct,
                       const machine::MachineConfig& mcfg,
                       const OmpConfig& ocfg, const ExecMode& mode);

/// Runs a single top-level parallel section (the synthesizer's
/// EmulTopLevelParSec). `section` indexes the compiled tree's
/// top-level-section table; the section's repeat count replays inside the
/// run.
RunResult run_section_omp(const tree::CompiledTree& ct, std::uint32_t section,
                          const machine::MachineConfig& mcfg,
                          const OmpConfig& ocfg, const ExecMode& mode);

}  // namespace pprophet::runtime
