// Cilk Plus runtime model: executes a compiled program tree with a
// work-stealing scheduler on the simulated machine.
//
// The paper parallelizes the recursive benchmarks (FFT-Cilk, QSort-Cilk)
// with Cilk Plus because OpenMP 2.0 nested parallelism spawns too many OS
// threads (§III). This model captures why Cilk behaves better: a *fixed*
// pool of one worker per requested thread, per-worker deques, random
// stealing, and help-first execution at sync points — nested parallelism
// creates logical tasks, not OS threads.
//
// Mapping from the program tree:
//  * a Sec node encountered by a running task becomes a fan-out: each
//    logical iteration is a task item (large trip counts are split
//    range-recursively like cilk_for);
//  * the encountering worker then syncs: it helps by draining its own deque,
//    steals when empty, and blocks only when the join is still open with
//    nothing left to execute;
//  * U/L leaves behave as in the OpenMP model.
//
// Runs in the same Real/Synth modes as the OpenMP executor.
#pragma once

#include "machine/machine.hpp"
#include "runtime/omp_executor.hpp"  // ExecMode, RunResult
#include "runtime/overheads.hpp"
#include "tree/compile.hpp"

namespace pprophet::runtime {

struct CilkConfig {
  std::uint32_t num_workers = 4;
  /// cilk_for grain: ranges larger than this split in half recursively.
  /// 0 = auto (trip_count / (8 × workers), at least 1).
  std::uint64_t grain = 0;
  CilkOverheads overheads{};
  /// Seed for the deterministic victim-selection RNG.
  std::uint64_t steal_seed = 0x9d5c'1f2e'33aa'4712ULL;
};

/// Runs a whole compiled program tree with the Cilk model. Body generation
/// allocates nothing per prediction.
RunResult run_tree_cilk(const tree::CompiledTree& ct,
                        const machine::MachineConfig& mcfg,
                        const CilkConfig& ccfg, const ExecMode& mode);

/// Runs a single top-level section with the Cilk model. `section` indexes
/// the compiled tree's top-level-section table.
RunResult run_section_cilk(const tree::CompiledTree& ct, std::uint32_t section,
                           const machine::MachineConfig& mcfg,
                           const CilkConfig& ccfg, const ExecMode& mode);

}  // namespace pprophet::runtime
