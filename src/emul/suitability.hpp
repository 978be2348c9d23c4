// "Suitability" baseline — a model of Intel Parallel Advisor's Suitability
// analysis as the paper characterizes it (§II, §VII-B, Table I):
//
//  * an FF-style interpreter with a priority queue over a pseudo-clock;
//  * does NOT model specific scheduling policies — the paper observes its
//    emulator behaves close to OpenMP's (dynamic,1), whatever the user's
//    schedule is;
//  * uses coarse constant overhead factors, which overestimate the cost of
//    frequently-invoked inner parallel loops (its LU-OMP failure);
//  * no memory performance model;
//  * no OS preemption/oversubscription modelling (shares the FF's Figure 7
//    failure) and no work-stealing model (meaningless on FFT-Cilk).
//
// Implemented on the FF engine with the schedule forced to dynamic,1 and a
// deliberately coarse overhead vector. This is a reproduction of the
// *published description* of a closed-source tool, used as the comparison
// baseline in the Figure 11/12 benches.
#pragma once

#include "emul/ff.hpp"

namespace pprophet::emul {

struct SuitabilityConfig {
  CoreCount num_threads = 4;
  /// Coarse constant costs (cycles). Deliberately heavier than the
  /// calibrated FF constants, per the paper's "overestimating the parallel
  /// overhead" diagnosis.
  Cycles per_task_overhead = 1'200;
  Cycles fork_overhead = 12'000;
  Cycles join_overhead = 4'000;
  Cycles lock_overhead = 250;
};

FfResult emulate_suitability(const tree::CompiledTree& ct,
                             const SuitabilityConfig& cfg);

/// Emulates a single top-level section (the §IV-E per-section term), so the
/// sweep engine can memoize Suitability results section by section.
/// `section` indexes the compiled tree's top-level-section table.
FfResult emulate_suitability_section(const tree::CompiledTree& ct,
                                     std::uint32_t section,
                                     const SuitabilityConfig& cfg);

/// The FF configuration the Suitability baseline reduces to: schedule forced
/// to dynamic,1 with the coarse constant overhead vector.
FfConfig suitability_ff_config(const SuitabilityConfig& cfg);

/// Batched Suitability evaluator for one top-level section: FfSectionBatch
/// under the coarse overhead vector with the schedule pinned to dynamic,1 —
/// the thread count is the only live grid dimension. Bit-identical to
/// emulate_suitability_section.
class SuitabilitySectionBatch {
 public:
  SuitabilitySectionBatch(const tree::CompiledTree& ct, std::uint32_t section,
                          const SuitabilityConfig& cfg = {});

  /// Projected parallel duration of one section repetition on `threads`.
  Cycles evaluate(CoreCount threads);
  /// One duration per entry of `threads`, sharing all cached state.
  std::vector<Cycles> evaluate_block(const std::vector<CoreCount>& threads);

  const FfSectionBatch::Stats& stats() const { return batch_.stats(); }

 private:
  FfSectionBatch batch_;
};

}  // namespace pprophet::emul
