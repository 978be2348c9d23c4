// Parallel Prophet — public prediction API (the Figure 3 workflow).
//
// Pipeline:
//   1. annotate a serial program (annotate/annotations.hpp)
//   2. profile it (trace::IntervalProfiler + a CounterSource) → ProgramTree
//   3. optionally compress the tree (tree/compress.hpp)
//   4. optionally run the memory model (memmodel::annotate_burdens)
//   5. predict speedups here, per emulator / paradigm / schedule / cores.
//
// Speedups compose over top-level sections as in §IV-E:
//   S(t) = T_serial / ( Σ_i Emul(sec_i, t) + Σ_j Len(U_j) )
// (the paper's formula prints the ratio inverted; the intended quantity is
// serial over projected-parallel, which is what we compute).
#pragma once

#include <vector>

#include "core/engine_options.hpp"
#include "core/grid_spec.hpp"
#include "emul/ff.hpp"
#include "emul/suitability.hpp"
#include "machine/machine.hpp"
#include "memmodel/burden.hpp"
#include "runtime/cilk_executor.hpp"
#include "runtime/omp_executor.hpp"
#include "tree/compile.hpp"
#include "tree/node.hpp"

namespace pprophet::core {

enum class Method : std::uint8_t {
  FastForward,   ///< analytical FF emulator
  Synthesizer,   ///< program-synthesis emulation on the simulated machine
  Suitability,   ///< Parallel-Advisor-like baseline
  GroundTruth,   ///< "Real": the actual parallel structure on the machine
};

// Paradigm is declared in core/grid_spec.hpp (included above) so the grid
// spec stays self-contained; it remains usable as core::Paradigm here.

const char* to_string(Method m);

/// Prediction options: the shared EngineOptions (machine, overheads,
/// schedule, chunk, memory-model) plus the per-prediction extras below.
struct PredictOptions : EngineOptions {
  Method method = Method::Synthesizer;
  Paradigm paradigm = Paradigm::OpenMP;
  /// ω for decomposing counters in GroundTruth mode.
  Cycles dram_stall = 200;
  /// Optional per-virtual-CPU span sink (emulated cycles). FF records its
  /// schedule directly; Synthesizer/GroundTruth record via the simulated
  /// machine. Suitability has no per-CPU schedule and ignores it. Spans from
  /// multiple sections accumulate; must outlive the prediction.
  machine::Timeline* timeline = nullptr;
};

struct SpeedupEstimate {
  CoreCount threads = 0;
  double speedup = 0.0;
  Cycles serial_cycles = 0;
  Cycles parallel_cycles = 0;
};

/// Projects the speedup of the profiled program on `threads` threads.
/// Compiles the tree once (tree::CompiledTree) and predicts over the flat
/// arrays.
SpeedupEstimate predict(const tree::ProgramTree& tree, CoreCount threads,
                        const PredictOptions& options);

/// Same, over an already-compiled tree — the hot path. Callers evaluating
/// many points against one tree should compile once and use this.
SpeedupEstimate predict(const tree::CompiledTree& compiled, CoreCount threads,
                        const PredictOptions& options);

/// Projected parallel duration of ONE repetition of top-level section `s`
/// of `compiled` (an index into its top-level-section table) under
/// `options` — the per-section term of the §IV-E composition. predict()
/// sums estimates from this function; the sweep engine (core/sweep.hpp)
/// sums the same terms, from this function for SYN/Real and from the
/// bit-identical batched evaluators for FF/Suitability.
Cycles predict_section_cycles(const tree::CompiledTree& compiled,
                              std::uint32_t s, CoreCount threads,
                              const PredictOptions& options);

/// Convenience: one estimate per entry of `thread_counts`. Compiles once.
std::vector<SpeedupEstimate> predict_curve(
    const tree::ProgramTree& tree, std::span<const CoreCount> thread_counts,
    const PredictOptions& options);

/// The serial-time denominator used for speedups: the measured root length
/// when the profiler recorded one, else the sum of leaf work.
Cycles serial_cycles_of(const tree::ProgramTree& tree);

}  // namespace pprophet::core
