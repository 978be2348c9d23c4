// Batched prediction sweep engine (the what-if grid behind Figures 5/11/12
// and Tables III/IV): evaluate one ProgramTree over a grid of
// (method × paradigm × schedule × chunk × memory-model × thread-count)
// points on a worker pool, memoizing per-top-level-section emulations.
//
// Why memoization works: speedups compose over top-level sections (§IV-E),
// and a section's emulated duration depends only on a *sub-key* of the grid
// point — e.g. the FF emulator never reads the paradigm, the Cilk executor
// never reads the schedule or chunk, the Suitability baseline pins its own
// schedule and overheads, and GroundTruth ignores the memory-model flag. The
// engine canonicalizes each point to its sub-key, so a t-thread FF result
// for a section is computed once and reused by every grid point sharing it.
//
// The tree is compiled once (tree::CompiledTree) and every emulation runs
// over the flat arrays. Memo entries are keyed by the compiled *section
// digest* rather than the section's position, so two structurally identical
// sections in one tree share their emulations too (docs/SWEEP.md).
//
// Determinism: every cell is the sum of independently memoized per-section
// integer cycle counts plus the (shared) serial denominator — exactly how
// core::predict composes them — so results are bit-identical to a fresh
// sequential predict() call for every cell, at any worker count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/prophet.hpp"

namespace pprophet::core {

/// One grid point. `memory_model` selects Pred vs PredM for the emulators
/// that read burden factors (FF, Synthesizer).
struct SweepPoint {
  Method method = Method::Synthesizer;
  Paradigm paradigm = Paradigm::OpenMP;
  runtime::OmpSchedule schedule = runtime::OmpSchedule::StaticCyclic;
  std::uint64_t chunk = 1;
  CoreCount threads = 4;
  bool memory_model = false;
};

/// Cartesian sweep grid: the shared GridSpec dimensions (thread_counts,
/// paradigms, schedules, chunks — the flat spellings are the same fields,
/// see core/grid_spec.hpp) plus the sweep-only method and memory-model
/// axes. `base` carries everything a point does not vary: machine,
/// overhead vectors, dram_stall.
struct SweepGrid : GridSpec {
  SweepGrid() {
    // Historical sweep defaults: a single-configuration grid, unlike the
    // GridSpec defaults the advisor sweeps.
    paradigms = {Paradigm::OpenMP};
    schedules = {runtime::OmpSchedule::StaticCyclic};
    thread_counts = {2, 4, 8};
  }

  std::vector<Method> methods{Method::Synthesizer};
  std::vector<bool> memory_models{false};
  PredictOptions base{};

  std::size_t size() const {
    return methods.size() * paradigms.size() * schedules.size() *
           chunks.size() * thread_counts.size() * memory_models.size();
  }
  /// Expands the grid in deterministic row-major order
  /// (method, paradigm, schedule, chunk, memory_model, threads).
  std::vector<SweepPoint> points() const;
};

struct SweepCell {
  SweepPoint point;
  SpeedupEstimate estimate;
};

/// Counters for the sweep itself, so its speedup over naive per-point
/// predict() calls is measurable.
struct SweepStats {
  std::size_t grid_points = 0;
  std::size_t section_lookups = 0;  ///< per-cell top-level-Sec evaluations
  std::size_t cache_hits = 0;       ///< lookups served from the memo
  std::size_t section_evals = 0;    ///< unique sub-problems actually emulated
  std::size_t workers = 0;
  /// Point blocks dispatched to the batched FF/Suitability evaluators and
  /// the grid points they carried.
  std::size_t batched_blocks = 0;
  std::size_t batched_points = 0;
  double wall_ms = 0.0;
  /// Wall time each pool worker spent draining cells (one entry per worker,
  /// in worker order). Skew between entries shows memo-future convoying.
  std::vector<double> worker_wall_ms;

  double hit_rate() const {
    return section_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(section_lookups);
  }
};

struct SweepResult {
  /// One cell per input point, in input order.
  std::vector<SweepCell> cells;
  SweepStats stats;
};

struct SweepOptions {
  /// Worker threads for the pool; 0 = std::thread::hardware_concurrency().
  /// Results are identical for any value.
  std::size_t workers = 0;
};

/// Evaluates every point of `grid` against `tree`. Equivalent to (and
/// bit-identical with) calling core::predict once per point. Compiles the
/// tree once; use the CompiledTree overload to amortize compilation across
/// multiple sweeps (as the serve daemon does).
///
/// One evaluation path: the grid is deduplicated into unique per-section
/// sub-problems, FF/Suitability ones are priced in per-section point blocks
/// by the batched evaluators (emul::FfSectionBatch), and SYN/Real ones by
/// predict_section_cycles. Cells are bit-identical to a per-point predict()
/// (tests/property/test_batched_equivalence.cpp). Throws
/// std::invalid_argument on a zero thread count or a non-null
/// `base.timeline` (timelines are recorded by predict() only). See
/// docs/SWEEP.md.
SweepResult sweep(const tree::ProgramTree& tree, const SweepGrid& grid,
                  const SweepOptions& options = {});
SweepResult sweep(const tree::CompiledTree& compiled, const SweepGrid& grid,
                  const SweepOptions& options = {});

/// Same, over an explicit point list (e.g. the Figure 12 four-method
/// curves, which are not a full Cartesian product).
SweepResult sweep_points(const tree::ProgramTree& tree,
                         std::span<const SweepPoint> points,
                         const PredictOptions& base,
                         const SweepOptions& options = {});
SweepResult sweep_points(const tree::CompiledTree& compiled,
                         std::span<const SweepPoint> points,
                         const PredictOptions& base,
                         const SweepOptions& options = {});

}  // namespace pprophet::core
