// Fast-forwarding emulation (paper §IV-C/D).
//
// The FF is the *analytical* emulator: it traverses the program tree with a
// priority heap over idealized virtual CPUs, fast-forwarding a pseudo-clock
// from event to event. It models:
//  * OpenMP scheduling policies (static,1 / static / dynamic,c) exactly,
//  * lock waits (threads stall at contended critical sections, FIFO by
//    arrival time),
//  * fork/join/dispatch/lock overhead constants,
//  * optionally, burden factors from the memory model.
//
// Deliberately (faithfully to the paper) it does NOT model the OS:
//  * work is non-preemptive — a whole U/L node occupies its virtual CPU,
//  * nested sections map iterations round-robin onto CPUs starting at CPU 0
//    regardless of which CPUs are busy,
// which is precisely why it mispredicts the paper's Figure 7 (predicts 1.5
// where the real machine reaches 2.0). The synthesizer exists to fix this;
// the FF stays cheap and machine-independent.
#pragma once

#include <memory>
#include <vector>

#include "runtime/iter_sched.hpp"
#include "runtime/overheads.hpp"
#include "tree/compile.hpp"

namespace pprophet::machine {
class Timeline;
}

namespace pprophet::emul {

struct FfConfig {
  CoreCount num_threads = 4;
  runtime::OmpSchedule schedule = runtime::OmpSchedule::StaticCyclic;
  std::uint64_t chunk = 1;
  runtime::OmpOverheads overheads{};
  /// Multiply node lengths of each top-level section by its burden factor
  /// (set by memmodel::annotate_burdens) — the "PredM" variant.
  bool apply_burden = false;
  /// Optional execution-timeline sink: records per-virtual-CPU run and
  /// lock-wait spans (the Figure-5 Gantt as the FF schedules it), in the
  /// section's local pseudo-clock. Must outlive the emulation; null = off.
  /// Dispatch/fork/join overhead cycles appear as gaps between spans.
  machine::Timeline* timeline = nullptr;
};

struct FfResult {
  Cycles parallel_cycles = 0;
  Cycles serial_cycles = 0;
  double speedup() const {
    return parallel_cycles == 0
               ? 0.0
               : static_cast<double>(serial_cycles) /
                     static_cast<double>(parallel_cycles);
  }
};

/// Emulates the whole compiled tree: serial top-level U nodes run on the
/// master; each top-level section is fast-forwarded on `num_threads`
/// virtual CPUs.
FfResult emulate_ff(const tree::CompiledTree& ct, const FfConfig& cfg);

/// Emulates top-level section `section` (an index into the compiled tree's
/// top-level-section table). Returns its projected parallel duration
/// (serial_cycles is the section's serial work).
FfResult emulate_ff_section(const tree::CompiledTree& ct,
                            std::uint32_t section, const FfConfig& cfg);

// ---------------------------------------------------------------------------
// Batched grid evaluation (docs/INTERNALS.md "Batched block layout").
//
// A sweep evaluates one section under many (threads, schedule, chunk, β)
// configurations. The scalar engine above rebuilds its cursor walk per
// point; the batched path compiles the section ONCE into a flat segment
// program (structure-of-arrays: per-segment kind/length/repeat/lock-slot
// vectors shared by every point of a block), then evaluates grid points
// against it:
//   * β-scaled segment lengths are cached per distinct burden factor — the
//     scaling loop is a straight-line array pass over the SoA length vector
//     (the SIMD-friendly inner loop), reused by every point sharing a β;
//   * sections whose tasks are flat (only U leaves — the common profiled
//     loop) evaluate in closed form: static schedules reuse a per-(schedule,
//     threads, chunk) iteration plan across β ("incremental re-evaluation":
//     moving to an adjacent grid point where only β changed re-prices the
//     cached plan instead of re-simulating), dynamic/guided replay the
//     shared-counter pull order without materializing cursors;
//   * sections with locks or nested parallelism run a pooled, allocation-
//     free replica of the scalar event loop that coarsens local-only work
//     runs into single steps while keeping every shared mutation (lock
//     acquire, spawn, pull, task completion) its own globally-ordered event.
// Every path is bit-identical to emulate_ff_section for the matching
// FfConfig (tests/property/test_batched_equivalence.cpp).
// ---------------------------------------------------------------------------

/// One grid point of a batched evaluation. `apply_burden` selects the PredM
/// variant (β read off the section's burden table for `threads`).
struct BlockPoint {
  CoreCount threads = 4;
  runtime::OmpSchedule schedule = runtime::OmpSchedule::StaticCyclic;
  std::uint64_t chunk = 1;
  bool apply_burden = false;
};

/// Structure-of-arrays block of grid points evaluated against one section
/// program in lockstep. Per-point dimensions only; the overhead vector is
/// shared and lives in the FfSectionBatch.
struct PointBlock {
  std::vector<CoreCount> threads;
  std::vector<runtime::OmpSchedule> schedules;
  std::vector<std::uint64_t> chunks;
  std::vector<std::uint8_t> apply_burden;

  std::size_t size() const { return threads.size(); }
  bool empty() const { return threads.empty(); }
  void push_back(const BlockPoint& p) {
    threads.push_back(p.threads);
    schedules.push_back(p.schedule);
    chunks.push_back(p.chunk);
    apply_burden.push_back(p.apply_burden ? 1 : 0);
  }
  BlockPoint at(std::size_t i) const {
    return BlockPoint{threads[i], schedules[i], chunks[i],
                      apply_burden[i] != 0};
  }
};

/// Batched FF evaluator for ONE top-level section. Stateful on purpose:
/// the segment program, β-scaled length tables, static iteration plans and
/// per-point results persist across evaluate() calls, so walking a grid
/// point-by-point (or block-by-block) reuses everything an adjacent point
/// already priced. Results are bit-identical to emulate_ff_section with the
/// matching FfConfig; parallel duration includes fork cost and the final
/// barrier, for ONE repetition of the section (as predict_section_cycles
/// expects). Not thread-safe; use one instance per worker.
class FfSectionBatch {
 public:
  /// Section `section` of `ct`, which must outlive the batch.
  FfSectionBatch(const tree::CompiledTree& ct, std::uint32_t section,
                 const runtime::OmpOverheads& overheads);
  ~FfSectionBatch();
  FfSectionBatch(FfSectionBatch&&) noexcept;
  FfSectionBatch& operator=(FfSectionBatch&&) noexcept;

  /// Projected parallel duration of one section repetition at `p`.
  Cycles evaluate(const BlockPoint& p);
  /// Evaluates every point of `block`, sharing scaled tables and plans
  /// across the block. Returns one duration per point, in block order.
  std::vector<Cycles> evaluate_block(const PointBlock& block);

  /// Reuse accounting, so tests can assert the incremental machinery
  /// actually engages (zero reuse on a fresh instance).
  struct Stats {
    std::size_t evals = 0;          ///< evaluate() calls
    std::size_t result_reuses = 0;  ///< served from the per-point memo
    std::size_t plan_reuses = 0;    ///< static plan shared across β
    std::size_t scaled_reuses = 0;  ///< β table shared across points
    std::size_t flat_evals = 0;     ///< closed-form path taken
    std::size_t general_evals = 0;  ///< pooled event engine taken
  };
  const Stats& stats() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pprophet::emul
