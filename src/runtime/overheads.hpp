// Parallel-runtime overhead constants (cycles at the nominal 1 GHz clock).
//
// The paper measures OpenMP construct overheads with the EPCC-style
// microbenchmarks [6, 8] and adds them in the FF emulator at (1) parallel
// loop start/end, (2) iteration start, and (3) critical-section entry/exit.
// These are the equivalent constants for the simulated machine; the
// calibration bench (bench_table3/bench_ablation_overheads) measures their
// effect. The paper also observes the overhead is *not* actually constant —
// our DES reproduces that naturally since dispatch contention and barrier
// arrival spread are emergent.
#pragma once

#include "runtime/iter_sched.hpp"
#include "util/types.hpp"

namespace pprophet::runtime {

struct OmpOverheads {
  /// Entering a parallel region: master-side team setup.
  Cycles fork_base = 2'000;
  /// Per additional worker thread created for the region.
  Cycles fork_per_thread = 500;
  /// Per-thread cost of the implicit barrier at region end.
  Cycles join_barrier = 800;
  /// Per-chunk fetch under static scheduling (loop bookkeeping).
  Cycles static_dispatch = 20;
  /// Per-chunk fetch under dynamic scheduling (shared-counter atomic).
  Cycles dynamic_dispatch = 150;
  /// Critical-section entry / exit library cost.
  Cycles lock_acquire = 100;
  Cycles lock_release = 60;

  /// Charged to the master when it forks a team of `threads`.
  Cycles fork_cost(CoreCount threads) const {
    return fork_base + fork_per_thread * (threads - 1);
  }
  /// The replays' dispatch charge: once per range a team member fetches.
  /// Pull-based policies (dynamic, guided) pay the shared-counter cost.
  Cycles range_dispatch(OmpSchedule s) const {
    return s == OmpSchedule::Dynamic || s == OmpSchedule::Guided
               ? dynamic_dispatch
               : static_dispatch;
  }
  /// The FF's dispatch charge: once per iteration a virtual CPU starts,
  /// except the first of a shared-counter fetch, which pays
  /// range_dispatch() instead. It differs from the replays' per-range rule
  /// for ranges of more than one iteration (static blocks, chunk > 1) and
  /// for guided, whose chunk-mates pay static_dispatch (ROADMAP item 3).
  Cycles iteration_dispatch(OmpSchedule s) const {
    return s == OmpSchedule::Dynamic ? dynamic_dispatch : static_dispatch;
  }
};

struct CilkOverheads {
  /// Pushing a spawned task / loop-range item to the worker deque.
  Cycles spawn = 120;
  /// A successful steal (including deque CAS traffic).
  Cycles steal = 1'000;
  /// An unsuccessful probe while idle, before backing off.
  Cycles idle_probe = 400;
  /// Splitting a cilk_for range.
  Cycles loop_split = 150;
  Cycles lock_acquire = 100;
  Cycles lock_release = 60;
};

/// The synthesizer's tree-walking costs (paper §IV-E measures both at
/// roughly 50 cycles on its machine and subtracts the longest per-thread
/// total from the measured time).
struct SynthOverheads {
  Cycles access_node = 50;
  Cycles recursive_call = 50;
};

}  // namespace pprophet::runtime
