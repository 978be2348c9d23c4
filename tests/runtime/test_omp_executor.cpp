#include "runtime/omp_executor.hpp"

#include <gtest/gtest.h>

#include "tree/builder.hpp"

namespace pprophet::runtime {
namespace {

using tree::CompiledTree;
using tree::ProgramTree;
using tree::TreeBuilder;

OmpConfig zero_overhead(std::uint32_t threads, OmpSchedule sched,
                        std::uint64_t chunk = 1) {
  OmpConfig c;
  c.num_threads = threads;
  c.schedule = sched;
  c.chunk = chunk;
  c.overheads = OmpOverheads{0, 0, 0, 0, 0, 0, 0};
  return c;
}

machine::MachineConfig cores(CoreCount n, Cycles quantum = 100'000) {
  machine::MachineConfig m;
  m.cores = n;
  m.quantum = quantum;
  m.context_switch = 0;
  return m;
}

// The paper's Figure 5 loop: three unequal iterations with a critical
// section. I0 = U150 L450 U50; I1 = U100 L300 U200; I2 = U150 L50 U50.
// Serial length 1500.
ProgramTree figure5_tree() {
  TreeBuilder b;
  b.begin_sec("loop");
  b.begin_task("I0").u(150).l(1, 450).u(50).end_task();
  b.begin_task("I1").u(100).l(1, 300).u(200).end_task();
  b.begin_task("I2").u(150).l(1, 50).u(50).end_task();
  b.end_sec();
  return b.finish();
}

TEST(OmpExecutor, SingleThreadMatchesSerialLength) {
  const CompiledTree t = CompiledTree::compile(figure5_tree());
  const RunResult r = run_tree_omp(t, cores(1),
                                   zero_overhead(1, OmpSchedule::StaticBlock),
                                   ExecMode::real());
  EXPECT_EQ(r.elapsed, 1500u);
}

// Figure 5 case 1: schedule(static,1), dual core. Thread 0 runs I0 and I2,
// thread 1 runs I1. With our lock semantics T1 reaches the lock first at
// t=100, so T0 waits 150→400; the emulated parallel time is 1150, the
// paper's reported value.
TEST(OmpExecutor, Figure5Static1) {
  const CompiledTree t = CompiledTree::compile(figure5_tree());
  const RunResult r = run_tree_omp(t, cores(2),
                                   zero_overhead(2, OmpSchedule::StaticCyclic),
                                   ExecMode::real());
  EXPECT_EQ(r.elapsed, 1150u);
}

// Figure 5 case 2: schedule(static) blocks {I0,I1} / {I2}: 1250 cycles.
TEST(OmpExecutor, Figure5StaticBlock) {
  const CompiledTree t = CompiledTree::compile(figure5_tree());
  const RunResult r = run_tree_omp(t, cores(2),
                                   zero_overhead(2, OmpSchedule::StaticBlock),
                                   ExecMode::real());
  EXPECT_EQ(r.elapsed, 1250u);
}

// Figure 5 case 3: schedule(dynamic,1). The spawned worker fetches first,
// so it runs I0 while the master takes I1 then I2: the master holds the
// lock 100→400, the worker waits 150→400 and holds 400→850; the master
// reaches I2's lock at 750, waits until 850, and finishes at 950 — exactly
// the paper's reported 950 (speedup 1500/950 ≈ 1.58).
TEST(OmpExecutor, Figure5Dynamic1) {
  const CompiledTree t = CompiledTree::compile(figure5_tree());
  const RunResult r = run_tree_omp(t, cores(2),
                                   zero_overhead(2, OmpSchedule::Dynamic),
                                   ExecMode::real());
  EXPECT_EQ(r.elapsed, 950u);
}

TEST(OmpExecutor, SchedulePolicyOrderingMatchesFigure5) {
  // static,1 beats static, dynamic,1 beats both (for this imbalance).
  const CompiledTree t = CompiledTree::compile(figure5_tree());
  const Cycles s1 =
      run_tree_omp(t, cores(2), zero_overhead(2, OmpSchedule::StaticCyclic),
                   ExecMode::real())
          .elapsed;
  const Cycles sb =
      run_tree_omp(t, cores(2), zero_overhead(2, OmpSchedule::StaticBlock),
                   ExecMode::real())
          .elapsed;
  const Cycles dy =
      run_tree_omp(t, cores(2), zero_overhead(2, OmpSchedule::Dynamic),
                   ExecMode::real())
          .elapsed;
  EXPECT_LT(s1, sb);
  EXPECT_LT(dy, s1);
}

TEST(OmpExecutor, BarrierBlocksSerialTail) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("short").u(100).end_task();
  b.begin_task("long").u(1000).end_task();
  b.end_sec(true);
  b.u(50);
  const CompiledTree t = CompiledTree::compile(b.finish());
  const RunResult r = run_tree_omp(t, cores(2),
                                   zero_overhead(2, OmpSchedule::StaticCyclic),
                                   ExecMode::real());
  EXPECT_EQ(r.elapsed, 1050u);
}

TEST(OmpExecutor, NowaitLetsMasterContinue) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("short").u(100).end_task();
  b.begin_task("long").u(1000).end_task();
  b.end_sec(false);  // nowait
  b.u(50);
  const CompiledTree t = CompiledTree::compile(b.finish());
  const RunResult r = run_tree_omp(t, cores(2),
                                   zero_overhead(2, OmpSchedule::StaticCyclic),
                                   ExecMode::real());
  // Master (iteration 0, 100 cycles) proceeds to the tail U(50); the long
  // iteration bounds the total.
  EXPECT_EQ(r.elapsed, 1000u);
}

TEST(OmpExecutor, PerfectlyBalancedLoopScalesLinearly) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(1000).end_task().repeat_last(64);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  for (const CoreCount n : {1u, 2u, 4u, 8u}) {
    const RunResult r = run_tree_omp(
        t, cores(n), zero_overhead(n, OmpSchedule::StaticCyclic),
        ExecMode::real());
    EXPECT_EQ(r.elapsed, 64u * 1000u / n) << n << " cores";
  }
}

TEST(OmpExecutor, FullySerializedByLock) {
  TreeBuilder b;
  b.begin_sec("s");
  for (int i = 0; i < 8; ++i) b.begin_task("t").l(1, 500).end_task();
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  const RunResult r = run_tree_omp(t, cores(8),
                                   zero_overhead(8, OmpSchedule::StaticCyclic),
                                   ExecMode::real());
  EXPECT_EQ(r.elapsed, 8u * 500u);
  EXPECT_EQ(r.stats.lock_contentions, 7u);
}

TEST(OmpExecutor, ForkJoinOverheadsCharged) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(100).end_task().repeat_last(4);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  OmpConfig c = zero_overhead(4, OmpSchedule::StaticCyclic);
  c.overheads.fork_base = 1000;
  c.overheads.fork_per_thread = 100;
  c.overheads.join_barrier = 50;
  const RunResult r = run_tree_omp(t, cores(4), c, ExecMode::real());
  // fork (1000 + 3*100) + work 100 + barrier 50 = 1450 on the critical path.
  EXPECT_EQ(r.elapsed, 1450u);
}

TEST(OmpExecutor, DynamicDispatchCostPerChunk) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(100).end_task().repeat_last(10);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  OmpConfig c = zero_overhead(1, OmpSchedule::Dynamic);
  c.overheads.dynamic_dispatch = 7;
  const RunResult r = run_tree_omp(t, cores(1), c, ExecMode::real());
  EXPECT_EQ(r.elapsed, 10u * 100u + 10u * 7u);
}

// The Figure 7 nested loop: outer section of two tasks, each containing a
// nested two-iteration section with lengths {10,5} and {5,10} (scaled).
// Preemptive oversubscription must deliver ~2x, not the FF's 1.5x.
TEST(OmpExecutor, Figure7NestedOversubscriptionReaches2x) {
  const Cycles k = 10'000;
  TreeBuilder b;
  b.begin_sec("Loop1");
  b.begin_task("i0");
  b.begin_sec("LoopA");
  b.begin_task("a0").u(10 * k).end_task();
  b.begin_task("a1").u(5 * k).end_task();
  b.end_sec();
  b.end_task();
  b.begin_task("i1");
  b.begin_sec("LoopB");
  b.begin_task("b0").u(5 * k).end_task();
  b.begin_task("b1").u(10 * k).end_task();
  b.end_sec();
  b.end_task();
  b.end_sec();
  const ProgramTree src = b.finish();
  const CompiledTree t = CompiledTree::compile(src);
  const Cycles serial = src.total_serial_cycles();
  EXPECT_EQ(serial, 30 * k);

  const RunResult r = run_tree_omp(
      t, cores(2, /*quantum=*/k / 10),
      zero_overhead(2, OmpSchedule::StaticCyclic), ExecMode::real());
  const double speedup =
      static_cast<double>(serial) / static_cast<double>(r.elapsed);
  EXPECT_GT(speedup, 1.85);
  EXPECT_LE(speedup, 2.01);
  EXPECT_GT(r.stats.spawned_threads, 2u);  // nested teams spawned threads
}

TEST(OmpExecutor, SynthBurdenFactorInflatesSection) {
  TreeBuilder b;
  b.begin_sec("s");
  b.current()->set_burden(2, 1.5);
  b.begin_task("t").u(1000).end_task().repeat_last(2);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  ExecMode mode = ExecMode::synth_mode();
  mode.synth = SynthOverheads{0, 0};  // isolate the burden effect
  const RunResult r = run_tree_omp(t, cores(2),
                                   zero_overhead(2, OmpSchedule::StaticCyclic),
                                   mode);
  // Each of the 2 parallel iterations takes 1000 * 1.5.
  EXPECT_EQ(r.elapsed, 1500u);
}

TEST(OmpExecutor, SynthTraversalOverheadTrackedAndSubtractable) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(100).end_task().repeat_last(10);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  ExecMode mode = ExecMode::synth_mode();
  mode.synth.access_node = 50;
  mode.synth.recursive_call = 50;
  const RunResult r = run_tree_omp(t, cores(1),
                                   zero_overhead(1, OmpSchedule::StaticCyclic),
                                   ExecMode{mode});
  // 10 iterations × (100 work + 50 access) + 50 recursive-call entry.
  EXPECT_EQ(r.elapsed, 10u * 150u + 50u);
  EXPECT_EQ(r.traversal_overhead, 10u * 50u + 50u);
  EXPECT_EQ(r.net(), 10u * 100u);
}

TEST(OmpExecutor, RealModeMemoryBoundSectionSaturates) {
  // A memory-bound section (mem fraction ~1, traffic near saturation):
  // speedup must collapse well below linear.
  TreeBuilder b;
  b.begin_sec("s");
  tree::SectionCounters c;
  c.cycles = 64'000;
  c.llc_misses = 320;  // ω=200 -> mem cycles = 64000 == T: fully memory bound
  b.counters(c);
  b.begin_task("t").u(1000).end_task().repeat_last(64);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());

  machine::MachineConfig m1 = cores(1);
  m1.bandwidth.saturation_mbps = 400.0;  // solo traffic ≈ 320 MB/s: near sat
  machine::MachineConfig m8 = m1;
  m8.cores = 8;

  ExecMode mode = ExecMode::real();
  const Cycles t1 =
      run_tree_omp(t, m1, zero_overhead(1, OmpSchedule::StaticCyclic), mode)
          .elapsed;
  const Cycles t8 =
      run_tree_omp(t, m8, zero_overhead(8, OmpSchedule::StaticCyclic), mode)
          .elapsed;
  const double speedup = static_cast<double>(t1) / static_cast<double>(t8);
  EXPECT_LT(speedup, 3.0);  // 8 cores but memory-bound: far below 8
  EXPECT_GT(speedup, 1.0);
}

TEST(OmpExecutor, ComputeBoundSectionIgnoresBandwidth) {
  TreeBuilder b;
  b.begin_sec("s");
  tree::SectionCounters c;
  c.cycles = 64'000;
  c.llc_misses = 0;
  c.instructions = 64'000;
  b.counters(c);
  b.begin_task("t").u(1000).end_task().repeat_last(64);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  machine::MachineConfig m8 = cores(8);
  m8.bandwidth.saturation_mbps = 100.0;  // tiny, but nobody uses it
  const RunResult r = run_tree_omp(
      t, m8, zero_overhead(8, OmpSchedule::StaticCyclic), ExecMode::real());
  EXPECT_EQ(r.elapsed, 8u * 1000u);
}

TEST(OmpExecutor, GuidedHandlesTriangularImbalanceWell) {
  // Increasing workload (LU-style): guided's early big chunks cover the
  // cheap iterations and its shrinking tail chunks balance the expensive
  // ones — it must beat static block and approach the ideal. (On a
  // *decreasing* workload guided's first chunk is too greedy — the classic
  // guided pathology, which the executor reproduces.)
  TreeBuilder b;
  b.begin_sec("s");
  for (int i = 1; i <= 32; ++i) {
    b.begin_task("t").u(static_cast<Cycles>(i) * 100).end_task();
  }
  b.end_sec();
  const ProgramTree src = b.finish();
  const CompiledTree t = CompiledTree::compile(src);
  const Cycles guided =
      run_tree_omp(t, cores(4), zero_overhead(4, OmpSchedule::Guided),
                   ExecMode::real())
          .elapsed;
  const Cycles block =
      run_tree_omp(t, cores(4), zero_overhead(4, OmpSchedule::StaticBlock),
                   ExecMode::real())
          .elapsed;
  EXPECT_LT(guided, block);
  const Cycles ideal = src.total_serial_cycles() / 4;
  EXPECT_LE(guided, ideal + ideal / 4);
}

TEST(OmpExecutor, GuidedPaysDynamicDispatchPerChunk) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(100).end_task().repeat_last(16);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  OmpConfig c = zero_overhead(1, OmpSchedule::Guided);
  c.overheads.dynamic_dispatch = 10;
  const RunResult r = run_tree_omp(t, cores(1), c, ExecMode::real());
  // Single thread: chunks 16, then remaining/1 each time => 16 then done?
  // guided with t=1 takes everything in one chunk: one dispatch.
  EXPECT_EQ(r.elapsed, 16u * 100u + 10u);
}

TEST(OmpExecutor, DeterministicAcrossRuns) {
  const CompiledTree t = CompiledTree::compile(figure5_tree());
  const OmpConfig c = zero_overhead(3, OmpSchedule::Dynamic);
  const Cycles a = run_tree_omp(t, cores(3), c, ExecMode::real()).elapsed;
  const Cycles b2 = run_tree_omp(t, cores(3), c, ExecMode::real()).elapsed;
  EXPECT_EQ(a, b2);
}

TEST(OmpExecutor, RunSectionMatchesWholeTreeForSingleSection) {
  const CompiledTree t = CompiledTree::compile(figure5_tree());
  const OmpConfig c = zero_overhead(2, OmpSchedule::StaticCyclic);
  const Cycles whole = run_tree_omp(t, cores(2), c, ExecMode::real()).elapsed;
  const Cycles section =
      run_section_omp(t, 0, cores(2), c, ExecMode::real()).elapsed;
  EXPECT_EQ(whole, section);
}

TEST(OmpExecutor, RejectsBadInputs) {
  const CompiledTree t = CompiledTree::compile(figure5_tree());
  EXPECT_THROW(run_tree_omp(t, cores(2),
                            zero_overhead(0, OmpSchedule::StaticBlock),
                            ExecMode::real()),
               std::invalid_argument);
  // The Figure 5 tree has a single top-level section.
  EXPECT_THROW(run_section_omp(t, 1, cores(2),
                               zero_overhead(2, OmpSchedule::StaticBlock),
                               ExecMode::real()),
               std::invalid_argument);
}

TEST(OmpExecutor, MoreThreadsThanCoresStillCorrectTotalWork) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(1000).end_task().repeat_last(16);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  // 8 threads on 2 cores: work conserved, elapsed ≈ 16000/2.
  const RunResult r = run_tree_omp(t, cores(2, 500),
                                   zero_overhead(8, OmpSchedule::StaticCyclic),
                                   ExecMode::real());
  EXPECT_GE(r.elapsed, 8000u);
  EXPECT_LE(r.elapsed, 8000u + 200u);  // rounding from preemption
}

// --- Replay work counts: events the DES pops per section run ---

/// One flat, lock-free section of n equal 1000-cycle tasks, replayed by
/// the synthesizer at t = 4 threads on 4 cores with the default overheads.
machine::MachineStats flat_syn_run(std::uint64_t n, OmpSchedule sched) {
  TreeBuilder b;
  b.begin_sec("loop");
  b.begin_task("t").u(1000).end_task().repeat_last(n);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  OmpConfig c;
  c.num_threads = 4;
  c.schedule = sched;
  return run_section_omp(t, 0, cores(4), c, ExecMode::synth_mode()).stats;
}

// A static fetch reads only the rank's own scheduler state, so each
// thread's whole share (its block, or its static-cyclic chunks: dispatch,
// then per iteration the access_node cost and the leaf's FakeDelay) folds
// into one Exec: 4 share Execs plus 4 join-barrier Execs, whatever n is.
// The master's fork Exec joins its share.
TEST(OmpReplayWork, StaticSchedulesPopTheSameEventsAtAnyTripCount) {
  for (const OmpSchedule sched :
       {OmpSchedule::StaticBlock, OmpSchedule::StaticCyclic}) {
    for (const std::uint64_t n : {64u, 4096u}) {
      const machine::MachineStats s = flat_syn_run(n, sched);
      EXPECT_EQ(s.events, 8u) << to_string(sched) << " n=" << n;
      EXPECT_EQ(s.stale_events, 0u) << to_string(sched) << " n=" << n;
    }
  }
}

// A dynamic fetch reads the shared counter, so it waits for the thread's
// previous Exec to complete: one Exec per iteration (dispatch, access_node
// and leaf folded), plus the master's fork and 4 join barriers.
TEST(OmpReplayWork, DynamicChunkOneGrowsWithTripCount) {
  EXPECT_EQ(flat_syn_run(64, OmpSchedule::Dynamic).events, 64u + 5u);
  EXPECT_EQ(flat_syn_run(4096, OmpSchedule::Dynamic).events, 4096u + 5u);
}

}  // namespace
}  // namespace pprophet::runtime
