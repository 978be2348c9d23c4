#include "emul/ff.hpp"

#include <gtest/gtest.h>

#include "emul/suitability.hpp"

#include "tree/builder.hpp"

namespace pprophet::emul {
namespace {

using runtime::OmpSchedule;
using tree::CompiledTree;
using tree::ProgramTree;
using tree::TreeBuilder;

FfConfig cfg(CoreCount threads, OmpSchedule sched, std::uint64_t chunk = 1) {
  FfConfig c;
  c.num_threads = threads;
  c.schedule = sched;
  c.chunk = chunk;
  c.overheads = runtime::OmpOverheads{0, 0, 0, 0, 0, 0, 0};
  return c;
}

ProgramTree figure5_tree() {
  TreeBuilder b;
  b.begin_sec("loop");
  b.begin_task("I0").u(150).l(1, 450).u(50).end_task();
  b.begin_task("I1").u(100).l(1, 300).u(200).end_task();
  b.begin_task("I2").u(150).l(1, 50).u(50).end_task();
  b.end_sec();
  return b.finish();
}

TEST(Ff, SerialBaseline) {
  const CompiledTree t = CompiledTree::compile(figure5_tree());
  const FfResult r = emulate_ff(t, cfg(1, OmpSchedule::StaticBlock));
  EXPECT_EQ(r.serial_cycles, 1500u);
  EXPECT_EQ(r.parallel_cycles, 1500u);
  EXPECT_DOUBLE_EQ(r.speedup(), 1.0);
}

// Paper Figure 5, all three schedule cases, on two virtual CPUs.
TEST(Ff, Figure5Static1) {
  const FfResult r = emulate_ff(CompiledTree::compile(figure5_tree()),
                                cfg(2, OmpSchedule::StaticCyclic));
  EXPECT_EQ(r.parallel_cycles, 1150u);
  EXPECT_NEAR(r.speedup(), 1.30, 0.01);
}

TEST(Ff, Figure5StaticBlock) {
  const FfResult r = emulate_ff(CompiledTree::compile(figure5_tree()),
                                cfg(2, OmpSchedule::StaticBlock));
  EXPECT_EQ(r.parallel_cycles, 1250u);
  EXPECT_NEAR(r.speedup(), 1.20, 0.01);
}

TEST(Ff, Figure5Dynamic1) {
  const FfResult r = emulate_ff(CompiledTree::compile(figure5_tree()),
                                cfg(2, OmpSchedule::Dynamic));
  EXPECT_EQ(r.parallel_cycles, 950u);
  EXPECT_NEAR(r.speedup(), 1.58, 0.01);
}

// Paper Figure 7: the FF's non-preemptive round-robin nested mapping piles
// both long nested iterations onto the same CPU and predicts 1.5 where the
// real machine reaches 2.0.
TEST(Ff, Figure7NestedMispredictionIs1p5) {
  const Cycles k = 1000;
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
  const CompiledTree t = CompiledTree::compile(b.finish());

  const FfResult r = emulate_ff(t, cfg(2, OmpSchedule::StaticCyclic));
  EXPECT_EQ(r.serial_cycles, 30 * k);
  EXPECT_EQ(r.parallel_cycles, 20 * k);
  EXPECT_NEAR(r.speedup(), 1.5, 0.001);
}

TEST(Ff, BalancedLoopScalesLinearly) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(1000).end_task().repeat_last(48);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  for (const CoreCount n : {2u, 4u, 6u, 12u}) {
    const FfResult r = emulate_ff(t, cfg(n, OmpSchedule::StaticCyclic));
    EXPECT_EQ(r.parallel_cycles, 48u * 1000u / n) << n;
  }
}

TEST(Ff, TriangularImbalanceFavorsCyclicOverBlock) {
  // Iteration i has work proportional to i (LUreduction-style).
  TreeBuilder b;
  b.begin_sec("s");
  for (int i = 1; i <= 32; ++i) {
    b.begin_task("t").u(static_cast<Cycles>(i) * 100).end_task();
  }
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  const Cycles cyclic =
      emulate_ff(t, cfg(4, OmpSchedule::StaticCyclic)).parallel_cycles;
  const Cycles block =
      emulate_ff(t, cfg(4, OmpSchedule::StaticBlock)).parallel_cycles;
  const Cycles dynamic =
      emulate_ff(t, cfg(4, OmpSchedule::Dynamic)).parallel_cycles;
  EXPECT_LT(cyclic, block);
  EXPECT_LE(dynamic, cyclic);
}

TEST(Ff, ForkAndDispatchOverheadsCharged) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(100).end_task().repeat_last(4);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  FfConfig c = cfg(4, OmpSchedule::StaticCyclic);
  c.overheads.fork_base = 1000;
  c.overheads.fork_per_thread = 100;
  c.overheads.join_barrier = 50;
  c.overheads.static_dispatch = 10;
  const FfResult r = emulate_ff(t, c);
  // fork (1000 + 3×100) + dispatch 10 + work 100 + barrier 50.
  EXPECT_EQ(r.parallel_cycles, 1300u + 10u + 100u + 50u);
}

TEST(Ff, LockOverheadsSurroundCriticalSections) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").l(1, 100).end_task();
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  FfConfig c = cfg(1, OmpSchedule::StaticCyclic);
  c.overheads.lock_acquire = 30;
  c.overheads.lock_release = 20;
  EXPECT_EQ(emulate_ff(t, c).parallel_cycles, 150u);
}

TEST(Ff, FullLockSerializationMatchesTheory) {
  TreeBuilder b;
  b.begin_sec("s");
  for (int i = 0; i < 8; ++i) b.begin_task("t").l(1, 500).end_task();
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  const FfResult r = emulate_ff(t, cfg(8, OmpSchedule::StaticCyclic));
  EXPECT_EQ(r.parallel_cycles, 8u * 500u);
}

TEST(Ff, DistinctLocksDoNotSerialize) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").l(1, 500).end_task();
  b.begin_task("t").l(2, 500).end_task();
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  EXPECT_EQ(emulate_ff(t, cfg(2, OmpSchedule::StaticCyclic)).parallel_cycles,
            500u);
}

TEST(Ff, BurdenFactorScalesNodeLengths) {
  TreeBuilder b;
  b.begin_sec("s");
  b.current()->set_burden(2, 1.5);
  b.begin_task("t").u(1000).end_task().repeat_last(2);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  FfConfig c = cfg(2, OmpSchedule::StaticCyclic);
  c.apply_burden = true;
  EXPECT_EQ(emulate_ff(t, c).parallel_cycles, 1500u);
  c.apply_burden = false;
  EXPECT_EQ(emulate_ff(t, c).parallel_cycles, 1000u);
}

TEST(Ff, DynamicChunkGreaterThanOne) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(100).end_task().repeat_last(8);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  const FfResult r = emulate_ff(t, cfg(2, OmpSchedule::Dynamic, 2));
  EXPECT_EQ(r.parallel_cycles, 400u);  // 4 chunks of 2 across 2 cpus
}

TEST(Ff, NowaitNestedSectionOverlapsParent) {
  // Parent task: U(100), nowait-Sec{U(1000)}, U(100). The parent continues
  // past the nowait section; but the FF's nested round-robin maps the
  // single nested iteration onto the parent's own CPU (rank 0 → CPU 0), so
  // it only starts once the parent's remaining U(100) is done: 200 + 1000.
  // (Yet another instance of the fixed-mapping artifact of §IV-D.)
  TreeBuilder b;
  b.begin_sec("outer");
  b.begin_task("p");
  b.u(100);
  b.begin_sec("inner");
  b.begin_task("n").u(1000).end_task();
  b.end_sec(false);  // nowait
  b.u(100);
  b.end_task();
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  const FfResult r = emulate_ff(t, cfg(2, OmpSchedule::StaticCyclic));
  EXPECT_EQ(r.parallel_cycles, 1200u);
  // Still better than full serialization of 100+1000+100 in sequence plus
  // an implicit wait — the parent's trailing U did overlap nothing, but
  // nowait kept the parent from blocking at the section end.
}

TEST(Ff, SerialTopLevelNodesPassThrough) {
  TreeBuilder b;
  b.u(500);
  b.begin_sec("s");
  b.begin_task("t").u(100).end_task().repeat_last(2);
  b.end_sec();
  b.u(250);
  const CompiledTree t = CompiledTree::compile(b.finish());
  const FfResult r = emulate_ff(t, cfg(2, OmpSchedule::StaticCyclic));
  EXPECT_EQ(r.parallel_cycles, 500u + 100u + 250u);
  EXPECT_EQ(r.serial_cycles, 950u);
}

TEST(Ff, RejectsBadInputs) {
  const CompiledTree t = CompiledTree::compile(figure5_tree());
  EXPECT_THROW(emulate_ff(t, cfg(0, OmpSchedule::StaticBlock)),
               std::invalid_argument);
  // The Figure 5 tree has a single top-level section.
  EXPECT_THROW(emulate_ff_section(t, 1, cfg(2, OmpSchedule::StaticBlock)),
               std::invalid_argument);
}

TEST(Suitability, IgnoresSchedulePolicy) {
  // Same prediction regardless of what the tree would prefer — the paper's
  // observation that Suitability cannot differentiate schedules.
  const CompiledTree t = CompiledTree::compile(figure5_tree());
  SuitabilityConfig c;
  c.num_threads = 2;
  const FfResult r = emulate_suitability(t, c);
  EXPECT_GT(r.parallel_cycles, 0u);
  // Heavier constant overheads than the calibrated FF.
  const FfResult ff = emulate_ff(t, cfg(2, OmpSchedule::Dynamic));
  EXPECT_GT(r.parallel_cycles, ff.parallel_cycles);
}

TEST(Suitability, OverestimatesInnerLoopOverhead) {
  // Frequent small inner parallel loops (LU-OMP pattern): Suitability's
  // coarse per-fork cost makes it predict much worse speedups than FF.
  TreeBuilder b;
  for (int k = 0; k < 20; ++k) {
    b.begin_sec("inner");
    for (int i = 0; i < 8; ++i) b.begin_task("t").u(2000).end_task();
    b.end_sec();
  }
  const CompiledTree t = CompiledTree::compile(b.finish());
  SuitabilityConfig sc;
  sc.num_threads = 8;
  const double suit = emulate_suitability(t, sc).speedup();
  FfConfig fc = cfg(8, OmpSchedule::StaticCyclic);
  fc.overheads.fork_base = 2000;
  fc.overheads.fork_per_thread = 500;
  const double ff = emulate_ff(t, fc).speedup();
  EXPECT_LT(suit, 0.75 * ff);
}

}  // namespace
}  // namespace pprophet::emul
