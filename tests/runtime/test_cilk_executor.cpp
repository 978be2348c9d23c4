#include "runtime/cilk_executor.hpp"

#include <gtest/gtest.h>

#include "tree/builder.hpp"

namespace pprophet::runtime {
namespace {

using tree::CompiledTree;
using tree::ProgramTree;
using tree::TreeBuilder;

CilkConfig workers(std::uint32_t n, std::uint64_t grain = 0) {
  CilkConfig c;
  c.num_workers = n;
  c.grain = grain;
  c.overheads = CilkOverheads{0, 0, 0, 0, 0, 0};
  return c;
}

machine::MachineConfig cores(CoreCount n) {
  machine::MachineConfig m;
  m.cores = n;
  m.quantum = 100'000;
  m.context_switch = 0;
  return m;
}

ProgramTree flat_loop(std::uint64_t iters, Cycles len) {
  TreeBuilder b;
  b.begin_sec("loop");
  b.begin_task("t").u(len).end_task().repeat_last(iters);
  b.end_sec();
  return b.finish();
}

/// FFT-style recursion: each level is a Sec with two tasks that each
/// contain the next level, plus a leaf compute.
void add_recursive(TreeBuilder& b, int depth, Cycles leaf_len) {
  if (depth == 0) {
    b.u(leaf_len);
    return;
  }
  b.begin_sec("rec");
  for (int i = 0; i < 2; ++i) {
    b.begin_task("half");
    add_recursive(b, depth - 1, leaf_len);
    b.end_task();
  }
  b.end_sec();
  b.u(leaf_len);  // combine step after the recursive calls
}

ProgramTree recursive_tree(int depth, Cycles leaf_len) {
  TreeBuilder b;
  b.begin_sec("top");
  b.begin_task("root");
  add_recursive(b, depth, leaf_len);
  b.end_task();
  b.end_sec();
  return b.finish();
}

TEST(CilkExecutor, SingleWorkerMatchesSerial) {
  const CompiledTree t = CompiledTree::compile(flat_loop(32, 500));
  const RunResult r =
      run_tree_cilk(t, cores(1), workers(1), ExecMode::real());
  EXPECT_EQ(r.elapsed, 32u * 500u);
}

TEST(CilkExecutor, FlatLoopScalesNearLinearly) {
  const CompiledTree t = CompiledTree::compile(flat_loop(64, 1000));
  const Cycles t1 =
      run_tree_cilk(t, cores(1), workers(1), ExecMode::real()).elapsed;
  for (const std::uint32_t n : {2u, 4u, 8u}) {
    const Cycles tn =
        run_tree_cilk(t, cores(n), workers(n), ExecMode::real()).elapsed;
    const double speedup = static_cast<double>(t1) / static_cast<double>(tn);
    EXPECT_GT(speedup, 0.85 * n) << n << " workers";
    EXPECT_LE(speedup, 1.0 * n + 0.01);
  }
}

TEST(CilkExecutor, WorkConservedWithSplitting) {
  const CompiledTree t = CompiledTree::compile(flat_loop(100, 123));
  const RunResult r =
      run_tree_cilk(t, cores(4), workers(4, /*grain=*/3), ExecMode::real());
  EXPECT_EQ(r.stats.total_busy, 100u * 123u);
}

TEST(CilkExecutor, RecursiveParallelismScales) {
  // depth 6: 2^6 = 64 leaves of 1000 cycles plus combine steps.
  const ProgramTree src = recursive_tree(6, 1000);
  const CompiledTree t = CompiledTree::compile(src);
  const Cycles serial = src.total_serial_cycles();
  const Cycles t1 =
      run_tree_cilk(t, cores(1), workers(1), ExecMode::real()).elapsed;
  EXPECT_EQ(t1, serial);
  const Cycles t4 =
      run_tree_cilk(t, cores(4), workers(4), ExecMode::real()).elapsed;
  const double speedup = static_cast<double>(t1) / static_cast<double>(t4);
  EXPECT_GT(speedup, 2.5);
  EXPECT_LE(speedup, 4.01);
}

TEST(CilkExecutor, FixedWorkerPoolNoOversubscription) {
  // Unlike nested OpenMP, recursion must not create extra OS threads.
  const CompiledTree t = CompiledTree::compile(recursive_tree(5, 500));
  const RunResult r =
      run_tree_cilk(t, cores(4), workers(4), ExecMode::real());
  EXPECT_EQ(r.stats.spawned_threads, 4u);
  EXPECT_EQ(r.stats.preemptions, 0u);
}

TEST(CilkExecutor, StealOverheadCharged) {
  const CompiledTree t = CompiledTree::compile(flat_loop(16, 1000));
  CilkConfig with = workers(4, 1);
  with.overheads.steal = 2000;
  const Cycles costly =
      run_tree_cilk(t, cores(4), with, ExecMode::real()).elapsed;
  const Cycles free =
      run_tree_cilk(t, cores(4), workers(4, 1), ExecMode::real()).elapsed;
  EXPECT_GT(costly, free);
}

TEST(CilkExecutor, LocksSerializeAcrossWorkers) {
  TreeBuilder b;
  b.begin_sec("s");
  for (int i = 0; i < 6; ++i) b.begin_task("t").l(2, 400).end_task();
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  const RunResult r =
      run_tree_cilk(t, cores(6), workers(6, 1), ExecMode::real());
  EXPECT_EQ(r.elapsed, 6u * 400u);
}

TEST(CilkExecutor, SynthModeBurdenApplied) {
  TreeBuilder b;
  b.begin_sec("s");
  b.current()->set_burden(4, 2.0);
  b.begin_task("t").u(1000).end_task().repeat_last(4);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  ExecMode mode = ExecMode::synth_mode();
  mode.synth = SynthOverheads{0, 0};  // isolate the burden effect
  const RunResult r = run_tree_cilk(t, cores(4), workers(4, 1), mode);
  EXPECT_EQ(r.elapsed, 2000u);  // each iteration doubled by the burden
}

TEST(CilkExecutor, SynthTraversalOverheadTracked) {
  const CompiledTree t = CompiledTree::compile(flat_loop(10, 100));
  ExecMode mode = ExecMode::synth_mode();
  mode.synth.access_node = 50;
  mode.synth.recursive_call = 50;
  const RunResult r = run_tree_cilk(t, cores(1), workers(1), mode);
  EXPECT_EQ(r.traversal_overhead, 10u * 50u + 50u);
  EXPECT_EQ(r.net(), 10u * 100u);
}

TEST(CilkExecutor, DeterministicAcrossRuns) {
  const CompiledTree t = CompiledTree::compile(recursive_tree(5, 700));
  const Cycles a =
      run_tree_cilk(t, cores(3), workers(3), ExecMode::real()).elapsed;
  const Cycles b2 =
      run_tree_cilk(t, cores(3), workers(3), ExecMode::real()).elapsed;
  EXPECT_EQ(a, b2);
}

TEST(CilkExecutor, SerialTailAfterSectionRunsOnMaster) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(500).end_task().repeat_last(4);
  b.end_sec();
  b.u(100);
  const CompiledTree t = CompiledTree::compile(b.finish());
  const RunResult r =
      run_tree_cilk(t, cores(4), workers(4, 1), ExecMode::real());
  EXPECT_EQ(r.elapsed, 600u);
}

TEST(CilkExecutor, RejectsBadInputs) {
  const CompiledTree t = CompiledTree::compile(flat_loop(4, 10));
  EXPECT_THROW(run_tree_cilk(t, cores(2), workers(0), ExecMode::real()),
               std::invalid_argument);
  // A flat loop has a single top-level section.
  EXPECT_THROW(run_section_cilk(t, 1, cores(2), workers(2), ExecMode::real()),
               std::invalid_argument);
}

TEST(CilkExecutor, GrainLimitsSplitDepth) {
  // With grain == trip count there is a single item: serial execution even
  // with many workers.
  const CompiledTree t = CompiledTree::compile(flat_loop(32, 100));
  const RunResult r =
      run_tree_cilk(t, cores(4), workers(4, /*grain=*/32), ExecMode::real());
  EXPECT_EQ(r.elapsed, 3200u);
}

}  // namespace
}  // namespace pprophet::runtime
