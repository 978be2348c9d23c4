// Additional schedule-semantics coverage across the executor and the FF:
// chunked static/dynamic policies, guided in the FF, and nested sections
// under pull-based scheduling.
#include <gtest/gtest.h>

#include "emul/ff.hpp"
#include "runtime/omp_executor.hpp"
#include "tree/builder.hpp"

namespace pprophet::runtime {
namespace {

using tree::CompiledTree;
using tree::ProgramTree;
using tree::TreeBuilder;

OmpConfig cfg(std::uint32_t threads, OmpSchedule sched, std::uint64_t chunk) {
  OmpConfig c;
  c.num_threads = threads;
  c.schedule = sched;
  c.chunk = chunk;
  c.overheads = OmpOverheads{0, 0, 0, 0, 0, 0, 0};
  return c;
}

machine::MachineConfig cores(CoreCount n) {
  machine::MachineConfig m;
  m.cores = n;
  m.context_switch = 0;
  return m;
}

ProgramTree ramp_loop(int iters, Cycles step) {
  TreeBuilder b;
  b.begin_sec("s");
  for (int i = 1; i <= iters; ++i) {
    b.begin_task("t").u(static_cast<Cycles>(i) * step).end_task();
  }
  b.end_sec();
  return b.finish();
}

TEST(ChunkedSchedules, StaticChunk2MatchesHandComputation) {
  // 8 iterations of length 100·i, 2 threads, chunks of 2:
  // T0: {1,2} {5,6} = 1400; T1: {3,4} {7,8} = 2200.
  const CompiledTree t = CompiledTree::compile(ramp_loop(8, 100));
  const RunResult r = run_tree_omp(
      t, cores(2), cfg(2, OmpSchedule::StaticCyclic, 2), ExecMode::real());
  // ±1 cycle of event rounding at op boundaries.
  EXPECT_GE(r.elapsed, 2200u);
  EXPECT_LE(r.elapsed, 2202u);
}

TEST(ChunkedSchedules, DynamicChunk2ReducesDispatches) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(100).end_task().repeat_last(16);
  b.end_sec();
  const CompiledTree t = CompiledTree::compile(b.finish());
  OmpConfig c1 = cfg(1, OmpSchedule::Dynamic, 1);
  c1.overheads.dynamic_dispatch = 10;
  OmpConfig c4 = c1;
  c4.chunk = 4;
  const Cycles fine = run_tree_omp(t, cores(1), c1, ExecMode::real()).elapsed;
  const Cycles coarse = run_tree_omp(t, cores(1), c4, ExecMode::real()).elapsed;
  EXPECT_EQ(fine, 1600u + 16u * 10u);
  EXPECT_EQ(coarse, 1600u + 4u * 10u);
}

TEST(ChunkedSchedules, LargeChunkDegradesImbalancedLoops) {
  // Ramp loop: chunk 8 under dynamic means one thread eats the heavy tail.
  const CompiledTree t = CompiledTree::compile(ramp_loop(16, 1'000));
  const Cycles fine =
      run_tree_omp(t, cores(4), cfg(4, OmpSchedule::Dynamic, 1),
                   ExecMode::real())
          .elapsed;
  const Cycles coarse =
      run_tree_omp(t, cores(4), cfg(4, OmpSchedule::Dynamic, 8),
                   ExecMode::real())
          .elapsed;
  EXPECT_GT(coarse, fine);
}

TEST(FfGuided, MatchesExecutorOnRampLoop) {
  const ProgramTree src = ramp_loop(32, 500);
  const CompiledTree t = CompiledTree::compile(src);
  emul::FfConfig fc;
  fc.num_threads = 4;
  fc.schedule = OmpSchedule::Guided;
  fc.chunk = 1;
  fc.overheads = OmpOverheads{0, 0, 0, 0, 0, 0, 0};
  const double ff = emul::emulate_ff(t, fc).speedup();
  const RunResult run = run_tree_omp(
      t, cores(4), cfg(4, OmpSchedule::Guided, 1), ExecMode::real());
  const double real = static_cast<double>(src.total_serial_cycles()) /
                      static_cast<double>(run.elapsed);
  EXPECT_NEAR(ff, real, 0.15 * real);
}

TEST(NestedDynamic, InnerSectionsCompleteUnderPullScheduling) {
  // Outer dynamic loop whose iterations contain nested dynamic loops: the
  // executor must neither deadlock nor lose iterations.
  TreeBuilder b;
  b.begin_sec("outer");
  for (int i = 0; i < 6; ++i) {
    b.begin_task("ot");
    b.u(500);
    b.begin_sec("inner");
    for (int j = 0; j < 4; ++j) b.begin_task("it").u(250).end_task();
    b.end_sec();
    b.end_task();
  }
  b.end_sec();
  const ProgramTree src = b.finish();
  const CompiledTree t = CompiledTree::compile(src);
  const Cycles work = src.total_serial_cycles();
  const RunResult r = run_tree_omp(
      t, cores(4), cfg(4, OmpSchedule::Dynamic, 1), ExecMode::real());
  EXPECT_GE(r.stats.total_busy, work);  // everything executed
  EXPECT_LT(r.elapsed, work);           // and some of it in parallel
  // FF handles the same tree (its dynamic stack covers nested contexts).
  emul::FfConfig fc;
  fc.num_threads = 4;
  fc.schedule = OmpSchedule::Dynamic;
  fc.overheads = OmpOverheads{0, 0, 0, 0, 0, 0, 0};
  const emul::FfResult ff = emul::emulate_ff(t, fc);
  EXPECT_GT(ff.speedup(), 1.0);
  EXPECT_LE(ff.speedup(), 4.01);
}

TEST(ChunkedSchedules, FfStaticChunkMatchesExecutor) {
  const CompiledTree t = CompiledTree::compile(ramp_loop(8, 100));
  emul::FfConfig fc;
  fc.num_threads = 2;
  fc.schedule = OmpSchedule::StaticCyclic;
  fc.chunk = 2;
  fc.overheads = OmpOverheads{0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(emul::emulate_ff(t, fc).parallel_cycles, 2200u);
}

}  // namespace
}  // namespace pprophet::runtime
