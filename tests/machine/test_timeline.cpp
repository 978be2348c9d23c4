#include "machine/timeline.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "machine/bodies.hpp"
#include "machine/machine.hpp"
#include "runtime/omp_executor.hpp"
#include "tree/builder.hpp"

namespace pprophet::machine {
namespace {

TEST(Timeline, RecordsAndAggregates) {
  Timeline tl;
  tl.record(0, 0, 100, TimelineSpan::Kind::Run);
  tl.record(0, 100, 150, TimelineSpan::Kind::LockWait);
  tl.record(1, 0, 80, TimelineSpan::Kind::Run);
  EXPECT_EQ(tl.thread_count(), 2u);
  EXPECT_EQ(tl.horizon(), 150u);
  EXPECT_EQ(tl.busy(0), 100u);
  EXPECT_EQ(tl.lock_wait(0), 50u);
  EXPECT_EQ(tl.busy(1), 80u);
}

TEST(Timeline, EmptySpansIgnored) {
  Timeline tl;
  tl.record(0, 50, 50, TimelineSpan::Kind::Run);
  EXPECT_TRUE(tl.spans().empty());
}

TEST(Timeline, PrintRendersRowsAndGlyphs) {
  Timeline tl;
  tl.record(0, 0, 50, TimelineSpan::Kind::Run);
  tl.record(1, 50, 100, TimelineSpan::Kind::LockWait);
  std::ostringstream os;
  tl.print(os, 20);
  const std::string out = os.str();
  EXPECT_NE(out.find("thread 0"), std::string::npos);
  EXPECT_NE(out.find("thread 1"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('.'), std::string::npos);
}

TEST(Timeline, EmptyTimelinePrintsPlaceholder) {
  Timeline tl;
  std::ostringstream os;
  tl.print(os);
  EXPECT_NE(os.str().find("empty timeline"), std::string::npos);
}

TEST(Timeline, MachineRecordsRunSpans) {
  MachineConfig cfg;
  cfg.cores = 2;
  cfg.context_switch = 0;
  Machine m(cfg);
  Timeline tl;
  m.set_timeline(&tl);
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(500)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(300)}));
  m.run();
  EXPECT_EQ(tl.busy(0), 500u);
  EXPECT_EQ(tl.busy(1), 300u);
  EXPECT_EQ(tl.horizon(), 500u);
}

TEST(Timeline, MachineRecordsLockWaits) {
  MachineConfig cfg;
  cfg.cores = 2;
  cfg.context_switch = 0;
  Machine m(cfg);
  Timeline tl;
  m.set_timeline(&tl);
  for (int i = 0; i < 2; ++i) {
    m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{
        Op::acquire(1), Op::exec(400), Op::release(1)}));
  }
  m.run();
  // The second thread waited exactly one critical-section length.
  EXPECT_EQ(tl.lock_wait(0) + tl.lock_wait(1), 400u);
}

TEST(Timeline, ExecutorRunsRecordFigure5Shape) {
  // The Figure 5 static,1 case: thread 1 (iteration I1) holds the lock
  // 100..400 while thread 0 waits 150..400.
  tree::TreeBuilder b;
  b.begin_sec("loop");
  b.begin_task("I0").u(150).l(1, 450).u(50).end_task();
  b.begin_task("I1").u(100).l(1, 300).u(200).end_task();
  b.begin_task("I2").u(150).l(1, 50).u(50).end_task();
  b.end_sec();
  const tree::ProgramTree t = b.finish();

  machine::MachineConfig mcfg;
  mcfg.cores = 2;
  mcfg.context_switch = 0;
  runtime::OmpConfig ocfg;
  ocfg.num_threads = 2;
  ocfg.schedule = runtime::OmpSchedule::StaticCyclic;
  ocfg.overheads = runtime::OmpOverheads{0, 0, 0, 0, 0, 0, 0};
  Timeline tl;
  runtime::ExecMode mode = runtime::ExecMode::real();
  mode.timeline = &tl;
  const runtime::RunResult r = runtime::run_tree_omp(
      tree::CompiledTree::compile(t), mcfg, ocfg, mode);
  EXPECT_EQ(r.elapsed, 1150u);
  // Master (thread 0) ran I0+I2 = 900 work; worker (thread 1) ran I1 = 600.
  EXPECT_EQ(tl.busy(0), 900u);
  EXPECT_EQ(tl.busy(1), 600u);
  EXPECT_EQ(tl.lock_wait(0), 250u);
  EXPECT_EQ(tl.lock_wait(1), 0u);
}

}  // namespace
}  // namespace pprophet::machine
