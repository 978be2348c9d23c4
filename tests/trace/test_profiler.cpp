#include "trace/profiler.hpp"

#include <gtest/gtest.h>

#include "tree/validate.hpp"

namespace pprophet::trace {
namespace {

using tree::NodeKind;

// Drives the profiler with a manual clock: each helper advances virtual
// time, so node lengths are exact.
class ProfilerTest : public ::testing::Test {
 protected:
  ManualClock clock;
};

TEST_F(ProfilerTest, EmptyProgramYieldsRootOnly) {
  IntervalProfiler p(clock);
  clock.advance(100);
  const tree::ProgramTree t = p.finish();
  ASSERT_TRUE(t.root != nullptr);
  ASSERT_EQ(t.root->children().size(), 1u);  // one top-level U
  EXPECT_EQ(t.root->child(0)->kind(), NodeKind::U);
  EXPECT_EQ(t.root->child(0)->length(), 100u);
  EXPECT_EQ(t.root->length(), 100u);
}

TEST_F(ProfilerTest, SimpleLoopBuildsFigure4StyleTree) {
  IntervalProfiler p(clock);
  clock.advance(10);  // serial prologue
  p.sec_begin("loop");
  for (int i = 0; i < 3; ++i) {
    p.task_begin("t");
    clock.advance(50);
    p.lock_begin(1);
    clock.advance(20);
    p.lock_end(1);
    clock.advance(30);
    p.task_end();
  }
  p.sec_end(true);
  clock.advance(5);  // serial epilogue
  const tree::ProgramTree t = p.finish();

  EXPECT_TRUE(tree::is_valid(t));
  ASSERT_EQ(t.root->children().size(), 3u);  // U, Sec, U
  EXPECT_EQ(t.root->child(0)->length(), 10u);
  const tree::Node* sec = t.root->child(1);
  EXPECT_EQ(sec->kind(), NodeKind::Sec);
  EXPECT_EQ(sec->length(), 300u);
  ASSERT_EQ(sec->children().size(), 3u);
  const tree::Node* task = sec->child(0);
  EXPECT_EQ(task->length(), 100u);
  ASSERT_EQ(task->children().size(), 3u);
  EXPECT_EQ(task->child(0)->kind(), NodeKind::U);
  EXPECT_EQ(task->child(0)->length(), 50u);
  EXPECT_EQ(task->child(1)->kind(), NodeKind::L);
  EXPECT_EQ(task->child(1)->length(), 20u);
  EXPECT_EQ(task->child(1)->lock_id(), 1u);
  EXPECT_EQ(task->child(2)->length(), 30u);
  EXPECT_EQ(t.root->child(2)->length(), 5u);
}

TEST_F(ProfilerTest, NestedSectionInsideTask) {
  IntervalProfiler p(clock);
  p.sec_begin("outer");
  p.task_begin("i");
  clock.advance(10);
  p.sec_begin("inner");
  p.task_begin("j");
  clock.advance(40);
  p.task_end();
  p.sec_end(false);  // nowait
  clock.advance(10);
  p.task_end();
  p.sec_end(true);
  const tree::ProgramTree t = p.finish();

  EXPECT_TRUE(tree::is_valid(t));
  const tree::Node* outer = t.root->child(0);
  const tree::Node* task = outer->child(0);
  ASSERT_EQ(task->children().size(), 3u);  // U, Sec, U
  EXPECT_EQ(task->child(1)->kind(), NodeKind::Sec);
  EXPECT_FALSE(task->child(1)->barrier_at_end());
  EXPECT_EQ(task->child(1)->length(), 40u);
  EXPECT_TRUE(outer->barrier_at_end());
}

TEST_F(ProfilerTest, GlueBetweenTasksIsUnattributed) {
  IntervalProfiler p(clock);
  p.sec_begin("s");
  clock.advance(7);  // glue before first task
  p.task_begin("t");
  clock.advance(10);
  p.task_end();
  clock.advance(3);  // glue between/after tasks
  p.sec_end(true);
  const tree::ProgramTree t = p.finish();
  EXPECT_EQ(p.unattributed_cycles(), 10u);
  // The Sec node's measured length still covers the glue.
  EXPECT_EQ(t.root->child(0)->length(), 20u);
  EXPECT_EQ(t.root->child(0)->serial_work(), 10u);
}

TEST_F(ProfilerTest, ZeroLengthUNodesAreNotEmitted) {
  IntervalProfiler p(clock);
  p.sec_begin("s");
  p.task_begin("t");
  p.lock_begin(1);
  clock.advance(5);
  p.lock_end(1);
  p.task_end();
  p.sec_end(true);
  const tree::ProgramTree t = p.finish();
  const tree::Node* task = t.root->child(0)->child(0);
  ASSERT_EQ(task->children().size(), 1u);  // only the L node
  EXPECT_EQ(task->child(0)->kind(), NodeKind::L);
}

TEST_F(ProfilerTest, CountersAttachedToTopLevelSectionsOnly) {
  AnalyticCounterSource counters(clock, /*ipc=*/2.0, /*mpi=*/0.01);
  IntervalProfiler p(clock, &counters);
  p.sec_begin("outer");
  p.task_begin("t");
  p.sec_begin("inner");
  p.task_begin("u");
  clock.advance(1000);
  p.task_end();
  p.sec_end(true);
  p.task_end();
  p.sec_end(true);
  const tree::ProgramTree t = p.finish();
  const tree::Node* outer = t.root->child(0);
  ASSERT_NE(outer->counters(), nullptr);
  EXPECT_EQ(outer->counters()->cycles, 1000u);
  EXPECT_EQ(outer->counters()->instructions, 2000u);
  EXPECT_EQ(outer->counters()->llc_misses, 20u);
  const tree::Node* inner = outer->child(0)->child(0);
  EXPECT_EQ(inner->counters(), nullptr);
}

TEST_F(ProfilerTest, MismatchedSecEndThrows) {
  IntervalProfiler p(clock);
  p.sec_begin("s");
  p.task_begin("t");
  EXPECT_THROW(p.sec_end(true), AnnotationError);
}

TEST_F(ProfilerTest, MismatchedTaskEndThrows) {
  IntervalProfiler p(clock);
  p.sec_begin("s");
  EXPECT_THROW(p.task_end(), AnnotationError);
}

TEST_F(ProfilerTest, TaskOutsideSectionThrows) {
  IntervalProfiler p(clock);
  EXPECT_THROW(p.task_begin("t"), AnnotationError);
}

TEST_F(ProfilerTest, LockOutsideTaskThrows) {
  IntervalProfiler p(clock);
  EXPECT_THROW(p.lock_begin(1), AnnotationError);
}

TEST_F(ProfilerTest, NestedLocksThrow) {
  IntervalProfiler p(clock);
  p.sec_begin("s");
  p.task_begin("t");
  p.lock_begin(1);
  EXPECT_THROW(p.lock_begin(2), AnnotationError);
}

TEST_F(ProfilerTest, WrongLockIdOnEndThrows) {
  IntervalProfiler p(clock);
  p.sec_begin("s");
  p.task_begin("t");
  p.lock_begin(1);
  EXPECT_THROW(p.lock_end(2), AnnotationError);
}

TEST_F(ProfilerTest, LockEndWithoutBeginThrows) {
  IntervalProfiler p(clock);
  p.sec_begin("s");
  p.task_begin("t");
  EXPECT_THROW(p.lock_end(1), AnnotationError);
}

TEST_F(ProfilerTest, TaskEndWithOpenLockThrows) {
  IntervalProfiler p(clock);
  p.sec_begin("s");
  p.task_begin("t");
  p.lock_begin(1);
  EXPECT_THROW(p.task_end(), AnnotationError);
}

TEST_F(ProfilerTest, LockIdZeroIsReserved) {
  IntervalProfiler p(clock);
  p.sec_begin("s");
  p.task_begin("t");
  EXPECT_THROW(p.lock_begin(0), AnnotationError);
}

TEST_F(ProfilerTest, FinishWithOpenAnnotationsThrows) {
  IntervalProfiler p(clock);
  p.sec_begin("s");
  EXPECT_THROW(p.finish(), AnnotationError);
}

TEST_F(ProfilerTest, OnlineCompressionMergesIdenticalTasks) {
  ProfilerOptions opts;
  opts.online_compression = true;
  IntervalProfiler p(clock, nullptr, opts);
  p.sec_begin("s");
  for (int i = 0; i < 500; ++i) {
    p.task_begin("t");
    clock.advance(100);
    p.task_end();
  }
  p.sec_end(true);
  const tree::ProgramTree t = p.finish();
  const tree::Node* sec = t.root->child(0);
  ASSERT_EQ(sec->children().size(), 1u);
  EXPECT_EQ(sec->child(0)->repeat(), 500u);
  EXPECT_EQ(sec->serial_work(), 500u * 100u);
}

TEST_F(ProfilerTest, OnlineCompressionKeepsDistinctTasks) {
  ProfilerOptions opts;
  opts.online_compression = true;
  opts.online_tolerance = 0.05;
  IntervalProfiler p(clock, nullptr, opts);
  p.sec_begin("s");
  for (int i = 0; i < 4; ++i) {
    p.task_begin("t");
    clock.advance(100 + 100 * static_cast<Cycles>(i));  // growing lengths
    p.task_end();
  }
  p.sec_end(true);
  const tree::ProgramTree t = p.finish();
  EXPECT_EQ(t.root->child(0)->children().size(), 4u);
}

// Annotation errors name the enclosing BEGIN frames, so a mismatched END
// deep inside a workload points at the actual open nesting.
TEST_F(ProfilerTest, AnnotationErrorReportsOpenFrames) {
  IntervalProfiler p(clock);
  p.sec_begin("loop");
  p.task_begin("body");
  p.lock_begin(3);
  try {
    p.sec_begin("nested");  // illegal inside an open lock
    FAIL() << "expected AnnotationError";
  } catch (const AnnotationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("open frames:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Sec('loop')"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Task('body')"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[lock 3]"), std::string::npos) << msg;
  }
}

TEST_F(ProfilerTest, AnnotationErrorAtTopLevelSaysNone) {
  IntervalProfiler p(clock);
  try {
    p.task_begin("t");  // task outside any section
    FAIL() << "expected AnnotationError";
  } catch (const AnnotationError& e) {
    EXPECT_NE(std::string(e.what()).find("open frames: Root"),
              std::string::npos)
        << e.what();
  }
}

// The profiler's own callback cost must be subtracted: profiling a loop of
// N cheap annotated tasks should not inflate the tree's serial work by the
// annotation cost. The profiler reads the clock once when constructed; from
// then on each callback reads it on entry and, to measure itself, on exit.
// This clock charges `self_cost` cycles between a callback's entry and exit
// reads and one cycle of user work between an exit and the next entry, so
// the attributed work must not depend on `self_cost`.
class SelfCostClock final : public CycleClock {
 public:
  explicit SelfCostClock(Cycles self_cost) : self_cost_(self_cost) {}
  Cycles now() const override {
    const Cycles t = t_;
    t_ += entry_ ? self_cost_ : 1;
    entry_ = !entry_;
    return t;
  }

 private:
  Cycles self_cost_;
  mutable Cycles t_ = 0;
  mutable bool entry_ = false;  // the constructor's read precedes user work
};

TEST(ProfilerOverhead, SelfExclusionKeepsLengthsStable) {
  constexpr int kTasks = 20000;
  const auto profile = [](Cycles self_cost, Cycles& excluded) {
    SelfCostClock clock(self_cost);
    IntervalProfiler with(clock, nullptr, {.subtract_overhead = true});
    with.sec_begin("s");
    for (int i = 0; i < kTasks; ++i) {
      with.task_begin("t");
      with.task_end();
    }
    with.sec_end(true);
    const tree::ProgramTree t = with.finish();
    excluded = with.excluded_overhead();
    for (const auto& c : t.root->children()) {
      if (c->kind() == NodeKind::Sec) return c->serial_work();
    }
    ADD_FAILURE() << "no section in the profiled tree";
    return Cycles{0};
  };
  Cycles cheap_excluded = 0, dear_excluded = 0;
  const Cycles cheap = profile(1, cheap_excluded);
  const Cycles dear = profile(1'000'000, dear_excluded);
  EXPECT_GT(dear_excluded, 0u);
  EXPECT_EQ(dear_excluded, cheap_excluded * 1'000'000);
  // Each empty task carries only the one cycle of user work between its
  // two callbacks, whatever the profiler itself costs.
  EXPECT_EQ(dear, cheap);
  EXPECT_EQ(cheap, Cycles{kTasks});
}

}  // namespace
}  // namespace pprophet::trace
