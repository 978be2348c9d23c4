// The advisor's configuration search (core::advise_configurations): ranking,
// the economical pick, input validation and the fixed Synthesizer engine.
#include "core/advise.hpp"

#include <gtest/gtest.h>

#include "report/experiment.hpp"
#include "tree/builder.hpp"

namespace pprophet::core {
namespace {

using tree::ProgramTree;
using tree::TreeBuilder;

AdviseOptions quick_options() {
  AdviseOptions o;
  o.base = report::paper_options(Method::Synthesizer);
  o.grid.thread_counts = {2, 4, 8};
  o.grid.chunks.clear();  // sweep with the base chunk
  return o;
}

ProgramTree balanced_loop() {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(10'000).end_task().repeat_last(64);
  b.end_sec();
  return b.finish();
}

TEST(AdviseConfigurations, BestIsTopOfSweep) {
  const Advice r = advise_configurations(balanced_loop(), quick_options());
  ASSERT_FALSE(r.configurations.empty());
  EXPECT_DOUBLE_EQ(r.best.speedup, r.configurations.front().speedup);
  for (std::size_t i = 1; i < r.configurations.size(); ++i) {
    EXPECT_LE(r.configurations[i].speedup, r.configurations[i - 1].speedup);
  }
}

TEST(AdviseConfigurations, BalancedLoopPrefersManyThreads) {
  const Advice r = advise_configurations(balanced_loop(), quick_options());
  EXPECT_EQ(r.best.threads, 8u);
  EXPECT_GT(r.best.speedup, 6.0);
}

TEST(AdviseConfigurations, EconomicalNeverExceedsBestThreads) {
  const Advice r = advise_configurations(balanced_loop(), quick_options());
  EXPECT_LE(r.economical.threads, r.best.threads);
  EXPECT_GE(r.economical.speedup,
            r.best.speedup * (1.0 - quick_options().efficiency_knee) - 1e-9);
}

TEST(AdviseConfigurations, LockBoundLoopRecommendsFewThreads) {
  // Fully serialized by one lock: more threads only add overhead, so the
  // economical pick is the smallest count.
  TreeBuilder b;
  b.begin_sec("s");
  for (int i = 0; i < 24; ++i) b.begin_task("t").l(1, 5'000).end_task();
  b.end_sec();
  const ProgramTree t = b.finish();
  const Advice r = advise_configurations(t, quick_options());
  EXPECT_EQ(r.economical.threads, 2u);
  EXPECT_LT(r.best.speedup, 1.5);
}

TEST(AdviseConfigurations, CilkEvaluatedOncePerThreadCount) {
  AdviseOptions o = quick_options();
  const Advice r = advise_configurations(balanced_loop(), o);
  // OpenMP: 4 schedules × 3 counts; Cilk: 1 × 3 counts.
  EXPECT_EQ(r.configurations.size(), 4u * 3u + 3u);
}

TEST(AdviseConfigurations, TriangularWorkloadAvoidsStaticBlock) {
  TreeBuilder b;
  b.begin_sec("s");
  for (int i = 1; i <= 48; ++i) {
    b.begin_task("t").u(static_cast<Cycles>(i) * 500).end_task();
  }
  b.end_sec();
  const Advice r = advise_configurations(b.finish(), quick_options());
  EXPECT_NE(r.best.schedule, runtime::OmpSchedule::StaticBlock);
}

TEST(AdviseConfigurations, RejectsEmptySweep) {
  AdviseOptions o = quick_options();
  o.grid.thread_counts.clear();
  EXPECT_THROW(advise_configurations(balanced_loop(), o),
               std::invalid_argument);
}

TEST(AdviseConfigurations, RejectsEmptyParadigmAndScheduleDimensions) {
  // Every dimension independently empty must be the same hard error, not a
  // silent empty sweep.
  AdviseOptions no_paradigms = quick_options();
  no_paradigms.grid.paradigms.clear();
  EXPECT_THROW(advise_configurations(balanced_loop(), no_paradigms),
               std::invalid_argument);
  AdviseOptions no_schedules = quick_options();
  no_schedules.grid.schedules.clear();
  EXPECT_THROW(advise_configurations(balanced_loop(), no_schedules),
               std::invalid_argument);
}

TEST(AdviseConfigurations, TieBreakingIsDeterministic) {
  // A perfectly balanced loop makes several schedules score identically;
  // the stable sort must keep the sweep order reproducible and `best` must
  // be exactly the front of the sweep on every run.
  const Advice a = advise_configurations(balanced_loop(), quick_options());
  const Advice b = advise_configurations(balanced_loop(), quick_options());
  ASSERT_EQ(a.configurations.size(), b.configurations.size());
  for (std::size_t i = 0; i < a.configurations.size(); ++i) {
    const Candidate& ca = a.configurations[i];
    const Candidate& cb = b.configurations[i];
    EXPECT_EQ(ca.paradigm, cb.paradigm) << i;
    EXPECT_EQ(ca.schedule, cb.schedule) << i;
    EXPECT_EQ(ca.threads, cb.threads) << i;
    EXPECT_DOUBLE_EQ(ca.speedup, cb.speedup) << i;
  }
  EXPECT_EQ(a.best.paradigm, b.best.paradigm);
  EXPECT_EQ(a.best.schedule, b.best.schedule);
  EXPECT_EQ(a.best.threads, b.best.threads);
  // Ties on speedup must not let a later entry overtake the front.
  EXPECT_DOUBLE_EQ(a.best.speedup, a.configurations.front().speedup);
}

TEST(AdviseConfigurations, EfficiencyIsSpeedupOverThreads) {
  const Advice r = advise_configurations(balanced_loop(), quick_options());
  for (const Candidate& c : r.configurations) {
    ASSERT_GT(c.threads, 0u);
    EXPECT_DOUBLE_EQ(c.efficiency,
                     c.speedup / static_cast<double>(c.threads));
  }
}

TEST(AdviseConfigurations, SingleThreadCountStillRecommends) {
  AdviseOptions o = quick_options();
  o.grid.thread_counts = {4};
  const Advice r = advise_configurations(balanced_loop(), o);
  EXPECT_EQ(r.best.threads, 4u);
  EXPECT_EQ(r.economical.threads, 4u);
  EXPECT_EQ(r.configurations.size(), 4u + 1u);  // 4 OpenMP schedules + Cilk
}

TEST(AdviseConfigurations, SynthesizerStaysTheDefaultEngine) {
  // The advisor always predicts with the Synthesizer (the paper's most
  // accurate emulator), even when the caller seeds base with another
  // method — only machine/runtime parameters may leak through base.
  AdviseOptions o = quick_options();
  const Advice with_syn = advise_configurations(balanced_loop(), o);
  o.base = report::paper_options(Method::FastForward);
  o.base.method = Method::FastForward;
  const Advice with_ff = advise_configurations(balanced_loop(), o);
  ASSERT_EQ(with_syn.configurations.size(), with_ff.configurations.size());
  for (std::size_t i = 0; i < with_syn.configurations.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_syn.configurations[i].speedup,
                     with_ff.configurations[i].speedup)
        << i;
  }
}

}  // namespace
}  // namespace pprophet::core
