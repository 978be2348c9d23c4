// The causal what-if advisor (core/advise.hpp): critical-path profiles,
// the configuration search (every candidate equals predict() on the
// Figure-5 worked example), the economical tie-break rule, action soundness
// on the golden tree, and the memo accounting that makes the edit search
// cheap.
#include "core/advise.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/prophet.hpp"
#include "tree/builder.hpp"
#include "tree/edit.hpp"

namespace pprophet::core {
namespace {

tree::ProgramTree figure5_tree() {
  tree::TreeBuilder b;
  b.begin_sec("loop");
  b.begin_task("I0").u(150).l(1, 450).u(50).end_task();
  b.begin_task("I1").u(100).l(1, 300).u(200).end_task();
  b.begin_task("I2").u(150).l(1, 50).u(50).end_task();
  b.end_sec();
  return b.finish();
}

PredictOptions zero_overheads() {
  PredictOptions o;
  o.omp_overheads = runtime::OmpOverheads{0, 0, 0, 0, 0, 0, 0};
  return o;
}

/// What a candidate promises: the same numbers predict() gives
/// for that configuration, from scratch.
double fresh_speedup(const tree::ProgramTree& t, const Candidate& c,
                     const PredictOptions& base) {
  PredictOptions o = base;
  o.method = Method::Synthesizer;
  o.paradigm = c.paradigm;
  o.schedule = c.schedule;
  o.chunk = c.chunk;
  return predict(t, c.threads, o).speedup;
}

void expect_candidates_equal(const Candidate& a, const Candidate& b) {
  EXPECT_EQ(a.paradigm, b.paradigm);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.chunk, b.chunk);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_DOUBLE_EQ(a.speedup, b.speedup);
  EXPECT_DOUBLE_EQ(a.efficiency, b.efficiency);
}

TEST(CriticalPathProfile, ComputesWorkSpanAndLockCeilings) {
  tree::TreeBuilder b;
  b.u(3'000);
  b.begin_sec("wide");
  b.begin_task("t").u(1'000).end_task().repeat_last(4);
  b.end_sec();
  b.begin_sec("locked");
  b.begin_task("t").l(7, 2'000).end_task().repeat_last(2);
  b.end_sec();
  const tree::ProgramTree t = b.finish();

  const CriticalPathProfile p = critical_path_profile(t);
  EXPECT_EQ(p.serial_cycles, 11'000u);
  EXPECT_EQ(p.top_u_cycles, 3'000u);
  EXPECT_DOUBLE_EQ(p.serial_share, 3.0 / 11.0);
  ASSERT_EQ(p.sections.size(), 2u);

  const SectionProfile& wide = p.sections[0];
  EXPECT_EQ(wide.name, "wide");
  EXPECT_EQ(wide.tasks, 4u);
  EXPECT_EQ(wide.work, 4'000u);
  EXPECT_EQ(wide.span, 1'000u);  // longest single task
  EXPECT_DOUBLE_EQ(wide.parallelism, 4.0);
  EXPECT_DOUBLE_EQ(wide.work_share, 4.0 / 11.0);
  EXPECT_TRUE(wide.locks.empty());

  const SectionProfile& locked = p.sections[1];
  EXPECT_EQ(locked.work, 4'000u);
  ASSERT_EQ(locked.locks.size(), 1u);
  const LockProfile& lock = locked.locks[0];
  EXPECT_EQ(lock.lock, 7u);
  EXPECT_EQ(lock.held_cycles, 4'000u);  // 2 repeats x 2000 cycles
  EXPECT_DOUBLE_EQ(lock.work_share, 1.0);
  EXPECT_DOUBLE_EQ(lock.cap_speedup, 1.0);
  EXPECT_EQ(lock.cap_threads, 1u);
  // The busiest lock is the span: the section cannot scale at all.
  EXPECT_EQ(locked.span, 4'000u);
  EXPECT_DOUBLE_EQ(locked.parallelism, 1.0);
}

TEST(Advise, ConfigurationSearchMatchesPredictOnFigure5) {
  const tree::ProgramTree t = figure5_tree();

  AdviseOptions ao;
  ao.base = zero_overheads();
  ao.grid.thread_counts = {2, 4, 8};
  ao.grid.chunks.clear();  // inherit base.chunk
  const Advice adv = advise_configurations(t, ao);
  const std::vector<Candidate>& configs = adv.configurations;

  // OpenMP enumerates every schedule; Cilk collapses to one entry per
  // thread count (its scheduler is not configurable).
  EXPECT_EQ(configs.size(), (4u + 1u) * 3u);
  // Sorted by descending speedup, best at the front.
  EXPECT_TRUE(std::is_sorted(
      configs.begin(), configs.end(),
      [](const Candidate& a, const Candidate& b) { return a.speedup > b.speedup; }));
  expect_candidates_equal(adv.best, configs.front());

  // Each candidate is exactly what predict() says for that configuration —
  // the memoized advisor path must not change a single value. The chunk
  // dimension stays inherited from the base options.
  for (const Candidate& c : configs) {
    EXPECT_EQ(c.chunk, ao.base.chunk);
    EXPECT_DOUBLE_EQ(c.speedup, fresh_speedup(t, c, ao.base));
    EXPECT_DOUBLE_EQ(c.efficiency, c.speedup / c.threads);
  }
}

TEST(Advise, EconomicalTieBreakPrefersFewestThreadsThenStaticBlock) {
  // One single-task section: no configuration parallelizes anything, so
  // every grid point ties at speedup 1.0 and the knee covers them all.
  // The deterministic tie-break must then pick the humblest config —
  // fewest threads, StaticBlock — not whatever sorted first.
  tree::TreeBuilder b;
  b.begin_sec("serial");
  b.begin_task("t").u(50'000).end_task();
  b.end_sec();
  const tree::ProgramTree t = b.finish();

  AdviseOptions ao;
  ao.base = zero_overheads();
  ao.grid.thread_counts = {2, 4, 8};
  ao.grid.chunks.clear();
  const Advice rec = advise_configurations(t, ao);

  EXPECT_DOUBLE_EQ(rec.best.speedup, rec.economical.speedup);
  EXPECT_EQ(rec.economical.threads, 2u);
  EXPECT_EQ(rec.economical.schedule, runtime::OmpSchedule::StaticBlock);
  EXPECT_EQ(rec.economical.paradigm, Paradigm::OpenMP);
}

TEST(Advise, TargetThreadsDefaultsToLargestGridEntry) {
  const tree::ProgramTree t = figure5_tree();
  AdviseOptions ao;
  ao.base = zero_overheads();
  ao.grid.thread_counts = {2, 8, 4};
  const Advice adv = advise(t, ao);
  EXPECT_EQ(adv.target_threads, 8u);
  EXPECT_EQ(adv.baseline.threads, 8u);
  EXPECT_DOUBLE_EQ(adv.baseline.speedup,
                   fresh_speedup(t, adv.baseline, ao.base));

  AdviseOptions explicit_target = ao;
  explicit_target.target_threads = 4;
  const Advice adv4 = advise(t, explicit_target);
  EXPECT_EQ(adv4.target_threads, 4u);
  EXPECT_EQ(adv4.baseline.threads, 4u);
}

TEST(Advise, TopActionsAreSoundOnTheFigure5Golden) {
  const tree::ProgramTree t = figure5_tree();
  AdviseOptions ao;
  ao.base = zero_overheads();
  ao.grid.thread_counts = {2, 4, 8};
  const Advice adv = advise(t, ao);
  ASSERT_FALSE(adv.actions.empty());

  // Soundness: re-apply the promised edit to the source tree, re-predict
  // from scratch, and the advertised speedup_after must reproduce.
  std::size_t checked = 0;
  for (const Action& a : adv.actions) {
    if (checked == 3) break;
    if (a.kind == ActionKind::ConvertConfig) continue;
    tree::ProgramTree copy{t.root->clone()};
    tree::apply_edit(copy, a.edit);
    PredictOptions o = ao.base;
    o.method = Method::Synthesizer;
    const double fresh = predict(copy, adv.target_threads, o).speedup;
    EXPECT_NEAR(a.speedup_after, fresh, 0.01 * fresh) << a.describe();
    EXPECT_DOUBLE_EQ(a.speedup_before, adv.baseline.speedup);
    ++checked;
  }
  EXPECT_GT(checked, 0u);

  // Ranked by what they buy, and every record renders.
  EXPECT_TRUE(std::is_sorted(
      adv.actions.begin(), adv.actions.end(),
      [](const Action& a, const Action& b) {
        return a.speedup_after > b.speedup_after;
      }));
  for (const Action& a : adv.actions) {
    EXPECT_FALSE(a.describe().empty());
  }
  EXPECT_LE(adv.actions.size(), ao.max_actions);
  const auto converts = std::count_if(
      adv.actions.begin(), adv.actions.end(),
      [](const Action& a) { return a.kind == ActionKind::ConvertConfig; });
  EXPECT_LE(static_cast<std::size_t>(converts), ao.max_config_actions);
}

TEST(Advise, EditSearchSharesTheMemoAcrossEdits) {
  // Two sections: every edit salts exactly one section's digest, so the
  // other section keeps its key and every re-pricing after the first must
  // hit the memo instead of re-emulating it.
  tree::TreeBuilder b;
  b.begin_sec("loop");
  b.begin_task("I0").u(150).l(1, 450).u(50).end_task();
  b.begin_task("I1").u(100).l(1, 300).u(200).end_task();
  b.begin_task("I2").u(150).l(1, 50).u(50).end_task();
  b.end_sec();
  b.begin_sec("extra");
  b.begin_task("t").u(1'000).end_task().repeat_last(4);
  b.end_sec();
  const tree::ProgramTree t = b.finish();

  AdviseOptions ao;
  ao.base = zero_overheads();
  ao.grid.thread_counts = {2, 4, 8};
  const Advice adv = advise(t, ao);
  ASSERT_FALSE(adv.actions.empty());
  EXPECT_GT(adv.stats.cache_hits, 0u);
  EXPECT_LT(adv.stats.section_evals, adv.stats.section_lookups);
}

TEST(Advise, EmptySweepDimensionThrows) {
  const tree::ProgramTree t = figure5_tree();
  AdviseOptions ao;
  ao.grid.thread_counts.clear();
  EXPECT_THROW(advise_configurations(t, ao), std::invalid_argument);
  AdviseOptions no_schedules;
  no_schedules.grid.schedules.clear();
  EXPECT_THROW(advise(t, no_schedules), std::invalid_argument);
}

TEST(GridSpec, SharedDefaultsAndSweepGridDefaults) {
  const GridSpec g;
  EXPECT_EQ(g.thread_counts, (std::vector<CoreCount>{2, 4, 6, 8, 10, 12}));
  EXPECT_EQ(g.paradigms.size(), 2u);
  EXPECT_EQ(g.schedules.size(), 4u);
  EXPECT_EQ(g.chunks, (std::vector<std::uint64_t>{1}));

  // sweep(): historical defaults predate the shared spec and must not move.
  const SweepGrid sg;
  EXPECT_EQ(sg.thread_counts, (std::vector<CoreCount>{2, 4, 8}));
  EXPECT_EQ(sg.paradigms, (std::vector<Paradigm>{Paradigm::OpenMP}));
  EXPECT_EQ(sg.schedules, (std::vector<runtime::OmpSchedule>{
                              runtime::OmpSchedule::StaticCyclic}));
  EXPECT_EQ(sg.chunks, (std::vector<std::uint64_t>{1}));
}

}  // namespace
}  // namespace pprophet::core
