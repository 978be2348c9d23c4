// Sweep-engine tests: every cell of a batched sweep must be bit-identical
// to a fresh sequential core::predict call, for any worker count, and the
// per-section memo must actually share sub-results across grid points.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include "machine/timeline.hpp"
#include "tree/builder.hpp"

namespace pprophet::core {
namespace {

using tree::ProgramTree;
using tree::TreeBuilder;

/// Non-trivial fixture tree: two top-level sections (one with a lock and a
/// nested section, one unbalanced), serial U glue, and compressed repeats.
ProgramTree fixture_tree() {
  TreeBuilder b;
  b.u(5'000);
  b.begin_sec("outer");
  b.begin_task("i0");
  b.u(800);
  b.l(1, 400);
  b.begin_sec("inner");
  b.begin_task("j").u(600).end_task().repeat_last(6);
  b.end_sec();
  b.u(200);
  b.end_task();
  b.begin_task("i1").u(1'500).l(1, 300).u(700).end_task().repeat_last(4);
  b.end_sec();
  b.u(2'500);
  b.begin_sec("tail");
  b.begin_task("k").u(900).end_task().repeat_last(12);
  b.end_sec();
  return b.finish();
}

PredictOptions base_options() {
  PredictOptions o;
  o.machine.cores = 12;
  return o;
}

/// A ≥24-point grid exercising every method plus dimensions some methods
/// ignore (paradigm for FF, schedule for Cilk, memory model for Real), so
/// canonical sub-keys overlap.
SweepGrid wide_grid() {
  SweepGrid grid;
  grid.methods = {Method::FastForward, Method::Synthesizer,
                  Method::Suitability, Method::GroundTruth};
  grid.paradigms = {Paradigm::OpenMP, Paradigm::CilkPlus};
  grid.schedules = {runtime::OmpSchedule::StaticCyclic,
                    runtime::OmpSchedule::StaticBlock,
                    runtime::OmpSchedule::Dynamic};
  grid.chunks = {1, 4};
  grid.thread_counts = {2, 4, 8};
  grid.memory_models = {false, true};
  grid.base = base_options();
  return grid;
}

PredictOptions options_of(const SweepGrid& grid, const SweepPoint& p) {
  PredictOptions o = grid.base;
  o.method = p.method;
  o.paradigm = p.paradigm;
  o.schedule = p.schedule;
  o.chunk = p.chunk;
  o.memory_model = p.memory_model;
  return o;
}

void expect_cells_match_sequential(const ProgramTree& t,
                                   const SweepGrid& grid,
                                   const SweepResult& res) {
  ASSERT_EQ(res.cells.size(), grid.size());
  for (const SweepCell& cell : res.cells) {
    const SpeedupEstimate seq =
        predict(t, cell.point.threads, options_of(grid, cell.point));
    // Bit-identical: exact equality on the doubles, not EXPECT_NEAR.
    EXPECT_EQ(cell.estimate.speedup, seq.speedup);
    EXPECT_EQ(cell.estimate.parallel_cycles, seq.parallel_cycles);
    EXPECT_EQ(cell.estimate.serial_cycles, seq.serial_cycles);
    EXPECT_EQ(cell.estimate.threads, seq.threads);
  }
}

TEST(Sweep, GridCellsAreBitIdenticalToSequentialPredict) {
  const ProgramTree t = fixture_tree();
  const SweepGrid grid = wide_grid();
  ASSERT_GE(grid.size(), 24u);
  for (const std::size_t workers : {1, 2, 8}) {
    SweepOptions sopts;
    sopts.workers = workers;
    const SweepResult res = sweep(t, grid, sopts);
    EXPECT_EQ(res.stats.workers, std::min<std::size_t>(workers, grid.size()));
    expect_cells_match_sequential(t, grid, res);
  }
}

TEST(Sweep, ResultsAreIdenticalAcrossWorkerCounts) {
  const ProgramTree t = fixture_tree();
  const SweepGrid grid = wide_grid();
  SweepOptions one;
  one.workers = 1;
  SweepOptions eight;
  eight.workers = 8;
  const SweepResult a = sweep(t, grid, one);
  const SweepResult b = sweep(t, grid, eight);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].estimate.speedup, b.cells[i].estimate.speedup);
    EXPECT_EQ(a.cells[i].estimate.parallel_cycles,
              b.cells[i].estimate.parallel_cycles);
  }
  // The memo contents are canonical, so the stats agree too.
  EXPECT_EQ(a.stats.section_evals, b.stats.section_evals);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
}

TEST(Sweep, MemoReportsSharedSubKeys) {
  const ProgramTree t = fixture_tree();
  const SweepGrid grid = wide_grid();
  const SweepResult res = sweep(t, grid, {});
  const SweepStats& s = res.stats;
  EXPECT_EQ(s.grid_points, grid.size());
  // Two top-level sections per cell, looked up once each.
  EXPECT_EQ(s.section_lookups, grid.size() * 2);
  EXPECT_EQ(s.section_lookups, s.cache_hits + s.section_evals);
  // FF ignores the paradigm, Cilk the schedule/chunk, Suitability all but
  // threads, Real the memory model: plenty of hits.
  EXPECT_GT(s.cache_hits, 0u);
  EXPECT_GT(s.hit_rate(), 0.4);
  EXPECT_LT(s.section_evals, s.section_lookups);
  EXPECT_GE(s.wall_ms, 0.0);
}

TEST(Sweep, SinglePointSweepEqualsPredict) {
  const ProgramTree t = fixture_tree();
  SweepPoint p;
  p.method = Method::GroundTruth;
  p.threads = 6;
  const PredictOptions base = base_options();
  const SweepResult res = sweep_points(t, {&p, 1}, base);
  ASSERT_EQ(res.cells.size(), 1u);
  PredictOptions o = base;
  o.method = p.method;
  const SpeedupEstimate seq = predict(t, 6, o);
  EXPECT_EQ(res.cells[0].estimate.speedup, seq.speedup);
  EXPECT_EQ(res.cells[0].estimate.parallel_cycles, seq.parallel_cycles);
  EXPECT_EQ(res.stats.section_evals, 2u);  // two sections, no sharing
  EXPECT_EQ(res.stats.cache_hits, 0u);
}

TEST(Sweep, RepeatedSweepsAreDeterministic) {
  const ProgramTree t = fixture_tree();
  const SweepGrid grid = wide_grid();
  const SweepResult a = sweep(t, grid, {});
  const SweepResult b = sweep(t, grid, {});
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].estimate.speedup, b.cells[i].estimate.speedup);
  }
}

TEST(Sweep, BurdenedSynthesizerCellsMatchSequential) {
  ProgramTree t = fixture_tree();
  // Pretend the memory model ran: distinct burdens per thread count.
  for (const auto& child : t.root->children()) {
    if (child->kind() != tree::NodeKind::Sec) continue;
    child->set_burden(2, 1.1);
    child->set_burden(4, 1.3);
    child->set_burden(8, 1.7);
  }
  SweepGrid grid;
  grid.methods = {Method::Synthesizer, Method::FastForward};
  grid.memory_models = {false, true};
  grid.thread_counts = {2, 4, 8};
  grid.base = base_options();
  const SweepResult res = sweep(t, grid, {});
  expect_cells_match_sequential(t, grid, res);
  // Pred and PredM must differ once burdens are attached.
  const auto& cells = res.cells;
  bool differs = false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (std::size_t j = 0; j < cells.size(); ++j) {
      if (cells[i].point.method == cells[j].point.method &&
          cells[i].point.threads == cells[j].point.threads &&
          !cells[i].point.memory_model && cells[j].point.memory_model &&
          cells[i].estimate.speedup != cells[j].estimate.speedup) {
        differs = true;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Sweep, EmptyPointListYieldsEmptyResult) {
  const ProgramTree t = fixture_tree();
  const SweepResult res =
      sweep_points(t, std::span<const SweepPoint>{}, base_options());
  EXPECT_TRUE(res.cells.empty());
  EXPECT_EQ(res.stats.grid_points, 0u);
  EXPECT_EQ(res.stats.section_evals, 0u);
}

TEST(Sweep, RejectsBadInputs) {
  const ProgramTree t = fixture_tree();
  SweepGrid grid = wide_grid();
  grid.thread_counts = {4, 0};
  EXPECT_THROW(sweep(t, grid, {}), std::invalid_argument);
  EXPECT_THROW(sweep(ProgramTree{}, wide_grid(), {}), std::invalid_argument);
  // Timelines are predict-only: concurrent sweep jobs would share one.
  machine::Timeline timeline;
  SweepGrid traced = wide_grid();
  traced.base.timeline = &timeline;
  EXPECT_THROW(sweep(t, traced, {}), std::invalid_argument);
  EXPECT_TRUE(timeline.spans().empty());
}

TEST(Sweep, GridExpansionIsRowMajorAndComplete) {
  SweepGrid grid;
  grid.methods = {Method::FastForward, Method::Synthesizer};
  grid.paradigms = {Paradigm::OpenMP};
  grid.schedules = {runtime::OmpSchedule::StaticCyclic,
                    runtime::OmpSchedule::Dynamic};
  grid.chunks = {1};
  grid.thread_counts = {2, 4};
  grid.memory_models = {false};
  const auto pts = grid.points();
  ASSERT_EQ(pts.size(), grid.size());
  ASSERT_EQ(pts.size(), 8u);
  EXPECT_EQ(pts[0].method, Method::FastForward);
  EXPECT_EQ(pts[0].schedule, runtime::OmpSchedule::StaticCyclic);
  EXPECT_EQ(pts[0].threads, 2u);
  EXPECT_EQ(pts[1].threads, 4u);  // threads vary fastest
  EXPECT_EQ(pts[2].schedule, runtime::OmpSchedule::Dynamic);
  EXPECT_EQ(pts[4].method, Method::Synthesizer);
}

}  // namespace
}  // namespace pprophet::core
