// Compiled-tree identity gate: the Figure-12/Table-3 grid (methods ×
// paradigms × schedules × chunks × memory-model × core counts) evaluated
// two ways over one seed-2012 Test2 tree with burden tables — compile once,
// then core::predict over the flat arrays for every point; and the memoized
// core::sweep on one worker and on hardware_concurrency workers. Every cell
// must be bit-identical between the per-point path and each sweep; the
// binary exits nonzero on any mismatch, so it doubles as a ctest (label:
// perf). Timings live in perfbench (`whatif` workload, `--trace 1` layers).
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/prophet.hpp"
#include "core/sweep.hpp"
#include "memmodel/burden.hpp"
#include "memmodel/calibration.hpp"
#include "report/experiment.hpp"
#include "tree/compile.hpp"
#include "tree/compress.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads/test_patterns.hpp"

using namespace pprophet;

int main() {
  report::print_header(std::cout,
                       "Compiled tree — per-point predict vs memoized sweep "
                       "(seed 2012)");

  util::Xoshiro256 rng(2012);
  tree::ProgramTree t = workloads::run_test2(workloads::random_test2(rng));
  tree::compress(t);
  // Annotate burdens up front so the memory-model half of the grid reads
  // real β_t tables.
  {
    memmodel::CalibrationOptions copts;
    copts.machine = report::paper_options(core::Method::Synthesizer).machine;
    const memmodel::BurdenModel model(memmodel::calibrate(copts));
    memmodel::annotate_burdens(t, model, report::paper_core_counts());
  }

  core::SweepGrid grid;
  grid.methods = {core::Method::FastForward, core::Method::Synthesizer,
                  core::Method::Suitability, core::Method::GroundTruth};
  grid.paradigms = {core::Paradigm::OpenMP, core::Paradigm::CilkPlus};
  grid.schedules = {runtime::OmpSchedule::StaticCyclic,
                    runtime::OmpSchedule::StaticBlock,
                    runtime::OmpSchedule::Dynamic};
  grid.chunks = {1, 4};
  grid.thread_counts = report::paper_core_counts();
  grid.memory_models = {false, true};
  grid.base = report::paper_options(core::Method::Synthesizer);
  const std::vector<core::SweepPoint> points = grid.points();
  std::cout << "tree: " << t.node_count() << " nodes, grid: " << points.size()
            << " points\n";

  // Per-point path: one compilation, then flat-array predicts.
  const tree::CompiledTree ct = tree::CompiledTree::compile(t);
  std::vector<core::SpeedupEstimate> per_point;
  per_point.reserve(points.size());
  for (const core::SweepPoint& p : points) {
    core::PredictOptions o = grid.base;
    o.method = p.method;
    o.paradigm = p.paradigm;
    o.schedule = p.schedule;
    o.chunk = p.chunk;
    o.memory_model = p.memory_model;
    per_point.push_back(core::predict(ct, p.threads, o));
  }

  // The production fig12/table3 path: compile once inside core::sweep and
  // share the arrays across all points, with per-section memoization on
  // top, at both worker counts (core/sweep.hpp determinism contract).
  util::Table table({"sweep workers", "section evals", "memo hit rate",
                     "batched points", "mismatches"});
  std::size_t mismatches = 0;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t workers : {std::size_t{1}, hw}) {
    core::SweepOptions sopts;
    sopts.workers = workers;
    const core::SweepResult res = core::sweep(t, grid, sopts);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const core::SpeedupEstimate& a = per_point[i];
      const core::SpeedupEstimate& b = res.cells[i].estimate;
      if (a.speedup != b.speedup || a.parallel_cycles != b.parallel_cycles ||
          a.serial_cycles != b.serial_cycles) {
        ++bad;
      }
    }
    mismatches += bad;
    table.add_row({std::to_string(res.stats.workers),
                   std::to_string(res.stats.section_evals) + " of " +
                       std::to_string(res.stats.section_lookups),
                   util::fmt_pct(res.stats.hit_rate()),
                   std::to_string(res.stats.batched_points),
                   std::to_string(bad)});
  }
  table.print(std::cout);

  if (mismatches > 0) {
    std::cerr << "FAIL: " << mismatches
              << " cells differed between per-point predict and the "
                 "memoized sweep\n";
    return 1;
  }
  std::cout << "all " << points.size() << " cells bit-identical between "
            << "per-point predict and the memoized sweep at every worker "
               "count\n";
  return 0;
}
