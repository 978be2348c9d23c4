// Sweep-engine benchmark: a Figure-12-sized what-if grid (methods ×
// paradigms × schedules × chunks × memory-model × core counts) evaluated
// several ways — naive per-point core::predict (the scalar engines), then
// the memoizing batched sweep engine on one worker and on a worker pool —
// with bit-identity checked cell by cell. The memoized win comes from
// canonical sub-keys: the FF
// never reads the paradigm, Cilk never reads the schedule/chunk, Suitability
// pins everything but the thread count, GroundTruth ignores the memory
// model, and schedule(static) ignores the chunk.
#include <chrono>
#include <iostream>
#include <thread>

#include "core/sweep.hpp"
#include "report/experiment.hpp"
#include "tree/compress.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads/test_patterns.hpp"

using namespace pprophet;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  const long seed = util::env_long("PP_SEED", 2012);
  // PP_SMOKE=1: reduced grid so the perf label stays a fast identity gate
  // under sanitizer builds (tools/ci_matrix.sh).
  const bool smoke = util::env_long("PP_SMOKE", 0) != 0;
  report::print_header(std::cout,
                       "Sweep engine — batched grid vs naive per-point "
                       "predict (PP_SEED=" + std::to_string(seed) + ")" +
                       (smoke ? " [smoke]" : ""));

  util::Xoshiro256 rng(static_cast<std::uint64_t>(seed));
  tree::ProgramTree t = workloads::run_test2(workloads::random_test2(rng));
  tree::compress(t);

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
  if (smoke) {
    grid.chunks = {1};
    grid.thread_counts = {2, 8};
  }
  const std::vector<core::SweepPoint> points = grid.points();
  std::cout << "tree: " << t.node_count() << " nodes, grid: "
            << points.size() << " points\n";

  // Naive baseline: one sequential core::predict per grid point.
  std::vector<core::SpeedupEstimate> naive;
  naive.reserve(points.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (const core::SweepPoint& p : points) {
    core::PredictOptions o = grid.base;
    o.method = p.method;
    o.paradigm = p.paradigm;
    o.schedule = p.schedule;
    o.chunk = p.chunk;
    o.memory_model = p.memory_model;
    naive.push_back(core::predict(t, p.threads, o));
  }
  const double naive_ms = ms_since(t0);

  util::Table table({"evaluator", "wall ms", "speedup vs naive",
                     "section evals", "memo hit rate"});
  table.add_row({"naive predict loop", util::fmt_f(naive_ms, 1), "1.00x",
                 std::to_string(points.size()) + " full trees", "-"});

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  bool all_identical = true;
  // The sweep at both worker counts: every run must reproduce the naive
  // cells bit for bit (core/sweep.hpp determinism contract).
  for (const std::size_t workers : {std::size_t{1}, std::size_t{hw}}) {
    core::SweepOptions sopts;
    sopts.workers = workers;
    const core::SweepResult res = core::sweep(t, grid, sopts);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& a = naive[i];
      const auto& b = res.cells[i].estimate;
      if (a.speedup != b.speedup || a.parallel_cycles != b.parallel_cycles ||
          a.serial_cycles != b.serial_cycles) {
        all_identical = false;
      }
    }
    table.add_row({"sweep, " + std::to_string(res.stats.workers) + " worker" +
                       (res.stats.workers == 1 ? "" : "s"),
                   util::fmt_f(res.stats.wall_ms, 1),
                   util::fmt_f(naive_ms / res.stats.wall_ms, 2) + "x",
                   std::to_string(res.stats.section_evals) + " of " +
                       std::to_string(res.stats.section_lookups),
                   util::fmt_pct(res.stats.hit_rate())});
    if (workers == hw && hw == 1) break;  // avoid a duplicate row
  }
  table.print(std::cout);
  std::cout << "all " << points.size() << " cells bit-identical to naive: "
            << (all_identical ? "yes" : "NO — BUG") << "\n";
  return all_identical ? 0 : 1;
}
