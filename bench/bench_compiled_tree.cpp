// Compiled-tree benchmark: the Figure-12/Table-3 grid (methods × paradigms
// × schedules × chunks × memory-model × core counts) evaluated two ways —
// compile once, then core::predict over the flat arrays for every point,
// timed whole-grid and per method; and the memoized core::sweep. Every cell
// is checked bit-identical between the two; the binary exits nonzero on any
// mismatch, so it doubles as a ctest (label: perf). A second comparison
// times the batched sweep against a per-point core::predict loop over the
// FF+Suitability slice — the methods with batched evaluators — and gates
// their bit-identity too. Writes the measured wall times to
// BENCH_compiled.json. PP_SMOKE=1 shrinks the grid for fast CI identity
// runs.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/prophet.hpp"
#include "core/sweep.hpp"
#include "memmodel/burden.hpp"
#include "memmodel/calibration.hpp"
#include "report/experiment.hpp"
#include "serve/json.hpp"
#include "tree/compile.hpp"
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
  // PP_SMOKE=1: single-sample reduced grid so the perf label stays a fast
  // identity gate under sanitizers (tools/ci_matrix.sh); timings still land
  // in BENCH_compiled.json but are not representative.
  const bool smoke = util::env_long("PP_SMOKE", 0) != 0;
  const long samples = util::env_long("PP_SAMPLES", smoke ? 1 : 3);
  report::print_header(
      std::cout, "Compiled tree — per-point predict vs memoized sweep "
                 "(PP_SEED=" + std::to_string(seed) + ", best of " +
                 std::to_string(samples) + " runs)" +
                 (smoke ? " [smoke]" : ""));

  util::Xoshiro256 rng(static_cast<std::uint64_t>(seed));
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
  if (smoke) {
    grid.chunks = {1};
    grid.thread_counts = {2, 8};
  }
  const std::vector<core::SweepPoint> points = grid.points();
  std::cout << "tree: " << t.node_count() << " nodes, grid: " << points.size()
            << " points\n";

  const auto options_at = [&](const core::SweepPoint& p) {
    core::PredictOptions o = grid.base;
    o.method = p.method;
    o.paradigm = p.paradigm;
    o.schedule = p.schedule;
    o.chunk = p.chunk;
    o.memory_model = p.memory_model;
    return o;
  };

  // Times are reported whole-grid and per method: the machine-replay
  // methods (SYN/Real) dominate, which is where the DES work shows.
  const auto method_index = [](core::Method m) {
    return static_cast<std::size_t>(m);
  };
  const std::size_t kMethods = 4;

  // Per-point path: one compilation, then flat-array predicts.
  double compile_ms = 0.0;
  double compiled_ms = 0.0;
  std::vector<double> compiled_method_ms(kMethods, 0.0);
  std::vector<core::SpeedupEstimate> compiled_cells;
  for (long s = 0; s < samples; ++s) {
    const auto tc = std::chrono::steady_clock::now();
    const tree::CompiledTree ct = tree::CompiledTree::compile(t);
    const double cms = ms_since(tc);
    if (s == 0 || cms < compile_ms) compile_ms = cms;

    std::vector<core::SpeedupEstimate> run;
    run.reserve(points.size());
    std::vector<double> per_method(kMethods, 0.0);
    const auto t0 = std::chrono::steady_clock::now();
    for (const core::SweepPoint& p : points) {
      const auto tp = std::chrono::steady_clock::now();
      run.push_back(core::predict(ct, p.threads, options_at(p)));
      per_method[method_index(p.method)] += ms_since(tp);
    }
    const double ms = ms_since(t0);
    if (s == 0 || ms < compiled_ms) {
      compiled_ms = ms;
      compiled_method_ms = per_method;
    }
    compiled_cells = std::move(run);
  }

  // The production fig12/table3 path: compile once inside core::sweep and
  // share the arrays across all points, with per-section memoization on
  // top. This is what the serve daemon and the figure benches actually run.
  double sweep_ms = 0.0;
  std::vector<core::SpeedupEstimate> sweep_cells;
  for (long s = 0; s < samples; ++s) {
    core::SweepOptions sopts;
    sopts.workers = 1;
    const auto t0 = std::chrono::steady_clock::now();
    const core::SweepResult res = core::sweep(t, grid, sopts);
    const double ms = ms_since(t0);
    if (s == 0 || ms < sweep_ms) sweep_ms = ms;
    sweep_cells.clear();
    sweep_cells.reserve(res.cells.size());
    for (const auto& c : res.cells) sweep_cells.push_back(c.estimate);
  }

  // The batched sweep against a per-point core::predict loop (the scalar
  // engines, no memo), measured where the batched evaluators exist: FF and
  // Suitability sub-problems. SYN/Real replay the vCPU the same way on
  // both, so including them would only dilute the number. One worker, so
  // this is a per-eval cost comparison plus the sweep's memo savings; the
  // identity of the two runs is part of the exit gate below.
  core::SweepGrid egrid = grid;
  egrid.methods = {core::Method::FastForward, core::Method::Suitability};
  const std::vector<core::SweepPoint> epoints = egrid.points();
  const tree::CompiledTree ect = tree::CompiledTree::compile(t);
  double predict_loop_ms = 0.0;
  double batched_ms = 0.0;
  std::size_t batched_blocks = 0;
  std::size_t batched_pts = 0;
  std::vector<core::SpeedupEstimate> loop_cells, batched_cells;
  for (long s = 0; s < samples; ++s) {
    loop_cells.clear();
    auto t0 = std::chrono::steady_clock::now();
    for (const core::SweepPoint& p : epoints) {
      loop_cells.push_back(core::predict(ect, p.threads, options_at(p)));
    }
    const double lms = ms_since(t0);
    if (s == 0 || lms < predict_loop_ms) predict_loop_ms = lms;

    core::SweepOptions sopts;
    sopts.workers = 1;
    t0 = std::chrono::steady_clock::now();
    const core::SweepResult rb = core::sweep(ect, egrid, sopts);
    const double bms = ms_since(t0);
    if (s == 0 || bms < batched_ms) batched_ms = bms;

    batched_blocks = rb.stats.batched_blocks;
    batched_pts = rb.stats.batched_points;
    batched_cells.clear();
    for (const auto& c : rb.cells) batched_cells.push_back(c.estimate);
  }
  std::size_t engine_mismatches = 0;
  for (std::size_t i = 0; i < epoints.size(); ++i) {
    const auto& a = loop_cells[i];
    const auto& b = batched_cells[i];
    if (a.speedup != b.speedup || a.parallel_cycles != b.parallel_cycles ||
        a.serial_cycles != b.serial_cycles) {
      ++engine_mismatches;
    }
  }

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& b = compiled_cells[i];
    const auto& c = sweep_cells[i];
    if (b.speedup != c.speedup || b.parallel_cycles != c.parallel_cycles ||
        b.serial_cycles != c.serial_cycles) {
      ++mismatches;
    }
  }

  util::Table table({"grid slice", "wall ms"});
  table.add_row({"per-point predict, whole grid",
                 util::fmt_f(compiled_ms, 2)});
  for (const core::Method m :
       {core::Method::FastForward, core::Method::Synthesizer,
        core::Method::Suitability, core::Method::GroundTruth}) {
    table.add_row({std::string("  method ") + core::to_string(m),
                   util::fmt_f(compiled_method_ms[method_index(m)], 2)});
  }
  table.add_row({"memoized sweep, whole grid", util::fmt_f(sweep_ms, 2)});
  table.add_row({"compile (once)", util::fmt_f(compile_ms, 2)});
  table.print(std::cout);
  std::cout << "all " << points.size() << " cells bit-identical between "
            << "per-point predict and the memoized sweep: "
            << (mismatches == 0 ? "yes" : "NO — BUG") << "\n";

  const double predict_loop_speedup =
      batched_ms > 0.0 ? predict_loop_ms / batched_ms : 0.0;
  util::Table etable({"FF+Suit grid", "wall ms", "speedup"});
  etable.add_row({"per-point predict loop", util::fmt_f(predict_loop_ms, 2),
                  "1.00x"});
  etable.add_row({"batched sweep (" + std::to_string(batched_blocks) +
                      " blocks, " + std::to_string(batched_pts) + " points)",
                  util::fmt_f(batched_ms, 2),
                  util::fmt_f(predict_loop_speedup, 2) + "x"});
  etable.print(std::cout);
  std::cout << "all " << epoints.size() << " cells bit-identical between "
            << "the sweep and the predict loop: "
            << (engine_mismatches == 0 ? "yes" : "NO — BUG") << "\n";

  serve::JsonValue out;
  out.set("bench", serve::JsonValue("compiled_tree"));
  out.set("seed", serve::JsonValue(static_cast<std::int64_t>(seed)));
  out.set("samples", serve::JsonValue(static_cast<std::int64_t>(samples)));
  out.set("tree_nodes", serve::JsonValue(
                            static_cast<std::uint64_t>(t.node_count())));
  out.set("grid_points", serve::JsonValue(
                             static_cast<std::uint64_t>(points.size())));
  out.set("compiled_ms", serve::JsonValue(compiled_ms));
  out.set("compile_once_ms", serve::JsonValue(compile_ms));
  out.set("sweep_ms", serve::JsonValue(sweep_ms));
  out.set("emul_grid_points", serve::JsonValue(
                                  static_cast<std::uint64_t>(epoints.size())));
  out.set("predict_loop_ms", serve::JsonValue(predict_loop_ms));
  out.set("sweep_batched_ms", serve::JsonValue(batched_ms));
  out.set("predict_loop_speedup", serve::JsonValue(predict_loop_speedup));
  out.set("batched_blocks", serve::JsonValue(
                                static_cast<std::uint64_t>(batched_blocks)));
  out.set("batched_points", serve::JsonValue(
                                static_cast<std::uint64_t>(batched_pts)));
  {
    serve::JsonValue::Object per_method;
    for (const core::Method m :
         {core::Method::FastForward, core::Method::Synthesizer,
          core::Method::Suitability, core::Method::GroundTruth}) {
      serve::JsonValue row;
      row.set("compiled_ms",
              serve::JsonValue(compiled_method_ms[method_index(m)]));
      per_method.emplace(core::to_string(m), std::move(row));
    }
    out.set("per_method", serve::JsonValue(std::move(per_method)));
  }
  out.set("identical", serve::JsonValue(mismatches == 0));
  out.set("engine_identical", serve::JsonValue(engine_mismatches == 0));
  std::ofstream f("BENCH_compiled.json");
  f << serve::json_dump(out) << "\n";
  f.close();
  std::cout << "wrote BENCH_compiled.json\n";

  if (mismatches > 0) {
    std::cerr << "FAIL: " << mismatches
              << " cells differed between per-point predict and the "
                 "memoized sweep\n";
    return 1;
  }
  if (engine_mismatches > 0) {
    std::cerr << "FAIL: " << engine_mismatches
              << " cells differed between the sweep and the predict loop\n";
    return 1;
  }
  return 0;
}
