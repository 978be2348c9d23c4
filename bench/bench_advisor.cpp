// Advisor performance + soundness gate: runs the full what-if search
// (core::advise) over a Figure-12-scale workload tree and prices the same
// configuration grid un-memoized for reference. Two contracts gate the exit
// code (so this doubles as a ctest under the perf label):
//   1. soundness — the top-3 edit actions, re-applied to the source tree
//      via tree::apply_edit and re-predicted from scratch, reproduce their
//      advertised speedup_after within 1%;
//   2. cost — the whole advisor (config sweep + profile + edit search)
//      emulates fewer than 3x the sections one un-memoized sweep of the
//      configuration grid does (grid points x sections), which is what
//      digest-salted per-section memoization buys. The count is work, not
//      wall time, so the gate holds on any host; the timings are printed.
// Writes BENCH_advisor.json. PP_SMOKE=1 shrinks the grid for CI.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/advise.hpp"
#include "core/prophet.hpp"
#include "obs/metrics.hpp"
#include "report/experiment.hpp"
#include "serve/json.hpp"
#include "tree/compile.hpp"
#include "tree/compress.hpp"
#include "tree/edit.hpp"
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
  const bool smoke = util::env_long("PP_SMOKE", 0) != 0;
  const long samples = util::env_long("PP_SAMPLES", smoke ? 1 : 3);
  report::print_header(
      std::cout, "What-if advisor — edit search vs un-memoized sweeps "
                 "(PP_SEED=" + std::to_string(seed) + ", best of " +
                 std::to_string(samples) + " runs)" +
                 (smoke ? " [smoke]" : ""));

  // A multi-phase program: several Test1/Test2 instances (the paper's
  // validation workloads) spliced under one root, like a real application
  // with distinct parallel phases. Multi-section is the advisor's working
  // regime — an edit salts one section's digest and every other section
  // re-prices from the memo.
  util::Xoshiro256 rng(static_cast<std::uint64_t>(seed));
  tree::ProgramTree t;
  t.root = std::make_unique<tree::Node>(tree::NodeKind::Root, "");
  const long phases = util::env_long("PP_PHASES", smoke ? 3 : 6);
  for (long i = 0; i < phases; ++i) {
    tree::ProgramTree phase =
        i % 2 == 0 ? workloads::run_test1(workloads::random_test1(rng))
                   : workloads::run_test2(workloads::random_test2(rng));
    for (tree::NodePtr& child : phase.root->mutable_children()) {
      t.root->add_child(std::move(child));
    }
  }
  tree::compress(t);
  const tree::CompiledTree compiled = tree::CompiledTree::compile(t);

  core::AdviseOptions ao;
  ao.base = report::paper_options(core::Method::Synthesizer);
  ao.grid.thread_counts =
      smoke ? std::vector<CoreCount>{2, 4, 8} : report::paper_core_counts();
  ao.grid.chunks.clear();
  ao.sweep.workers = 1;  // pure per-eval cost; no pool parallelism

  core::Advice advice;
  double advise_ms = 0.0;
  for (long s = 0; s < samples; ++s) {
    const auto t0 = std::chrono::steady_clock::now();
    advice = core::advise(compiled, ao);
    const double ms = ms_since(t0);
    if (s == 0 || ms < advise_ms) advise_ms = ms;
  }

  // The advisor's section emulations: every predict_section_cycles call,
  // the baseline predict() included (Advice::stats counts only memo misses).
  // Counted on one extra run so the timed runs stay uninstrumented.
  obs::Timer& syn_sections =
      obs::MetricsRegistry::global().timer("predict.section_cycles.SYN");
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  syn_sections.reset();
  (void)core::advise(compiled, ao);
  const std::uint64_t advise_sections = syn_sections.stat().count;
  obs::set_enabled(obs_was_enabled);

  // Reference: one sweep of the same configuration grid with no memo —
  // every point priced by a fresh core::predict over the compiled arrays.
  // (Cilk's scheduler is not configurable, so it collapses to one schedule
  // per thread count, exactly as the advisor enumerates.)
  std::size_t grid_points = 0;
  double unmemo_ms = 0.0;
  for (long s = 0; s < samples; ++s) {
    grid_points = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const core::Paradigm p : ao.grid.paradigms) {
      const std::size_t nsched =
          p == core::Paradigm::CilkPlus ? 1 : ao.grid.schedules.size();
      for (std::size_t i = 0; i < nsched; ++i) {
        for (const CoreCount threads : ao.grid.thread_counts) {
          core::PredictOptions o = ao.base;
          o.method = core::Method::Synthesizer;
          o.paradigm = p;
          o.schedule = ao.grid.schedules[i];
          (void)core::predict(compiled, threads, o);
          ++grid_points;
        }
      }
    }
    const double ms = ms_since(t0);
    if (s == 0 || ms < unmemo_ms) unmemo_ms = ms;
  }

  // Soundness self-check: top-3 edit actions re-applied and re-predicted.
  std::size_t checked = 0;
  std::size_t violations = 0;
  double worst_rel_err = 0.0;
  for (const core::Action& a : advice.actions) {
    if (checked == 3) break;
    if (a.kind == core::ActionKind::ConvertConfig) continue;
    const tree::CompiledTree edited = tree::apply_edit(compiled, a.edit);
    core::PredictOptions o = ao.base;
    o.method = core::Method::Synthesizer;
    const double fresh =
        core::predict(edited, advice.target_threads, o).speedup;
    const double rel = fresh == 0.0
                           ? 1.0
                           : std::abs(a.speedup_after - fresh) / fresh;
    worst_rel_err = std::max(worst_rel_err, rel);
    if (rel > 0.01) {
      ++violations;
      std::cerr << "SOUNDNESS VIOLATION: " << a.describe() << " promised "
                << a.speedup_after << " but re-predicts to " << fresh << "\n";
    }
    ++checked;
  }

  const double hit_rate =
      advice.stats.section_lookups == 0
          ? 0.0
          : static_cast<double>(advice.stats.cache_hits) /
                static_cast<double>(advice.stats.section_lookups);
  const double sweeps_equiv = unmemo_ms > 0.0 ? advise_ms / unmemo_ms : 0.0;
  const std::uint64_t unmemo_sections = grid_points * compiled.section_count();
  const double sections_equiv =
      unmemo_sections == 0 ? 0.0
                           : static_cast<double>(advise_sections) /
                                 static_cast<double>(unmemo_sections);

  util::Table table({"stage", "wall ms", "notes"});
  table.add_row({"advise (sweep+profile+edits)", util::fmt_f(advise_ms, 2),
                 std::to_string(advice.actions.size()) + " actions"});
  table.add_row({"un-memoized config sweep", util::fmt_f(unmemo_ms, 2),
                 std::to_string(grid_points) + " points x " +
                     std::to_string(compiled.section_count()) + " sections"});
  table.add_row({"advisor wall time in sweeps", util::fmt_f(sweeps_equiv, 2),
                 ""});
  table.add_row({"advisor sections in sweeps", util::fmt_f(sections_equiv, 2),
                 std::to_string(advise_sections) + " / " +
                     std::to_string(unmemo_sections) + ", gate: < 3"});
  table.add_row({"memo hit rate", util::fmt_pct(hit_rate),
                 std::to_string(advice.stats.section_evals) + " evals / " +
                     std::to_string(advice.stats.section_lookups) +
                     " lookups"});
  table.print(std::cout);
  std::cout << "soundness: " << checked << " top actions re-checked, worst "
            << "relative error " << util::fmt_pct(worst_rel_err) << "\n";

  serve::JsonValue out;
  out.set("bench", serve::JsonValue("advisor"));
  out.set("seed", serve::JsonValue(static_cast<std::int64_t>(seed)));
  out.set("samples", serve::JsonValue(static_cast<std::int64_t>(samples)));
  out.set("tree_nodes",
          serve::JsonValue(static_cast<std::uint64_t>(t.node_count())));
  out.set("grid_points",
          serve::JsonValue(static_cast<std::uint64_t>(grid_points)));
  out.set("actions",
          serve::JsonValue(static_cast<std::uint64_t>(advice.actions.size())));
  out.set("advise_ms", serve::JsonValue(advise_ms));
  out.set("unmemoized_sweep_ms", serve::JsonValue(unmemo_ms));
  out.set("advise_cost_in_sweeps", serve::JsonValue(sweeps_equiv));
  out.set("advise_section_emulations", serve::JsonValue(advise_sections));
  out.set("unmemoized_section_emulations", serve::JsonValue(unmemo_sections));
  out.set("memo_hit_rate", serve::JsonValue(hit_rate));
  out.set("section_lookups", serve::JsonValue(static_cast<std::uint64_t>(
                                 advice.stats.section_lookups)));
  out.set("section_evals", serve::JsonValue(static_cast<std::uint64_t>(
                               advice.stats.section_evals)));
  out.set("soundness_checked",
          serve::JsonValue(static_cast<std::uint64_t>(checked)));
  out.set("soundness_worst_rel_err", serve::JsonValue(worst_rel_err));
  out.set("sound", serve::JsonValue(violations == 0));
  std::ofstream f("BENCH_advisor.json");
  f << serve::json_dump(out) << "\n";
  f.close();
  std::cout << "wrote BENCH_advisor.json\n";

  if (violations > 0) {
    std::cerr << "FAIL: " << violations
              << " of the top actions missed their promised speedup by >1%\n";
    return 1;
  }
  if (advise_sections >= 3 * unmemo_sections) {
    std::cerr << "FAIL: advisor emulated " << advise_sections
              << " sections, not fewer than 3 un-memoized sweeps' "
              << unmemo_sections << " — the edit-search memo has regressed\n";
    return 1;
  }
  return 0;
}
