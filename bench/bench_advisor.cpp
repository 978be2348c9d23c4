// Advisor soundness + memo gate: runs the full what-if search (core::advise)
// over a Figure-12-scale workload tree. Three contracts gate the exit code
// (so this doubles as a ctest under the perf label):
//   1. soundness — the top-3 edit actions, re-applied to the source tree
//      via tree::apply_edit and re-predicted from scratch, reproduce their
//      advertised speedup_after within 1%;
//   2. cost — the whole advisor (config sweep + profile + edit search)
//      emulates fewer than 3x the sections one un-memoized sweep of the
//      configuration grid does (grid points x sections), which is what
//      digest-salted per-section memoization buys;
//   3. memo — the edit search (advise's stats minus those of the
//      configuration sweep alone, core::advise_configurations) hits its
//      memo, and emulates at most half the sections it looks up: an edit
//      salts one section's digest, so every other section must re-price
//      from the memo. Gate 2 alone would pass with a memo that never hits.
// Every gate is a count or an exact comparison, so it holds on any host;
// the advisor's timings live in perfbench (`whatif`, core.advise_ms).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/advise.hpp"
#include "core/prophet.hpp"
#include "obs/metrics.hpp"
#include "report/experiment.hpp"
#include "tree/compile.hpp"
#include "tree/compress.hpp"
#include "tree/edit.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads/test_patterns.hpp"

using namespace pprophet;

int main() {
  report::print_header(std::cout,
                       "What-if advisor — soundness and memoized edit search "
                       "(seed 2012)");

  // A multi-phase program: six Test1/Test2 instances (the paper's
  // validation workloads) spliced under one root, like a real application
  // with distinct parallel phases. Multi-section is the advisor's working
  // regime — an edit salts one section's digest and every other section
  // re-prices from the memo.
  util::Xoshiro256 rng(2012);
  tree::ProgramTree t;
  t.root = std::make_unique<tree::Node>(tree::NodeKind::Root, "");
  for (int i = 0; i < 6; ++i) {
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
  ao.grid.thread_counts = report::paper_core_counts();
  ao.grid.chunks.clear();
  ao.sweep.workers = 1;

  // The advisor's section emulations: every predict_section_cycles call,
  // the baseline predict() included (Advice::stats counts only memo misses).
  obs::Timer& syn_sections =
      obs::MetricsRegistry::global().timer("predict.section_cycles.SYN");
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  syn_sections.reset();
  const core::Advice advice = core::advise(compiled, ao);
  const std::uint64_t advise_sections = syn_sections.stat().count;
  obs::set_enabled(obs_was_enabled);

  // One sweep of the same configuration grid with no memo prices every
  // point's every section. (Cilk's scheduler is not configurable, so it
  // collapses to one schedule per thread count, exactly as the advisor
  // enumerates.)
  std::size_t grid_points = 0;
  for (const core::Paradigm p : ao.grid.paradigms) {
    const std::size_t nsched =
        p == core::Paradigm::CilkPlus ? 1 : ao.grid.schedules.size();
    grid_points += nsched * ao.grid.thread_counts.size();
  }
  const std::uint64_t unmemo_sections = grid_points * compiled.section_count();

  // The edit search's own memo traffic: everything the full advisor looked
  // up beyond its configuration sweep.
  const core::SweepStats config_stats =
      core::advise_configurations(compiled, ao).stats;
  const std::size_t edit_lookups =
      advice.stats.section_lookups - config_stats.section_lookups;
  const std::size_t edit_hits =
      advice.stats.cache_hits - config_stats.cache_hits;
  const std::size_t edit_evals =
      advice.stats.section_evals - config_stats.section_evals;

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

  util::Table table({"count", "value", "gate"});
  table.add_row({"actions", std::to_string(advice.actions.size()), ""});
  table.add_row({"advisor section emulations",
                 std::to_string(advise_sections),
                 "< 3 x " + std::to_string(unmemo_sections) + " (" +
                     std::to_string(grid_points) + " points x " +
                     std::to_string(compiled.section_count()) +
                     " sections)"});
  table.add_row({"config sweep evals / lookups",
                 std::to_string(config_stats.section_evals) + " / " +
                     std::to_string(config_stats.section_lookups),
                 ""});
  table.add_row({"edit search evals / lookups",
                 std::to_string(edit_evals) + " / " +
                     std::to_string(edit_lookups),
                 "evals <= lookups / 2"});
  table.add_row({"edit search memo hits", std::to_string(edit_hits), "> 0"});
  table.print(std::cout);
  std::cout << "soundness: " << checked << " top actions re-checked, worst "
            << "relative error " << util::fmt_pct(worst_rel_err) << "\n";

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
  if (edit_hits == 0 || 2 * edit_evals > edit_lookups) {
    std::cerr << "FAIL: the edit search emulated " << edit_evals << " of "
              << edit_lookups << " section lookups (" << edit_hits
              << " memo hits) — unedited sections no longer re-price from "
                 "the memo\n";
    return 1;
  }
  return 0;
}
