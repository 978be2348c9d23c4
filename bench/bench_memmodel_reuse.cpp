// Reuse-distance memory model benchmark (docs/MEMMODEL.md): profile a
// kernel ONCE with the reuse collector, then price it on every machine
// preset two ways — the analytical miss model (reuse/miss_model.hpp) vs a
// full cache-simulation replay per preset. Reports, per preset, the
// model-vs-simulation MPI error, and the cost of the single collected pass
// (+ projections) against N replay passes. Gates both contracts in-process
// (≤10% relative MPI error on at least 3 of the 5 presets, ≥2x less work)
// and exits nonzero on violation, so it doubles as a ctest (labels: perf,
// reuse). The cost gate counts work, not time, so it is exact on any host:
// cache-simulator line lookups of the N replays against those of the one
// profiled pass, plus the lines the reuse collector processed, plus the
// histogram buckets the projections evaluated. Wall-clock timings are
// reported for information only.
// Writes BENCH_reuse.json. PP_SMOKE=1 shrinks the kernel; the gates still
// run.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "machine/presets.hpp"
#include "report/experiment.hpp"
#include "reuse/miss_model.hpp"
#include "serve/json.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "workloads/ompscr.hpp"

using namespace pprophet;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Mpi {
  std::uint64_t instructions = 0;
  std::uint64_t misses = 0;
  double value() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(instructions);
  }
};

Mpi section_mpi(const tree::ProgramTree& t) {
  Mpi m;
  for (const auto& c : t.root->children()) {
    if (c->kind() != tree::NodeKind::Sec) continue;
    if (const tree::SectionCounters* cnt = c->counters()) {
      m.instructions += cnt->instructions;
      m.misses += cnt->llc_misses;
    }
  }
  return m;
}

/// Histogram buckets project_tree walks to price `tree` on `preset`: every
/// top-level section with counters and a reuse profile, unless the preset
/// is the profiled machine (then the measured counters pass through).
std::uint64_t buckets_evaluated(const tree::ProgramTree& t,
                                const machine::MachinePreset& preset,
                                unsigned shift) {
  std::uint64_t n = 0;
  for (const auto& c : t.root->children()) {
    const reuse::ReuseHistogram* h = c->reuse_profile();
    if (c->kind() != tree::NodeKind::Sec || c->counters() == nullptr ||
        h == nullptr ||
        reuse::matches_profiled_config(h->config, preset.scaled_cache(shift),
                                       preset.cost.dram)) {
      continue;
    }
    n += h->buckets.size();
  }
  return n;
}

}  // namespace

int main() {
  const bool smoke = util::env_long("PP_SMOKE", 0) != 0;
  // Min-of-N for both the profiled pass and every replay: the cost
  // contract compares steady-state work, not scheduler noise.
  const long samples = util::env_long("PP_SAMPLES", 3);
  // Every preset runs a 64x-scaled hierarchy (MachinePreset::scaled_cache),
  // preserving each preset's footprint:LLC ratio at a feasible kernel size.
  const unsigned kShift = 6;
  workloads::JacobiParams params;
  params.n = smoke ? 96 : 160;
  params.sweeps = smoke ? 3 : 4;
  report::print_header(
      std::cout,
      "Reuse-distance model — one profiling pass vs per-machine replay "
      "(jacobi n=" + std::to_string(params.n) + ")" + (smoke ? " [smoke]" : ""));

  const auto& presets = machine::machine_presets();
  const machine::MachinePreset& home = presets.front();  // westmere

  // Untimed warm-up: the profiled pass runs first in-process and would
  // otherwise pay the allocator/page-fault cold start that the later
  // replay passes never see.
  {
    workloads::KernelConfig warm;
    warm.cache = home.scaled_cache(kShift);
    (void)workloads::run_jacobi(params, warm);
  }

  // One profiling pass on the home machine: cache simulation + reuse
  // collector in the same run.
  double profile_ms = 0.0;
  workloads::KernelRun profiled;
  for (long s = 0; s < samples; ++s) {
    workloads::KernelConfig cfg;
    cfg.cache = home.scaled_cache(kShift);
    cfg.cost.dram = home.cost.dram;
    cfg.collect_reuse = true;
    const auto t0 = std::chrono::steady_clock::now();
    workloads::KernelRun run = workloads::run_jacobi(params, cfg);
    const double ms = ms_since(t0);
    if (s == 0 || ms < profile_ms) profile_ms = ms;
    profiled = std::move(run);
  }

  // The replay baseline: what predicting every machine WITHOUT the model
  // costs — one full cache-simulated run per preset.
  util::Table table({"preset", "sim MPI", "model MPI", "rel err", "replay ms",
                     "project ms"});
  serve::JsonValue::Array rows;
  double replay_total_ms = 0.0;
  double project_total_ms = 0.0;
  std::uint64_t replay_accesses = 0;
  std::uint64_t projected_buckets = 0;
  std::size_t within_10pct = 0;
  for (const machine::MachinePreset& preset : presets) {
    double replay_ms = 0.0;
    Mpi sim;
    for (long s = 0; s < samples; ++s) {
      workloads::KernelConfig cfg;
      cfg.cache = preset.scaled_cache(kShift);
      cfg.cost.dram = preset.cost.dram;
      const auto t0 = std::chrono::steady_clock::now();
      const workloads::KernelRun run = workloads::run_jacobi(params, cfg);
      const double ms = ms_since(t0);
      if (s == 0 || ms < replay_ms) replay_ms = ms;
      sim = section_mpi(run.tree);
      if (s == 0) replay_accesses += run.cache_accesses;
    }
    replay_total_ms += replay_ms;
    projected_buckets += buckets_evaluated(profiled.tree, preset, kShift);

    const auto t0 = std::chrono::steady_clock::now();
    tree::ProgramTree priced;
    priced.root = profiled.tree.root->clone();
    reuse::project_tree(priced, preset.scaled_cache(kShift), preset.cost.dram);
    const double project_ms = ms_since(t0);
    project_total_ms += project_ms;
    const Mpi model = section_mpi(priced);

    const double err = sim.value() > 0.0
                           ? std::abs(model.value() - sim.value()) / sim.value()
                           : 0.0;
    if (err <= 0.10) ++within_10pct;
    table.add_row({preset.name, util::fmt_f(sim.value() * 1000.0, 3) + "e-3",
                   util::fmt_f(model.value() * 1000.0, 3) + "e-3",
                   util::fmt_pct(err), util::fmt_f(replay_ms, 1),
                   util::fmt_f(project_ms, 2)});
    serve::JsonValue row;
    row.set("preset", serve::JsonValue(preset.name));
    row.set("sim_mpi", serve::JsonValue(sim.value()));
    row.set("model_mpi", serve::JsonValue(model.value()));
    row.set("rel_err", serve::JsonValue(err));
    row.set("within_10pct", serve::JsonValue(err <= 0.10));
    row.set("replay_ms", serve::JsonValue(replay_ms));
    row.set("project_ms", serve::JsonValue(project_ms));
    rows.push_back(std::move(row));
  }
  table.print(std::cout);

  // Cost contract: profiling once + projecting everywhere must take at
  // least 2x less work than running the cache simulator once per machine.
  // The collector rides the profiled pass's access stream and walks the
  // same lines the cache simulator looks up (vcpu.cpp feeds both), so its
  // share equals the pass's own lookups.
  const std::uint64_t profile_accesses = profiled.cache_accesses;
  const std::uint64_t collector_lines = profiled.cache_accesses;
  const std::uint64_t one_pass_work =
      profile_accesses + collector_lines + projected_buckets;
  const double work_reduction =
      one_pass_work > 0 ? static_cast<double>(replay_accesses) /
                              static_cast<double>(one_pass_work)
                        : 0.0;
  std::cout << "one profiled pass " << profile_accesses
            << " cache lookups + " << collector_lines << " collector lines + "
            << projected_buckets << " projected buckets vs " << presets.size()
            << " replays " << replay_accesses << " cache lookups: "
            << util::fmt_f(work_reduction, 2) << "x less work (gate: >= 2)\n";
  // Timings, for information only (host noise makes them unfit to gate).
  const double one_pass_ms = profile_ms + project_total_ms;
  const double reduction =
      one_pass_ms > 0.0 ? replay_total_ms / one_pass_ms : 0.0;
  std::cout << "timing (info): one profiled pass "
            << util::fmt_f(profile_ms, 1) << " ms + "
            << util::fmt_f(project_total_ms, 2) << " ms of projections vs "
            << presets.size() << " replays " << util::fmt_f(replay_total_ms, 1)
            << " ms: " << util::fmt_f(reduction, 2) << "x cheaper\n";
  // Which presets sit in the well-modelled capacity regime (LLC clearly
  // below or clearly above the footprint) vs the conflict-dominated
  // mid-regime shifts with the kernel scale, so the gate counts presets
  // instead of naming them: the capacity regimes always cover at least 3
  // of the 5 (see tests/reuse/test_model_goldens.cpp for the per-preset
  // regime-split contract at a fixed scale).
  std::cout << within_10pct << "/" << presets.size()
            << " presets within the 10% MPI tolerance (gate: >= 3)\n";

  serve::JsonValue out;
  out.set("bench", serve::JsonValue("memmodel_reuse"));
  out.set("kernel", serve::JsonValue("jacobi"));
  out.set("n", serve::JsonValue(static_cast<std::uint64_t>(params.n)));
  out.set("sweeps", serve::JsonValue(static_cast<std::int64_t>(params.sweeps)));
  out.set("cache_shift", serve::JsonValue(static_cast<std::uint64_t>(kShift)));
  out.set("presets", serve::JsonValue(std::move(rows)));
  out.set("profile_ms", serve::JsonValue(profile_ms));
  out.set("project_total_ms", serve::JsonValue(project_total_ms));
  out.set("replay_total_ms", serve::JsonValue(replay_total_ms));
  out.set("cost_reduction", serve::JsonValue(reduction));
  out.set("profile_cache_accesses", serve::JsonValue(profile_accesses));
  out.set("collector_lines", serve::JsonValue(collector_lines));
  out.set("projected_buckets", serve::JsonValue(projected_buckets));
  out.set("replay_cache_accesses", serve::JsonValue(replay_accesses));
  out.set("work_reduction", serve::JsonValue(work_reduction));
  out.set("presets_within_10pct",
          serve::JsonValue(static_cast<std::uint64_t>(within_10pct)));
  out.set("mpi_gate_ok", serve::JsonValue(within_10pct >= 3));
  out.set("work_reduction_at_least_2x",
          serve::JsonValue(work_reduction >= 2.0));
  std::ofstream f("BENCH_reuse.json");
  f << serve::json_dump(out) << "\n";
  f.close();
  std::cout << "wrote BENCH_reuse.json\n";

  if (within_10pct < 3) {
    std::cerr << "FAIL: model MPI within 10% on only " << within_10pct
              << " presets (need >= 3)\n";
    return 1;
  }
  if (work_reduction < 2.0) {
    std::cerr << "FAIL: one-pass profiling did not take 2x less work than "
                 "per-machine replay (got "
              << util::fmt_f(work_reduction, 2) << "x)\n";
    return 1;
  }
  return 0;
}
