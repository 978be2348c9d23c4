// Reuse-distance memory model gate (docs/MEMMODEL.md): profile a kernel
// ONCE with the reuse collector, then price it on every machine preset two
// ways — the analytical miss model (reuse/miss_model.hpp) vs a full
// cache-simulation replay per preset. Reports, per preset, the
// model-vs-simulation MPI error, and the work of the single collected pass
// (+ projections) against N replay passes. Gates both contracts in-process
// (≤10% relative MPI error on at least 3 of the 5 presets, ≥2x less work)
// and exits nonzero on violation, so it doubles as a ctest (labels: perf,
// reuse). The cost gate counts work, not time, so it is exact on any host:
// cache-simulator line lookups of the N replays against those of the one
// profiled pass, plus the lines the reuse collector processed, plus the
// histogram buckets the projections evaluated.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "machine/presets.hpp"
#include "report/experiment.hpp"
#include "reuse/miss_model.hpp"
#include "util/table.hpp"
#include "workloads/ompscr.hpp"

using namespace pprophet;

namespace {

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
  // Every preset runs a 64x-scaled hierarchy (MachinePreset::scaled_cache),
  // preserving each preset's footprint:LLC ratio at a feasible kernel size.
  const unsigned kShift = 6;
  workloads::JacobiParams params;
  params.n = 160;
  params.sweeps = 4;
  report::print_header(
      std::cout,
      "Reuse-distance model — one profiling pass vs per-machine replay "
      "(jacobi n=" + std::to_string(params.n) + ")");

  const auto& presets = machine::machine_presets();
  const machine::MachinePreset& home = presets.front();  // westmere

  // One profiling pass on the home machine: cache simulation + reuse
  // collector in the same run.
  workloads::KernelConfig pcfg;
  pcfg.cache = home.scaled_cache(kShift);
  pcfg.cost.dram = home.cost.dram;
  pcfg.collect_reuse = true;
  const workloads::KernelRun profiled = workloads::run_jacobi(params, pcfg);

  // The replay baseline: what predicting every machine WITHOUT the model
  // costs — one full cache-simulated run per preset.
  util::Table table({"preset", "sim MPI", "model MPI", "rel err",
                     "replay lookups", "projected buckets"});
  std::uint64_t replay_accesses = 0;
  std::uint64_t projected_buckets = 0;
  std::size_t within_10pct = 0;
  for (const machine::MachinePreset& preset : presets) {
    workloads::KernelConfig cfg;
    cfg.cache = preset.scaled_cache(kShift);
    cfg.cost.dram = preset.cost.dram;
    const workloads::KernelRun run = workloads::run_jacobi(params, cfg);
    const Mpi sim = section_mpi(run.tree);
    replay_accesses += run.cache_accesses;
    const std::uint64_t buckets =
        buckets_evaluated(profiled.tree, preset, kShift);
    projected_buckets += buckets;

    tree::ProgramTree priced;
    priced.root = profiled.tree.root->clone();
    reuse::project_tree(priced, preset.scaled_cache(kShift), preset.cost.dram);
    const Mpi model = section_mpi(priced);

    const double err = sim.value() > 0.0
                           ? std::abs(model.value() - sim.value()) / sim.value()
                           : 0.0;
    if (err <= 0.10) ++within_10pct;
    table.add_row({preset.name, util::fmt_f(sim.value() * 1000.0, 3) + "e-3",
                   util::fmt_f(model.value() * 1000.0, 3) + "e-3",
                   util::fmt_pct(err), std::to_string(run.cache_accesses),
                   std::to_string(buckets)});
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
  // Which presets sit in the well-modelled capacity regime (LLC clearly
  // below or clearly above the footprint) vs the conflict-dominated
  // mid-regime shifts with the kernel scale, so the gate counts presets
  // instead of naming them: the capacity regimes always cover at least 3
  // of the 5 (see tests/reuse/test_model_goldens.cpp for the per-preset
  // regime-split contract at a fixed scale).
  std::cout << within_10pct << "/" << presets.size()
            << " presets within the 10% MPI tolerance (gate: >= 3)\n";

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
