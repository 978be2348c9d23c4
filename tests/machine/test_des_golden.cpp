// Bit-identity golden for the discrete-event machine (machine/machine.hpp)
// as the OpenMP and Cilk executors drive it.
//
// Each row pins one FNV-64 digest per (mode, paradigm) over every
// top-level section of a random tree, every OpenMP schedule (Cilk has
// none) and the thread counts {1, 2, 5, 12, 16, 24} on paper_machine().
// The digest folds each run's RunResult (elapsed, traversal overhead) and
// the MachineStats fields that describe the simulated execution. The DES
// work counters (events, stale_events, reschedules) are left out on
// purpose: they measure how much work the simulator did, not what it
// simulated, and a faster event scheduler must be free to change them.
//
// A second test sums the work counters over the same runs and caps the
// popped events, so a scheduler change that brings back the wasted work
// fails here even though every digest still matches.
//
// The trees are random_tree(seed) with every length scaled up so runs
// outlast the 100k-cycle OS quantum; 16 and 24 threads oversubscribe the
// 12 cores, so the preemption and context-switch paths run. Top-level
// sections carry deterministic counters (Real mode splits leaves into
// compute + dilatable memory stall) and burden tables (Synth mode).
//
// A change to the DES that moves any digest changes predictions; it must
// re-baseline the goldens and pred_err_pct in the same change.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>

#include "report/experiment.hpp"
#include "runtime/cilk_executor.hpp"
#include "runtime/omp_executor.hpp"
#include "tree/compile.hpp"
#include "util/fnv.hpp"

#include "../property/random_trees.hpp"

namespace pprophet::runtime {
namespace {

constexpr CoreCount kThreads[] = {1, 2, 5, 12, 16, 24};
constexpr OmpSchedule kSchedules[] = {
    OmpSchedule::StaticCyclic, OmpSchedule::StaticBlock, OmpSchedule::Dynamic,
    OmpSchedule::Guided};
constexpr Cycles kLengthScale = 40;

void scale_lengths(tree::Node& n) {
  n.set_length(n.length() * kLengthScale);
  for (const auto& c : n.children()) scale_lengths(*c);
}

tree::ProgramTree golden_tree(std::uint64_t seed) {
  tree::ProgramTree t = tree::random_tree(seed);
  scale_lengths(*t.root);
  util::Xoshiro256 rng(seed ^ 0x5eedULL);
  for (const auto& child : t.root->children()) {
    if (child->kind() != tree::NodeKind::Sec) continue;
    tree::SectionCounters c;
    c.cycles = child->serial_work();
    // DRAM stall share in [0.2, 0.8) at ω = 200 cycles per miss.
    const double mem_share = 0.2 + 0.6 * rng.uniform_double();
    c.llc_misses = static_cast<std::uint64_t>(
        mem_share * static_cast<double>(c.cycles) / 200.0);
    c.llc_writebacks = c.llc_misses / 4;
    c.instructions = c.cycles / 2;
    child->set_counters(c);
    for (const CoreCount threads : kThreads) {
      child->set_burden(threads, 1.0 + 1.5 * rng.uniform_double());
    }
  }
  return t;
}

void fold(util::Fnv64& h, const RunResult& r) {
  h.u64(r.elapsed);
  h.u64(r.traversal_overhead);
  const machine::MachineStats& s = r.stats;
  h.u64(s.finish_time);
  h.u64(s.context_switches);
  h.u64(s.preemptions);
  h.u64(s.lock_acquisitions);
  h.u64(s.lock_contentions);
  h.u64(s.total_busy);
  h.u64(s.total_lock_wait);
  h.u64(s.spawned_threads);
}

struct Digests {
  std::uint64_t real_omp = 0;
  std::uint64_t real_cilk = 0;
  std::uint64_t synth_omp = 0;
  std::uint64_t synth_cilk = 0;
};

/// Scheduler paths hit across all golden runs, so the golden provably
/// exercises what it pins, and the DES work those runs cost.
struct Coverage {
  std::uint64_t preemptions = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t lock_contentions = 0;
  std::uint64_t events = 0;
  std::uint64_t stale_events = 0;
};

Digests run_golden(std::uint64_t seed, Coverage& cov) {
  const tree::CompiledTree ct = tree::CompiledTree::compile(golden_tree(seed));
  const machine::MachineConfig mcfg = report::paper_machine();
  Digests d;
  for (const bool synth : {false, true}) {
    const ExecMode mode = synth ? ExecMode::synth_mode() : ExecMode::real();
    util::Fnv64 omp, cilk;
    const auto note = [&](const RunResult& r) {
      cov.preemptions += r.stats.preemptions;
      cov.context_switches += r.stats.context_switches;
      cov.lock_contentions += r.stats.lock_contentions;
      cov.events += r.stats.events;
      cov.stale_events += r.stats.stale_events;
    };
    for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
      for (const CoreCount threads : kThreads) {
        for (const OmpSchedule sched : kSchedules) {
          OmpConfig ocfg;
          ocfg.num_threads = threads;
          ocfg.schedule = sched;
          const RunResult r = run_section_omp(ct, s, mcfg, ocfg, mode);
          fold(omp, r);
          note(r);
        }
        CilkConfig ccfg;
        ccfg.num_workers = threads;
        const RunResult r = run_section_cilk(ct, s, mcfg, ccfg, mode);
        fold(cilk, r);
        note(r);
      }
    }
    (synth ? d.synth_omp : d.real_omp) = omp.h;
    (synth ? d.synth_cilk : d.real_cilk) = cilk.h;
  }
  return d;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

struct GoldenRow {
  std::uint64_t seed;
  Digests want;
};

// Re-recorded once when progress accounting became exact (compute-only
// completions stopped drifting by up to a cycle per event); every change
// since must reproduce them exactly.
constexpr GoldenRow kGolden[] = {
    {1, {0xa3e936dbf646a649ULL, 0x16bb16a8ce7821f1ULL, 0x49d502a1697ca0d1ULL,
         0x140db026b037273bULL}},
    {2, {0x3c963d20127bdbfeULL, 0x568002b14f4ee2e9ULL, 0x2c53c047488949e6ULL,
         0x04f8a626ca3ff896ULL}},
    {3, {0xcbeada776dfcf2e3ULL, 0x183bd0b63438e7b0ULL, 0xfb855158928b3a07ULL,
         0x12c3e274eb02ff06ULL}},
    {4, {0x6410c9bbd0bf8231ULL, 0x0ebf4ae9c9d6e835ULL, 0x4c94a6769e1eb6b1ULL,
         0x0be9012590104dbbULL}},
    {5, {0xe6e74492357368b3ULL, 0x261efa67d01c61ddULL, 0x7f5cbf402bdd90c1ULL,
         0x6df62666ed932f72ULL}},
    {6, {0x0dd20edf4d545b1eULL, 0x734313d47e115af6ULL, 0xed97bdd887fff067ULL,
         0x797f5bdcd84c3625ULL}},
};

struct GoldenRuns {
  Digests got[std::size(kGolden)];
  Coverage cov;
};

/// Runs the corpus once per process; both tests read the same runs.
const GoldenRuns& golden_runs() {
  static const GoldenRuns runs = [] {
    GoldenRuns r;
    for (std::size_t i = 0; i < std::size(kGolden); ++i) {
      r.got[i] = run_golden(kGolden[i].seed, r.cov);
    }
    return r;
  }();
  return runs;
}

TEST(DesGolden, RunDigestsAreBitIdentical) {
  const GoldenRuns& runs = golden_runs();
  for (std::size_t i = 0; i < std::size(kGolden); ++i) {
    const GoldenRow& row = kGolden[i];
    const Digests& got = runs.got[i];
    // On mismatch the message is the row to paste after a deliberate,
    // explained re-baseline.
    const std::string actual = "{" + std::to_string(row.seed) + ", {" +
                               hex(got.real_omp) + ", " + hex(got.real_cilk) +
                               ", " + hex(got.synth_omp) + ", " +
                               hex(got.synth_cilk) + "}},";
    EXPECT_EQ(got.real_omp, row.want.real_omp) << actual;
    EXPECT_EQ(got.real_cilk, row.want.real_cilk) << actual;
    EXPECT_EQ(got.synth_omp, row.want.synth_omp) << actual;
    EXPECT_EQ(got.synth_cilk, row.want.synth_cilk) << actual;
  }
  EXPECT_GT(runs.cov.preemptions, 0u);
  EXPECT_GT(runs.cov.context_switches, 0u);
  EXPECT_GT(runs.cov.lock_contentions, 0u);
}

// The budget is a third of what re-pushing every running completion after
// every event pops on this corpus (4,878,078 events, 87% of them stale).
// Event-local progress, with each replay thread's back-to-back
// compute-only ops folded into one Exec, pops 1,024,542 (568,745 stale,
// 55.5%).
TEST(DesGolden, PoppedEventsWithinBudget) {
  const Coverage& cov = golden_runs().cov;
  constexpr std::uint64_t kFullRepushEvents = 4'878'078;
  EXPECT_LE(cov.events, kFullRepushEvents / 3)
      << "stale " << cov.stale_events << " of " << cov.events;
}

}  // namespace
}  // namespace pprophet::runtime
