// Shared vocabulary of the perfbench binary: command-line arguments, the
// outcome a workload hands back to main(), latency statistics, and the
// paper-suite helpers every workload's set-up uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/prophet.hpp"
#include "memmodel/burden.hpp"
#include "tree/compile.hpp"
#include "tree/node.hpp"
#include "workloads/kernel_harness.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
namespace pp = pprophet;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  long seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< traces and the serve socket go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back. Timings are host wall time; counts are
/// exact and repeat for a given seed.
struct Outcome {
  std::vector<double> op_ms;  ///< per-op latency of every timed op
  double timed_s = 0.0;       ///< wall time of the whole timed region
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double pred_err_pct = 0.0;
  /// Exact work counts of the timed region, printed on every run.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  /// Per-layer metrics this workload measures (traced runs only).
  std::vector<Metric> layers;
  /// Free-form lines printed before the result (pool widths, notes).
  std::vector<std::string> notes;
  /// probe_host_ms() samples taken between the timed ops (profile, whatif).
  std::vector<double> probe_ms;
};

// --- latency statistics --------------------------------------------------

/// Median (mean of the two middle values for an even count).
double median(std::vector<double> v);

/// hits / lookups, 0 when nothing was looked up.
inline double hit_ratio(std::uint64_t hits, std::uint64_t lookups) {
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(lookups);
}

/// The highest percentile of a fixed ladder (50, 75, 90, 95, 99) that
/// still has at least ten samples beyond it, by nearest rank.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v);

// --- host speed ------------------------------------------------------------

/// Times a fixed job compiled into the benchmark itself, no predictor code:
/// a small three-level LRU cache simulation over a synthetic access stream,
/// the same kind of work as the vcpu's cache simulation. The shared host's
/// speed for such code drifts by up to a third over minutes; the probe
/// drifts with it, so main() reports the timings of a workload that probes
/// at the nominal probe speed (README.md, Noise). Returns the fastest of
/// three runs, in ms.
double probe_host_ms();

/// Probe time at which scaled timings equal wall time: roughly what the
/// probe took on the 4-vCPU VM this was built on while its neighbours were
/// quiet.
inline constexpr double kNominalProbeMs = 7.5;

// --- the paper suite -----------------------------------------------------

/// One of the eight paper kernels (bench::paper_suite(1)), profiled,
/// compressed and packed in canonical order during set-up.
struct SuiteKernel {
  std::string name;
  pp::core::Paradigm paradigm{};
  pp::runtime::OmpSchedule schedule{};
  pp::tree::ProgramTree tree;  ///< compressed, without burden factors
  std::string pptb;            ///< packed binary of `tree`
  double checksum = 0.0;
};

/// Profiles, compresses and packs the whole suite in canonical order.
std::vector<SuiteKernel> profile_suite();

/// Deep copy (trees are move-only).
std::vector<SuiteKernel> clone_suite(const std::vector<SuiteKernel>& suite);

/// Runs suite kernel `index` at its paper_suite(1) problem size and cache
/// config, optionally collecting reuse histograms. The suite's own lambdas
/// fix the kernel config, so the profile workload calls the kernels here;
/// its checksum check ties these sizes to paper_suite(1).
pp::workloads::KernelRun run_suite_kernel(std::size_t index,
                                          bool collect_reuse);

/// The set-up every workload starts with, repeated kSetupRepeats times.
struct SuiteSetup {
  /// Burden model calibrated against the paper machine, afresh each time.
  std::optional<pp::memmodel::BurdenModel> model;
  std::vector<SuiteKernel> suite;
  /// A copy of the first repetition's suite, pred_err_pct's source. The
  /// simulated cache indexes host addresses, so a suite's cycle counts
  /// depend on the heap it was profiled on; the first suite, profiled right
  /// after process start, is the same in every run and workload.
  std::vector<SuiteKernel> reference;

  /// Calibrates and profiles the suite; the first call also fills
  /// `reference`. Workloads call it before anything seed-dependent
  /// allocates.
  void run();
};

/// Figure-12 pricing of one suite kernel at the paper core counts: one
/// core::sweep_points call per method, each under its own span.
struct Fig12 {
  std::vector<double> real, pred, predm, suit, ff;
  /// Every cell's parallel cycles, in call order, for bit-identity checks.
  std::vector<std::uint64_t> cycles;
  std::uint64_t section_lookups = 0, cache_hits = 0, section_evals = 0;
};

/// Annotates a copy of `k.tree` with burden factors for the paper core
/// counts and compiles it: the tree every Figure-12 method prices.
pp::tree::CompiledTree prepare_kernel(const SuiteKernel& k,
                                      const pp::memmodel::BurdenModel& model);

/// Prices a prepared kernel. `all_methods` = false prices only Real and
/// PredM (what pred_err_pct needs).
Fig12 price_fig12(const SuiteKernel& k, const pp::tree::CompiledTree& compiled,
                  std::size_t workers, bool all_methods);

/// Mean |PredM - Real| / Real x 100 over the given kernels x paper cores.
double pred_err_pct(const std::vector<Fig12>& priced);

/// pred_err_pct over the whole suite, priced from scratch.
double suite_pred_err_pct(const std::vector<SuiteKernel>& suite,
                          const pp::memmodel::BurdenModel& model);

// --- workloads -------------------------------------------------------------

Outcome run_profile(const Args& args, Clock::time_point process_start);
Outcome run_whatif(const Args& args, Clock::time_point process_start);
Outcome run_serve(const Args& args, Clock::time_point process_start);

/// Number of set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

}  // namespace perfbench
