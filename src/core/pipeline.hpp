// Prophet — the one-object pipeline facade (the Figure 3 workflow end to
// end): profile an annotated program, compress the tree, run the memory
// model, and produce speedup curves for every emulator, plus the
// recommendation. The lower-level pieces (trace/, tree/, memmodel/,
// core/prophet.hpp) stay available for tools that need finer control; this
// class is the "just tell me if parallelizing is worth it" entry point.
//
//   core::Prophet prophet;                     // paper-machine defaults
//   auto profiled = prophet.profile([&](vcpu::VirtualCpu& cpu) {
//     ...annotated serial program using cpu...
//   });
//   core::ProphetReport report = prophet.analyze(std::move(profiled));
//   report.print(std::cout);
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/advise.hpp"
#include "machine/machine.hpp"
#include "machine/presets.hpp"
#include "memmodel/burden.hpp"
#include "obs/metrics.hpp"
#include "tree/compress.hpp"
#include "tree/tree_stats.hpp"
#include "vcpu/vcpu.hpp"

namespace pprophet::core {

/// Pipeline configuration: the shared EngineOptions (machine, overheads,
/// schedule, chunk, memory-model) plus the pipeline extras.
/// Defaults differ from a bare EngineOptions: the simulated 12-core
/// Westmere testbed with the memory model on.
struct ProphetConfig : EngineOptions {
  ProphetConfig() {
    machine = machine::westmere_sim();
    memory_model = true;
  }

  std::vector<CoreCount> thread_counts{2, 4, 6, 8, 10, 12};
  tree::CompressOptions compress{};
  cachesim::CacheConfig profile_cache{};  ///< vcpu cache used while profiling
  Paradigm paradigm = Paradigm::OpenMP;
};

/// Wall-clock duration of one Figure-3 pipeline stage. Always recorded (a
/// couple of clock reads per stage); the same numbers also land on the trace
/// sink and in `pipeline.<stage>_us` timers when observability is on.
struct StageTiming {
  std::string stage;
  double wall_ms = 0.0;
};

/// A profiled program: the (compressed) tree plus profiling diagnostics.
struct ProfiledProgram {
  tree::ProgramTree tree;
  tree::CompressStats compression{};
  Cycles profiling_overhead = 0;  ///< profiler self-cost that was excluded
  std::vector<StageTiming> stages;  ///< profile, compress
};

/// The full analysis product.
struct ProphetReport {
  std::vector<CoreCount> thread_counts;
  std::vector<SpeedupEstimate> ff;      ///< fast-forward curve
  std::vector<SpeedupEstimate> synth;   ///< synthesizer curve (with burdens
                                        ///< when the memory model is on)
  /// Full advisor output: configuration search, critical-path profile and
  /// ranked what-if actions (core/advise.hpp).
  Advice advice;
  tree::TreeStats tree_stats;
  double max_burden = 1.0;  ///< largest β over sections × thread counts
  /// Stage timings carried over from profile() plus analyze()'s own stages.
  std::vector<StageTiming> stages;
  /// Registry snapshot taken at the end of analyze() when obs::enabled();
  /// empty (and unprinted) otherwise.
  obs::MetricsSnapshot metrics;

  /// Paper-style human-readable dump (curves, burden note, advice, and —
  /// when recorded — stage timings and the metrics snapshot).
  void print(std::ostream& os) const;
};

class Prophet {
 public:
  explicit Prophet(ProphetConfig config = {});

  /// Runs `program` against a fresh instrumented vcpu under the interval
  /// profiler and returns the compressed tree. The callable must drive its
  /// annotations through the Table-II macros.
  ProfiledProgram profile(
      const std::function<void(vcpu::VirtualCpu&)>& program) const;

  /// Analyzes an already-profiled program: attaches burden factors (if the
  /// memory model is enabled) and computes every curve.
  ProphetReport analyze(ProfiledProgram profiled) const;

  /// profile + analyze in one call.
  ProphetReport run(
      const std::function<void(vcpu::VirtualCpu&)>& program) const;

  const ProphetConfig& config() const { return config_; }

 private:
  PredictOptions predict_options(Method method) const;

  ProphetConfig config_;
};

}  // namespace pprophet::core
