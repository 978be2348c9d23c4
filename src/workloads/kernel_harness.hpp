// Shared scaffolding for annotated benchmark kernels.
//
// Every kernel (OmpSCR / NPB) runs its *real* serial computation against a
// VirtualCpu: array accesses go through the cache simulator, compute is
// metered, and the interval profiler rides the vcpu clock, so each run
// yields (a) a verifiable numerical result and (b) a program tree with
// hardware-counter data on its top-level sections.
//
// Scaled-machine note: the paper profiles NPB class-B inputs (up to 850 MB)
// against a 12 MB LLC. Full class-B footprints are infeasible to simulate
// line-by-line, so the memory-bound kernels run at reduced problem sizes
// against a proportionally reduced LLC, preserving the footprint:LLC ratio
// that determines MPI (the only cache quantity the model consumes). The
// default KernelConfig keeps the full Westmere-like hierarchy; benches pass
// scaled_cache() where the paper used class B.
#pragma once

#include <memory>

#include "annotate/annotations.hpp"
#include "cachesim/cache.hpp"
#include "reuse/collector.hpp"
#include "trace/profiler.hpp"
#include "tree/node.hpp"
#include "util/rng.hpp"
#include "vcpu/vcpu.hpp"

namespace pprophet::workloads {

struct KernelConfig {
  cachesim::CacheConfig cache{};
  vcpu::CostModel cost{};
  trace::ProfilerOptions profiler{.online_compression = true};
  /// Also collect per-section reuse-distance histograms in the same pass
  /// (reuse/collector.hpp), making the resulting tree machine-portable.
  bool collect_reuse = false;
};

/// Cache hierarchy scaled 1:96 from the Westmere machine (12 MB → 128 KB
/// LLC), for kernels whose paper-scale footprint is infeasible to simulate.
cachesim::CacheConfig scaled_cache();

/// Outcome of one profiled kernel run.
struct KernelRun {
  tree::ProgramTree tree;
  double checksum = 0.0;        ///< kernel-specific result digest
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  Cycles cycles = 0;
  /// Line lookups the cache simulator served over the whole run, data
  /// initialization included: the simulation work of the run.
  std::uint64_t cache_accesses = 0;
};

/// Owns the vcpu + profiler plumbing for one kernel execution. The vcpu is
/// live from construction; profiling starts at begin() — kernels call it
/// after data initialization so setup cost does not appear as top-level
/// serial work (NPB and OmpSCR likewise time only the kernel region).
class KernelHarness {
 public:
  explicit KernelHarness(const KernelConfig& cfg = {});

  vcpu::VirtualCpu& cpu() { return *cpu_; }

  /// Starts the profiled region (installs the annotation target).
  void begin();

  /// Finalizes profiling; returns the tree plus profiled-region counters.
  /// Implies begin() if the kernel never called it.
  KernelRun finish(double checksum);

 private:
  KernelConfig cfg_;
  std::unique_ptr<vcpu::VirtualCpu> cpu_;
  std::unique_ptr<vcpu::VcpuCounterSource> counters_;
  std::unique_ptr<reuse::ReuseCollector> reuse_;
  std::unique_ptr<trace::IntervalProfiler> profiler_;
  std::unique_ptr<annotate::ScopedAnnotationTarget> scope_;
  std::uint64_t begin_instructions_ = 0;
  std::uint64_t begin_misses_ = 0;
  Cycles begin_cycles_ = 0;
};

}  // namespace pprophet::workloads
