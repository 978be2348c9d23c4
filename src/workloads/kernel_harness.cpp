#include "workloads/kernel_harness.hpp"

namespace pprophet::workloads {

cachesim::CacheConfig scaled_cache() {
  cachesim::CacheConfig cfg;
  cfg.l1 = {4 * 1024, 4};      // 32 KB / 8
  cfg.l2 = {16 * 1024, 8};     // 256 KB / 16
  cfg.llc = {128 * 1024, 16};  // 12 MB / 96
  return cfg;
}

KernelHarness::KernelHarness(const KernelConfig& cfg) : cfg_(cfg) {
  cpu_ = std::make_unique<vcpu::VirtualCpu>(cfg.cache, cfg.cost);
  if (cfg_.collect_reuse) {
    // Same pass, second consumer of the access stream: the collector rides
    // the vcpu observer hook from construction on, so its recency state
    // includes the kernel's data-initialization accesses — exactly the
    // history that warms the simulated caches before begin(). Windows only
    // open on profiled sections; starting the observer at begin() instead
    // would mislabel init-warmed lines as cold (infinite distance) and
    // over-predict misses on machines whose LLC holds the footprint.
    reuse_ = std::make_unique<reuse::ReuseCollector>(cfg_.cache, cfg_.cost);
    cpu_->set_observer(reuse_.get());
  }
}

void KernelHarness::begin() {
  if (profiler_ != nullptr) return;
  begin_instructions_ = cpu_->instructions();
  begin_misses_ = cpu_->llc_misses();
  begin_cycles_ = cpu_->cycles();
  counters_ = std::make_unique<vcpu::VcpuCounterSource>(*cpu_);
  profiler_ = std::make_unique<trace::IntervalProfiler>(
      cpu_->clock(), counters_.get(), cfg_.profiler);
  if (reuse_ != nullptr) profiler_->set_section_profiler(reuse_.get());
  scope_ = std::make_unique<annotate::ScopedAnnotationTarget>(*profiler_);
}

KernelRun KernelHarness::finish(double checksum) {
  begin();       // no-op if the kernel already began
  scope_.reset();  // detach annotations before finalizing
  KernelRun run;
  run.tree = profiler_->finish();
  if (reuse_ != nullptr) cpu_->set_observer(nullptr);
  run.checksum = checksum;
  run.instructions = cpu_->instructions() - begin_instructions_;
  run.llc_misses = cpu_->llc_misses() - begin_misses_;
  run.cycles = cpu_->cycles() - begin_cycles_;
  run.cache_accesses = cpu_->caches().level(1).accesses;
  return run;
}

}  // namespace pprophet::workloads
