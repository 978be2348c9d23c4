#include "emul/suitability.hpp"

namespace pprophet::emul {

FfConfig suitability_ff_config(const SuitabilityConfig& cfg) {
  FfConfig ff;
  ff.num_threads = cfg.num_threads;
  // Schedule ignored: the emulator behaves like OpenMP (dynamic,1).
  ff.schedule = runtime::OmpSchedule::Dynamic;
  ff.chunk = 1;
  ff.overheads.fork_base = cfg.fork_overhead;
  ff.overheads.fork_per_thread = 0;
  ff.overheads.join_barrier = cfg.join_overhead;
  ff.overheads.static_dispatch = cfg.per_task_overhead;
  ff.overheads.dynamic_dispatch = cfg.per_task_overhead;
  ff.overheads.lock_acquire = cfg.lock_overhead;
  ff.overheads.lock_release = cfg.lock_overhead;
  ff.apply_burden = false;  // no memory model
  return ff;
}

FfResult emulate_suitability(const tree::CompiledTree& ct,
                             const SuitabilityConfig& cfg) {
  return emulate_ff(ct, suitability_ff_config(cfg));
}

FfResult emulate_suitability_section(const tree::CompiledTree& ct,
                                     std::uint32_t section,
                                     const SuitabilityConfig& cfg) {
  return emulate_ff_section(ct, section, suitability_ff_config(cfg));
}

namespace {

BlockPoint suitability_point(CoreCount threads) {
  BlockPoint p;
  p.threads = threads;
  p.schedule = runtime::OmpSchedule::Dynamic;
  p.chunk = 1;
  p.apply_burden = false;  // no memory model, as in suitability_ff_config
  return p;
}

}  // namespace

SuitabilitySectionBatch::SuitabilitySectionBatch(const tree::CompiledTree& ct,
                                                 std::uint32_t section,
                                                 const SuitabilityConfig& cfg)
    : batch_(ct, section, suitability_ff_config(cfg).overheads) {}

Cycles SuitabilitySectionBatch::evaluate(CoreCount threads) {
  return batch_.evaluate(suitability_point(threads));
}

std::vector<Cycles> SuitabilitySectionBatch::evaluate_block(
    const std::vector<CoreCount>& threads) {
  PointBlock block;
  for (const CoreCount t : threads) block.push_back(suitability_point(t));
  return batch_.evaluate_block(block);
}

}  // namespace pprophet::emul
