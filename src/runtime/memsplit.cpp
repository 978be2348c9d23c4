#include "runtime/memsplit.hpp"

#include <algorithm>
#include <cmath>

namespace pprophet::runtime {

MemSplit split_from_counters(const tree::SectionCounters* counters,
                             Cycles dram_stall_cycles) {
  MemSplit s;
  if (counters == nullptr || counters->cycles == 0) return s;
  const double mem_cycles = static_cast<double>(counters->llc_misses) *
                            static_cast<double>(dram_stall_cycles);
  s.mem_fraction =
      std::min(1.0, mem_cycles / static_cast<double>(counters->cycles));
  s.traffic_mbps = counters->traffic_mbps();
  return s;
}

machine::Op LeafCostModel::leaf_op(Cycles length) const {
  if (mode == Mode::Synth) {
    return machine::Op::exec(synth_scaled_length(length, burden), 0, 0.0);
  }
  const auto mem = static_cast<Cycles>(
      std::llround(static_cast<double>(length) * split.mem_fraction));
  const Cycles compute = length > mem ? length - mem : 0;
  return machine::Op::exec(compute, mem, split.traffic_mbps);
}

}  // namespace pprophet::runtime
