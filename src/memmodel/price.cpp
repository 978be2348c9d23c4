#include "memmodel/price.hpp"

#include "memmodel/burden.hpp"
#include "memmodel/calibration.hpp"

namespace pprophet::memmodel {

void price_burdens(tree::ProgramTree& tree,
                   const machine::MachineConfig& machine, Cycles dram_stall,
                   std::span<const CoreCount> thread_counts) {
  CalibrationOptions copts;
  copts.machine = machine;
  copts.dram_stall = dram_stall;
  annotate_burdens(tree, BurdenModel(calibrate(copts)), thread_counts);
}

}  // namespace pprophet::memmodel
