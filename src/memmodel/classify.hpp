// Table IV: expected-speedup classification based on memory behaviour.
//
// Rows are the trend of LLC misses/instruction from serial to parallel
// (the paper only models the "does not vary" row — lightweight profiling
// cannot see the parallel MPI without running parallel code); columns are
// the observed serial memory traffic level.
#pragma once

#include <string>

#include "machine/machine.hpp"
#include "tree/node.hpp"

namespace pprophet::memmodel {

enum class TrafficLevel : std::uint8_t { Low, Moderate, Heavy };

enum class MpiTrend : std::uint8_t {
  ParallelHigher,   ///< Par ≫ Ser (e.g. false sharing)
  Unchanged,        ///< Par ≅ Ser — the row Parallel Prophet models
  ParallelLower,    ///< Par ≪ Ser (aggregate cache grows)
};

enum class ExpectedSpeedup : std::uint8_t {
  LikelyScalable,
  Scalable,
  ScalableOrSuperlinear,
  Slowdown,
  SlowdownPlus,
  SlowdownPlusPlus,
  Unmodeled,  ///< cells the paper leaves for future work ("-")
};

const char* to_string(TrafficLevel v);
const char* to_string(MpiTrend v);
const char* to_string(ExpectedSpeedup v);

/// Serial traffic below this fraction of the machine's saturation bandwidth
/// is Low; at or above `kHeavyTrafficFraction` it is Heavy.
inline constexpr double kLowTrafficFraction = 0.15;
inline constexpr double kHeavyTrafficFraction = 0.60;

/// Sections below the burden model's MPI floor (assumption 5) are Low
/// whatever their traffic.
TrafficLevel traffic_level(const tree::SectionCounters& counters,
                           const machine::MachineConfig& machine);

/// The full Table IV cell lookup.
ExpectedSpeedup classify(MpiTrend trend, TrafficLevel level);

/// The lightweight-profiling entry point: assumes the Unchanged row.
ExpectedSpeedup classify_serial(const tree::SectionCounters& counters,
                                const machine::MachineConfig& machine);

}  // namespace pprophet::memmodel
