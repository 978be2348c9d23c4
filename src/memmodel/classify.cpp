#include "memmodel/classify.hpp"

#include "memmodel/burden.hpp"

namespace pprophet::memmodel {

const char* to_string(TrafficLevel v) {
  switch (v) {
    case TrafficLevel::Low: return "Low";
    case TrafficLevel::Moderate: return "Moderate";
    case TrafficLevel::Heavy: return "Heavy";
  }
  return "?";
}

const char* to_string(MpiTrend v) {
  switch (v) {
    case MpiTrend::ParallelHigher: return "Par >> Ser";
    case MpiTrend::Unchanged: return "Par ~= Ser";
    case MpiTrend::ParallelLower: return "Par << Ser";
  }
  return "?";
}

const char* to_string(ExpectedSpeedup v) {
  switch (v) {
    case ExpectedSpeedup::LikelyScalable: return "Likely scalable";
    case ExpectedSpeedup::Scalable: return "Scalable";
    case ExpectedSpeedup::ScalableOrSuperlinear:
      return "Scalable or superlinear";
    case ExpectedSpeedup::Slowdown: return "Slowdown";
    case ExpectedSpeedup::SlowdownPlus: return "Slowdown+";
    case ExpectedSpeedup::SlowdownPlusPlus: return "Slowdown++";
    case ExpectedSpeedup::Unmodeled: return "-";
  }
  return "?";
}

TrafficLevel traffic_level(const tree::SectionCounters& counters,
                           const machine::MachineConfig& machine) {
  if (counters.mpi() < BurdenOptions{}.mpi_floor) return TrafficLevel::Low;
  const double traffic = counters.traffic_mbps();
  const double saturation = machine.bandwidth.saturation_mbps;
  if (traffic < kLowTrafficFraction * saturation) return TrafficLevel::Low;
  if (traffic < kHeavyTrafficFraction * saturation) {
    return TrafficLevel::Moderate;
  }
  return TrafficLevel::Heavy;
}

ExpectedSpeedup classify(MpiTrend trend, TrafficLevel level) {
  // Table IV, cell by cell.
  switch (trend) {
    case MpiTrend::ParallelHigher:
      switch (level) {
        case TrafficLevel::Low: return ExpectedSpeedup::LikelyScalable;
        case TrafficLevel::Moderate: return ExpectedSpeedup::SlowdownPlus;
        case TrafficLevel::Heavy: return ExpectedSpeedup::SlowdownPlusPlus;
      }
      break;
    case MpiTrend::Unchanged:
      switch (level) {
        case TrafficLevel::Low: return ExpectedSpeedup::Scalable;
        case TrafficLevel::Moderate: return ExpectedSpeedup::Slowdown;
        case TrafficLevel::Heavy: return ExpectedSpeedup::SlowdownPlusPlus;
      }
      break;
    case MpiTrend::ParallelLower:
      switch (level) {
        case TrafficLevel::Low:
          return ExpectedSpeedup::ScalableOrSuperlinear;
        case TrafficLevel::Moderate:
        case TrafficLevel::Heavy:
          return ExpectedSpeedup::Unmodeled;
      }
      break;
  }
  return ExpectedSpeedup::Unmodeled;
}

ExpectedSpeedup classify_serial(const tree::SectionCounters& counters,
                                const machine::MachineConfig& machine) {
  return classify(MpiTrend::Unchanged, traffic_level(counters, machine));
}

}  // namespace pprophet::memmodel
