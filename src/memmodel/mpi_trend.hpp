// MPI-trend estimation — the future-work rows of Table IV.
//
// The paper's lightweight model only handles the "MPI does not vary from
// serial to parallel" row, noting that estimating the change "requires an
// expensive memory profiling or cache simulation ... will be investigated
// in our future work" (§V-A, assumption 4). This module is that expensive
// analysis, made optional: while a candidate loop runs serially, it sends
// each line the loop touches, as it arrives, through two what-if cache
// configurations to estimate the *parallel* MPI:
//
//  * serial — the full hierarchy, as the one profiling thread saw it;
//  * parallel — iterations are partitioned over t threads (static,1); each
//    thread gets private L1/L2 (per-core on real silicon) plus a 1/t slice
//    of the machine's aggregate LLC (sockets × LLC — the paper's testbed
//    has two sockets, which is where its super-linear effects come from).
//
// Comparing the two MPIs yields the Table IV row: Par ≫ Ser (per-thread
// slice thrashes on shared data), Par ≅ Ser, or Par ≪ Ser (the aggregate
// LLC absorbs a working set the single socket could not — the super-linear
// case the paper observes on MD/LU but does not model).
#pragma once

#include <optional>
#include <vector>

#include "cachesim/cache.hpp"
#include "memmodel/classify.hpp"
#include "vcpu/vcpu.hpp"

namespace pprophet::memmodel {

struct TrendOptions {
  CoreCount threads = 12;
  std::uint32_t sockets = 2;  ///< LLC replicas contributing aggregate cache
  cachesim::CacheConfig cache{};
};

/// par/ser MPI ratios at and beyond which the trend is Par ≫ Ser / Par ≪ Ser.
inline constexpr double kHigherMpiRatio = 1.5;
inline constexpr double kLowerMpiRatio = 1.0 / 1.5;

struct TrendReport {
  double serial_mpi = 0.0;    ///< misses/access, full hierarchy
  double parallel_mpi = 0.0;  ///< misses/access, sliced what-if hierarchies
  std::uint64_t accesses = 0;  ///< line accesses inside iterations
  MpiTrend trend() const;
};

/// LLC slice for one of `threads` threads on a `sockets`-socket machine:
/// aggregate capacity divided evenly, rounded down to a power-of-two set
/// count (never below one set).
cachesim::CacheConfig slice_llc(const cachesim::CacheConfig& cfg,
                                std::uint32_t sockets, CoreCount threads);

/// Follows one loop (AccessObserver + iteration marks, same protocol as
/// depend::DependenceTracker): loop_begin() builds the serial and
/// per-thread hierarchies, each access inside an iteration goes through
/// them as it arrives, and loop_end() reports the two MPIs.
class MpiTrendAnalyzer final : public vcpu::AccessObserver {
 public:
  MpiTrendAnalyzer(vcpu::VirtualCpu& cpu, TrendOptions options = {});
  ~MpiTrendAnalyzer() override;

  MpiTrendAnalyzer(const MpiTrendAnalyzer&) = delete;
  MpiTrendAnalyzer& operator=(const MpiTrendAnalyzer&) = delete;

  void loop_begin();
  void iteration(std::uint64_t index);
  TrendReport loop_end();

  void on_access(std::uint64_t addr, std::size_t bytes,
                 vcpu::AccessKind kind) override;

 private:
  vcpu::VirtualCpu& cpu_;
  TrendOptions opts_;
  bool active_ = false;
  std::uint64_t current_iter_ = ~0ULL;
  std::optional<cachesim::CacheHierarchy> serial_;
  std::vector<cachesim::CacheHierarchy> per_thread_;
  std::uint64_t accesses_ = 0;
  std::uint64_t parallel_misses_ = 0;
};

}  // namespace pprophet::memmodel
