#include "memmodel/mpi_trend.hpp"

#include <bit>
#include <stdexcept>

namespace pprophet::memmodel {

MpiTrend TrendReport::trend() const {
  if (serial_mpi <= 0.0) {
    // A loop with no serial misses that gains them in parallel is the
    // "higher" row; otherwise there is nothing to compare.
    return parallel_mpi > 0.001 ? MpiTrend::ParallelHigher
                                : MpiTrend::Unchanged;
  }
  const double ratio = parallel_mpi / serial_mpi;
  if (ratio >= kHigherMpiRatio) return MpiTrend::ParallelHigher;
  if (ratio <= kLowerMpiRatio) return MpiTrend::ParallelLower;
  return MpiTrend::Unchanged;
}

cachesim::CacheConfig slice_llc(const cachesim::CacheConfig& cfg,
                                std::uint32_t sockets, CoreCount threads) {
  cachesim::CacheConfig out = cfg;
  const std::uint64_t lines = cfg.llc.size_bytes / cfg.line_bytes;
  const std::uint64_t sets = lines / cfg.llc.associativity;
  const std::uint64_t scaled =
      sets * sockets / std::max<std::uint64_t>(1, threads);
  const std::uint64_t slice_sets = std::max<std::uint64_t>(
      1, std::bit_floor(std::max<std::uint64_t>(1, scaled)));
  out.llc.size_bytes = slice_sets * cfg.llc.associativity * cfg.line_bytes;
  return out;
}

MpiTrendAnalyzer::MpiTrendAnalyzer(vcpu::VirtualCpu& cpu, TrendOptions options)
    : cpu_(cpu), opts_(options) {
  cpu_.set_observer(this);
}

MpiTrendAnalyzer::~MpiTrendAnalyzer() { cpu_.set_observer(nullptr); }

void MpiTrendAnalyzer::loop_begin() {
  if (active_) throw std::logic_error("MpiTrendAnalyzer: loops may not nest");
  active_ = true;
  current_iter_ = ~0ULL;
  accesses_ = 0;
  parallel_misses_ = 0;
  // Serial: the single profiling thread with the full hierarchy. Parallel
  // what-if: iterations partitioned (static,1) across threads, each thread
  // with private L1/L2 and an LLC slice of the aggregate capacity.
  serial_.emplace(opts_.cache);
  const cachesim::CacheConfig sliced =
      slice_llc(opts_.cache, opts_.sockets, opts_.threads);
  per_thread_.clear();
  per_thread_.reserve(opts_.threads);
  for (CoreCount t = 0; t < opts_.threads; ++t) {
    per_thread_.emplace_back(sliced);
  }
}

void MpiTrendAnalyzer::iteration(std::uint64_t index) {
  if (!active_) {
    throw std::logic_error("MpiTrendAnalyzer: iteration outside a loop");
  }
  current_iter_ = index;
}

void MpiTrendAnalyzer::on_access(std::uint64_t addr, std::size_t bytes,
                                 vcpu::AccessKind /*kind*/) {
  if (!active_ || current_iter_ == ~0ULL) return;
  constexpr std::uint64_t kLineShift = 6;  // 64-byte lines
  const std::uint64_t first = addr >> kLineShift;
  const std::uint64_t last =
      (addr + (bytes == 0 ? 0 : bytes - 1)) >> kLineShift;
  cachesim::CacheHierarchy& owner =
      per_thread_[static_cast<std::size_t>(current_iter_ % opts_.threads)];
  for (std::uint64_t line = first; line <= last; ++line) {
    serial_->access(line << kLineShift);
    if (owner.access(line << kLineShift) == cachesim::CacheHierarchy::kDram) {
      ++parallel_misses_;
    }
    ++accesses_;
  }
}

TrendReport MpiTrendAnalyzer::loop_end() {
  if (!active_) {
    throw std::logic_error("MpiTrendAnalyzer: loop_end without loop_begin");
  }
  active_ = false;
  TrendReport report;
  report.accesses = accesses_;
  if (accesses_ > 0) {
    report.serial_mpi = static_cast<double>(serial_->llc_misses()) /
                        static_cast<double>(accesses_);
    report.parallel_mpi = static_cast<double>(parallel_misses_) /
                          static_cast<double>(accesses_);
  }
  serial_.reset();
  per_thread_.clear();
  return report;
}

}  // namespace pprophet::memmodel
