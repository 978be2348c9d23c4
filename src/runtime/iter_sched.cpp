#include "runtime/iter_sched.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace pprophet::runtime {

const char* to_string(OmpSchedule s) {
  switch (s) {
    case OmpSchedule::StaticCyclic: return "static,c";
    case OmpSchedule::StaticBlock: return "static";
    case OmpSchedule::Dynamic: return "dynamic,c";
    case OmpSchedule::Guided: return "guided";
  }
  return "?";
}

namespace {

/// schedule(static, chunk): chunk k goes to thread k mod t; per-rank state
/// is just the next chunk index.
class StaticCyclicScheduler final : public IterScheduler {
 public:
  StaticCyclicScheduler(std::uint64_t n, std::uint32_t t, std::uint64_t chunk)
      : n_(n), t_(t), chunk_(std::max<std::uint64_t>(1, chunk)),
        next_chunk_(t, 0) {
    for (std::uint32_t r = 0; r < t; ++r) next_chunk_[r] = r;
  }

  std::optional<IterRange> next(std::uint32_t rank) override {
    const std::uint64_t k = next_chunk_.at(rank);
    const IterRange r = cyclic_chunk(k, chunk_, n_);
    if (r.size() == 0) return std::nullopt;
    next_chunk_[rank] = k + t_;
    return r;
  }

 private:
  std::uint64_t n_;
  std::uint32_t t_;
  std::uint64_t chunk_;
  std::vector<std::uint64_t> next_chunk_;
};

/// schedule(static): each rank's static_block(), handed out once.
class StaticBlockScheduler final : public IterScheduler {
 public:
  StaticBlockScheduler(std::uint64_t n, std::uint32_t t) : n_(n), t_(t) {}

  std::optional<IterRange> next(std::uint32_t rank) override {
    if (rank >= t_ || given_.size() <= rank) given_.resize(t_, false);
    if (given_[rank]) return std::nullopt;
    given_[rank] = true;
    const IterRange r = static_block(rank, t_, n_);
    if (r.size() == 0) return std::nullopt;
    return r;
  }

 private:
  std::uint64_t n_;
  std::uint32_t t_;
  std::vector<bool> given_;
};

/// schedule(dynamic, chunk) and schedule(guided, chunk): a shared counter,
/// first come first served. Each fetch is a counter_fetch(), so guided
/// chunks start large and shrink to a fine-grained tail — the standard
/// OpenMP guided self-scheduling.
class SharedCounterScheduler final : public IterScheduler {
 public:
  SharedCounterScheduler(OmpSchedule kind, std::uint64_t n, std::uint32_t t,
                         std::uint64_t chunk)
      : kind_(kind), n_(n), t_(t), chunk_(std::max<std::uint64_t>(1, chunk)) {}

  std::optional<IterRange> next(std::uint32_t /*rank*/) override {
    if (next_ >= n_) return std::nullopt;
    const IterRange r = counter_fetch(kind_, chunk_, next_, n_, t_);
    next_ = r.end;
    return r;
  }

 private:
  OmpSchedule kind_;
  std::uint64_t n_;
  std::uint32_t t_;
  std::uint64_t chunk_;
  std::uint64_t next_ = 0;
};

}  // namespace

std::unique_ptr<IterScheduler> make_scheduler(OmpSchedule kind,
                                              std::uint64_t total_iters,
                                              std::uint32_t num_threads,
                                              std::uint64_t chunk) {
  if (num_threads == 0) {
    throw std::invalid_argument("scheduler needs >= 1 thread");
  }
  switch (kind) {
    case OmpSchedule::StaticCyclic:
      return std::make_unique<StaticCyclicScheduler>(total_iters, num_threads,
                                                     chunk);
    case OmpSchedule::StaticBlock:
      return std::make_unique<StaticBlockScheduler>(total_iters, num_threads);
    case OmpSchedule::Dynamic:
    case OmpSchedule::Guided:
      return std::make_unique<SharedCounterScheduler>(kind, total_iters,
                                                      num_threads, chunk);
  }
  throw std::invalid_argument("unknown schedule kind");
}

}  // namespace pprophet::runtime
