// OpenMP loop-iteration schedulers (paper Figure 5: precise modelling of
// scheduling policies is essential for accurate prediction).
//
// Supported policies, matching the paper's experiments:
//   schedule(static,1)  — cyclic, chunk 1
//   schedule(static)    — one contiguous block per thread
//   schedule(dynamic,1) — shared-counter first-come-first-served, chunk 1
// plus generalized chunk sizes, and schedule(guided) as an extension (the
// paper's framework supports any policy the scheduler interface can
// express; guided is the obvious next OpenMP policy). The FF's engines
// call the same range arithmetic below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace pprophet::runtime {

enum class OmpSchedule : std::uint8_t {
  StaticCyclic,  ///< schedule(static, chunk) with round-robin chunks
  StaticBlock,   ///< schedule(static) — default block partition
  Dynamic,       ///< schedule(dynamic, chunk)
  Guided,        ///< schedule(guided, chunk): shrinking shared chunks
};

const char* to_string(OmpSchedule s);

/// Half-open range of logical iteration indices.
struct IterRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t size() const { return end - begin; }
};

/// schedule(static, chunk): chunk k covers [k·chunk, k·chunk + chunk),
/// clipped to n; empty once k·chunk reaches n. Chunk k goes to rank k mod t.
inline IterRange cyclic_chunk(std::uint64_t k, std::uint64_t chunk,
                              std::uint64_t n) {
  const std::uint64_t begin = std::min(n, k * chunk);
  return IterRange{begin, std::min(n, begin + chunk)};
}

/// schedule(static): the one contiguous block of `rank`, sized as OpenMP
/// implementations do (the first n % t ranks get one extra iteration).
inline IterRange static_block(std::uint32_t rank, std::uint32_t t,
                              std::uint64_t n) {
  const std::uint64_t base = n / t;
  const std::uint64_t extra = n % t;
  const std::uint64_t begin =
      rank * base + std::min<std::uint64_t>(rank, extra);
  return IterRange{begin, begin + base + (rank < extra ? 1 : 0)};
}

/// schedule(dynamic|guided, chunk): the range one shared-counter fetch
/// takes while the counter stands at `next` < n. Dynamic takes `chunk`
/// iterations; guided takes (n - next)/t of them, at least `chunk`.
inline IterRange counter_fetch(OmpSchedule kind, std::uint64_t chunk,
                               std::uint64_t next, std::uint64_t n,
                               std::uint32_t t) {
  const std::uint64_t take =
      kind == OmpSchedule::Guided ? std::max(chunk, (n - next) / t) : chunk;
  return IterRange{next, std::min(n, next + take)};
}

/// Calls f(rank, range) for every non-empty range a static policy
/// (static-cyclic with chunk >= 1, or static block) pre-assigns: rank by
/// rank, each rank's ranges in the order its scheduler hands them out.
template <class F>
void for_each_static_range(OmpSchedule kind, std::uint64_t n, std::uint32_t t,
                           std::uint64_t chunk, F&& f) {
  for (std::uint32_t rank = 0; rank < t; ++rank) {
    if (kind == OmpSchedule::StaticBlock) {
      const IterRange r = static_block(rank, t, n);
      if (r.size() != 0) f(rank, r);
      continue;
    }
    for (std::uint64_t k = rank;; k += t) {
      const IterRange r = cyclic_chunk(k, chunk, n);
      if (r.size() == 0) break;
      f(rank, r);
    }
  }
}

/// Hands out iteration ranges to team members. Not thread-safe in the native
/// sense — all calls happen at DES instants.
class IterScheduler {
 public:
  virtual ~IterScheduler() = default;
  /// Next chunk for team member `rank`, or nullopt when the member is done.
  virtual std::optional<IterRange> next(std::uint32_t rank) = 0;
};

std::unique_ptr<IterScheduler> make_scheduler(OmpSchedule kind,
                                              std::uint64_t total_iters,
                                              std::uint32_t num_threads,
                                              std::uint64_t chunk);

}  // namespace pprophet::runtime
