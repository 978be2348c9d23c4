// Lock-free log-bucketed latency histogram (HDR-style) — the quantile
// substrate behind the serve-path tail-latency telemetry and the `stats`
// endpoint (docs/OBSERVABILITY.md).
//
// Layout: log-linear buckets. Values below 64 land in unit-width buckets
// (exact); above that, each power-of-two range splits into 64 linear
// sub-buckets, so any recorded value's bucket is at most 1/64 ≈ 1.6% wide
// relative to the value. quantile() reports bucket midpoints, bounding the
// relative error at ~0.8% (documented as "≤ 2%" — the guarantee the serve
// stats tests assert against a sorted reference).
//
// Concurrency: record() is wait-free — one relaxed fetch_add on the bucket
// plus the count/total/min/max atomics (same discipline as obs::Timer), so
// per-request recording from every connection/worker thread needs no lock.
// merge() adds another histogram's buckets in, which is how per-thread
// histograms collapse into one (say, one per client thread of a load
// generator) and how sharded registries would aggregate.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace pprophet::obs {

/// Point-in-time copy of a Histogram: exact count/total/min/max plus the
/// (sparse) bucket occupancy. Quantiles are computed here, off the hot
/// path, so a snapshot taken once can answer any number of percentile
/// queries.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t total = 0;  ///< exact sum of recorded values
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  /// Occupied buckets only, sorted by bucket index.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total) / static_cast<double>(count);
  }

  /// Value at quantile `p` in [0, 1]: the midpoint of the bucket holding
  /// the ceil(p * count)-th sample, clamped into [min, max] so exact
  /// endpoints stay exact. Returns 0 on an empty histogram.
  std::uint64_t quantile(double p) const;

  /// Adds `other`'s samples into this snapshot (bucket-wise sum; min/max/
  /// count/total folded). Merging snapshots of two histograms is exactly
  /// equivalent to having recorded every sample into one histogram.
  void merge(const HistogramSnapshot& other);
};

class Histogram {
 public:
  /// 64 linear sub-buckets per power of two → ≤ 1/64 relative bucket width.
  static constexpr std::uint32_t kSubBits = 6;
  static constexpr std::uint32_t kSubCount = 1u << kSubBits;
  /// Bucket indexes are < (64 - kSubBits + 1) * kSubCount.
  static constexpr std::uint32_t kBucketCount = (64 - kSubBits + 1) * kSubCount;

  /// Maps a value to its bucket index. Exact for v < kSubCount.
  static std::uint32_t bucket_index(std::uint64_t v);
  /// Inclusive lower bound of bucket `i`.
  static std::uint64_t bucket_lower(std::uint32_t i);
  /// Width of bucket `i` (1 for the exact range).
  static std::uint64_t bucket_width(std::uint32_t i);
  /// Midpoint of bucket `i` — what quantile() reports.
  static std::uint64_t bucket_mid(std::uint32_t i) {
    return bucket_lower(i) + bucket_width(i) / 2;
  }

  Histogram();

  /// Wait-free sample recording; safe from any thread.
  void record(std::uint64_t v);

  /// Folds `other`'s current contents into this histogram (relaxed reads of
  /// `other`; concurrent recording on either side stays safe, the merge is
  /// then a moment-in-time sum like snapshot()).
  void merge(const Histogram& other);

  HistogramSnapshot snapshot() const;

  /// Convenience: quantile over a fresh snapshot.
  std::uint64_t quantile(double p) const { return snapshot().quantile(p); }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
  std::vector<std::atomic<std::uint64_t>> buckets_;
};

}  // namespace pprophet::obs
