#include "memmodel/mpi_trend.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "util/fnv.hpp"

namespace pprophet::memmodel {
namespace {

// Small cache so working sets stay test-sized: 16 KB LLC, 2 KB L1, 4 KB L2.
cachesim::CacheConfig tiny_cache() {
  cachesim::CacheConfig cfg;
  cfg.l1 = {2 * 1024, 2};
  cfg.l2 = {4 * 1024, 4};
  cfg.llc = {16 * 1024, 4};
  return cfg;
}

TrendOptions tiny_options(CoreCount threads = 4, std::uint32_t sockets = 2) {
  TrendOptions o;
  o.threads = threads;
  o.sockets = sockets;
  o.cache = tiny_cache();
  return o;
}

TEST(SliceLlc, DividesAggregateCapacity) {
  const auto sliced = slice_llc(tiny_cache(), /*sockets=*/2, /*threads=*/4);
  // 16 KB × 2 sockets / 4 threads = 8 KB, set count stays a power of two.
  EXPECT_EQ(sliced.llc.size_bytes, 8u * 1024u);
  EXPECT_EQ(sliced.l1.size_bytes, tiny_cache().l1.size_bytes);  // private
}

TEST(SliceLlc, RoundsDownToPowerOfTwoSets) {
  const auto sliced = slice_llc(tiny_cache(), 2, 3);  // 32/3 KB: not pow2
  const std::uint64_t sets =
      sliced.llc.size_bytes / sliced.line_bytes / sliced.llc.associativity;
  EXPECT_EQ(sets & (sets - 1), 0u);
  EXPECT_GE(sets, 1u);
}

TEST(SliceLlc, NeverBelowOneSet) {
  const auto sliced = slice_llc(tiny_cache(), 1, 10'000);
  EXPECT_GE(sliced.llc.size_bytes,
            sliced.line_bytes * sliced.llc.associativity);
}

class MpiTrendTest : public ::testing::Test {
 protected:
  vcpu::VirtualCpu cpu{tiny_cache()};
};

TEST_F(MpiTrendTest, StreamingHugeArrayIsUnchanged) {
  // Working set >> aggregate LLC: every replay misses, serial or parallel.
  vcpu::InstrumentedArray<double> a(cpu, 64 * 1024);  // 512 KB
  MpiTrendAnalyzer tr(cpu, tiny_options());
  tr.loop_begin();
  for (std::uint64_t i = 0; i < a.size(); ++i) {
    tr.iteration(i / 512);  // 128 chunky, line-aligned iterations
    a.set(i, 1.0);
  }
  const TrendReport r = tr.loop_end();
  EXPECT_GT(r.serial_mpi, 0.05);
  EXPECT_EQ(r.trend(), MpiTrend::Unchanged);
}

TEST_F(MpiTrendTest, ElementCyclicPartitionIsFalseSharing) {
  // The same streaming loop split element-cyclically: every cache line is
  // touched by every thread, so the parallel replay multiplies the misses —
  // the analyzer flags the Par >> Ser row (a false-sharing-style hazard
  // that the static,1 element split would create).
  vcpu::InstrumentedArray<double> a(cpu, 16 * 1024);
  MpiTrendAnalyzer tr(cpu, tiny_options());
  tr.loop_begin();
  for (std::uint64_t i = 0; i < a.size(); ++i) {
    tr.iteration(i);  // one element per iteration -> cyclic over threads
    a.set(i, 1.0);
  }
  const TrendReport r = tr.loop_end();
  EXPECT_EQ(r.trend(), MpiTrend::ParallelHigher);
}

TEST_F(MpiTrendTest, AggregateCacheGrowthGivesParallelLower) {
  // Working set ~24 KB: misses the 16 KB serial LLC every pass, but fits
  // the 32 KB aggregate of two sockets when split across threads.
  vcpu::InstrumentedArray<double> a(cpu, 3 * 1024);  // 24 KB
  MpiTrendAnalyzer tr(cpu, tiny_options(/*threads=*/2));
  tr.loop_begin();
  const std::uint64_t iters = 16;
  const std::size_t per_iter = a.size() / iters;
  for (int pass = 0; pass < 6; ++pass) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      tr.iteration(i);  // iteration i always touches its own block
      for (std::size_t k = 0; k < per_iter; ++k) {
        a.update(i * per_iter + k, [](double v) { return v + 1; });
      }
    }
  }
  const TrendReport r = tr.loop_end();
  EXPECT_GT(r.serial_mpi, 0.02);  // serial LLC thrashes
  EXPECT_LT(r.parallel_mpi, r.serial_mpi * 0.7);
  EXPECT_EQ(r.trend(), MpiTrend::ParallelLower);
}

TEST_F(MpiTrendTest, SharedDataThrashingGivesParallelHigher) {
  // Working set 12 KB: fits the serial 16 KB LLC, but every thread touches
  // ALL of it while owning only a 4 KB slice (2×16/8) → parallel thrash.
  vcpu::InstrumentedArray<double> table(cpu, 1536);  // 12 KB
  MpiTrendAnalyzer tr(cpu, tiny_options(/*threads=*/8));
  tr.loop_begin();
  for (int pass = 0; pass < 8; ++pass) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      tr.iteration(i);
      for (std::size_t k = 0; k < table.size(); k += 8) {
        (void)table.get(k);  // whole-table scan per iteration
      }
    }
  }
  const TrendReport r = tr.loop_end();
  EXPECT_GT(r.parallel_mpi, r.serial_mpi * 1.5);
  EXPECT_EQ(r.trend(), MpiTrend::ParallelHigher);
}

TEST_F(MpiTrendTest, TrendFeedsTableIvClassification) {
  TrendReport lower;
  lower.serial_mpi = 0.1;
  lower.parallel_mpi = 0.01;
  EXPECT_EQ(classify(lower.trend(), TrafficLevel::Low),
            ExpectedSpeedup::ScalableOrSuperlinear);
  TrendReport higher;
  higher.serial_mpi = 0.01;
  higher.parallel_mpi = 0.1;
  EXPECT_EQ(classify(higher.trend(), TrafficLevel::Heavy),
            ExpectedSpeedup::SlowdownPlusPlus);
}

// Synthetic loops fed straight to on_access (no host heap address is
// involved): each calls `touch(iteration, address, bytes)` per access.
using Touch = std::function<void(std::uint64_t, std::uint64_t, std::size_t)>;
using Loop = std::function<void(const Touch&)>;

std::vector<Loop> synthetic_loops() {
  constexpr std::uint64_t kBase = 1ULL << 32;
  return {
      // Streaming 512 KB in 8-byte elements, 128 chunky iterations.
      [](const Touch& touch) {
        for (std::uint64_t i = 0; i < 64 * 1024; ++i) {
          touch(i / 512, kBase + 8 * i, 8);
        }
      },
      // One element per iteration: every line shared by every thread.
      [](const Touch& touch) {
        for (std::uint64_t i = 0; i < 16 * 1024; ++i) {
          touch(i, kBase + 8 * i, 8);
        }
      },
      // 24 KB in 16 blocks, six passes, each iteration on its own block.
      [](const Touch& touch) {
        for (int pass = 0; pass < 6; ++pass) {
          for (std::uint64_t i = 0; i < 16; ++i) {
            for (std::uint64_t k = 0; k < 192; ++k) {
              touch(i, kBase + 8 * (i * 192 + k), 8);
            }
          }
        }
      },
      // Every iteration scans one shared 12 KB table.
      [](const Touch& touch) {
        for (int pass = 0; pass < 8; ++pass) {
          for (std::uint64_t i = 0; i < 32; ++i) {
            for (std::uint64_t k = 0; k < 1536; k += 8) {
              touch(i, kBase + 8 * k, 8);
            }
          }
        }
      },
      // 16 MB by lines in 48 blocks, two passes: beyond one 12 MB LLC,
      // within the aggregate of two.
      [](const Touch& touch) {
        constexpr std::uint64_t kLines = (16ULL << 20) / 64;
        for (int pass = 0; pass < 2; ++pass) {
          for (std::uint64_t l = 0; l < kLines; ++l) {
            touch(l / (kLines / 48), kBase + 64 * l, 64);
          }
        }
      },
      // Pseudo-random accesses of 0–200 bytes over 4 MB, some crossing
      // lines, with an access before the first iteration mark.
      [](const Touch& touch) {
        touch(~0ULL, kBase, 8);
        std::uint64_t x = 12345;
        for (std::uint64_t k = 0; k < 30'000; ++k) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
          touch(k / 37, kBase + ((x >> 20) & ((4ULL << 20) - 1)),
                static_cast<std::size_t>((x >> 8) % 201));
        }
      },
  };
}

// Pins serial MPI, parallel MPI and the access count of every synthetic
// loop under a tiny and the default hierarchy.
TEST_F(MpiTrendTest, SyntheticStreamDigest) {
  TrendOptions defaults;
  defaults.threads = 12;
  defaults.sockets = 2;
  util::Fnv64 h;
  for (const TrendOptions& opts : {tiny_options(8, 2), defaults}) {
    for (const Loop& loop : synthetic_loops()) {
      MpiTrendAnalyzer tr(cpu, opts);
      tr.loop_begin();
      loop([&tr](std::uint64_t iter, std::uint64_t addr, std::size_t bytes) {
        if (iter != ~0ULL) tr.iteration(iter);
        tr.on_access(addr, bytes, vcpu::AccessKind::Read);
      });
      const TrendReport r = tr.loop_end();
      h.f64(r.serial_mpi);
      h.f64(r.parallel_mpi);
      h.u64(r.accesses);
    }
  }
  EXPECT_EQ(h.h, 0x91d6a7d7c46bf34cULL);
}

TEST_F(MpiTrendTest, EmptyLoopIsHarmless) {
  MpiTrendAnalyzer tr(cpu, tiny_options());
  tr.loop_begin();
  const TrendReport r = tr.loop_end();
  EXPECT_EQ(r.accesses, 0u);
  EXPECT_EQ(r.trend(), MpiTrend::Unchanged);
}

TEST_F(MpiTrendTest, MisuseThrows) {
  MpiTrendAnalyzer tr(cpu, tiny_options());
  EXPECT_THROW(tr.iteration(0), std::logic_error);
  EXPECT_THROW(tr.loop_end(), std::logic_error);
  tr.loop_begin();
  EXPECT_THROW(tr.loop_begin(), std::logic_error);
}

}  // namespace
}  // namespace pprophet::memmodel
