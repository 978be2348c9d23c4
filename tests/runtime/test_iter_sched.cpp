#include "runtime/iter_sched.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace pprophet::runtime {
namespace {

// Collects every index rank r receives.
std::vector<std::uint64_t> drain(IterScheduler& s, std::uint32_t rank) {
  std::vector<std::uint64_t> out;
  while (auto r = s.next(rank)) {
    for (std::uint64_t i = r->begin; i < r->end; ++i) out.push_back(i);
  }
  return out;
}

TEST(StaticCyclic, Chunk1RoundRobin) {
  auto s = make_scheduler(OmpSchedule::StaticCyclic, 7, 3, 1);
  EXPECT_EQ(drain(*s, 0), (std::vector<std::uint64_t>{0, 3, 6}));
  EXPECT_EQ(drain(*s, 1), (std::vector<std::uint64_t>{1, 4}));
  EXPECT_EQ(drain(*s, 2), (std::vector<std::uint64_t>{2, 5}));
}

TEST(StaticCyclic, Chunk2RoundRobin) {
  auto s = make_scheduler(OmpSchedule::StaticCyclic, 10, 2, 2);
  EXPECT_EQ(drain(*s, 0), (std::vector<std::uint64_t>{0, 1, 4, 5, 8, 9}));
  EXPECT_EQ(drain(*s, 1), (std::vector<std::uint64_t>{2, 3, 6, 7}));
}

TEST(StaticBlock, EvenPartition) {
  auto s = make_scheduler(OmpSchedule::StaticBlock, 8, 4, 0);
  EXPECT_EQ(drain(*s, 0), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(drain(*s, 3), (std::vector<std::uint64_t>{6, 7}));
}

TEST(StaticBlock, RemainderGoesToLowRanks) {
  auto s = make_scheduler(OmpSchedule::StaticBlock, 10, 4, 0);
  EXPECT_EQ(drain(*s, 0), (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(drain(*s, 1), (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(drain(*s, 2), (std::vector<std::uint64_t>{6, 7}));
  EXPECT_EQ(drain(*s, 3), (std::vector<std::uint64_t>{8, 9}));
}

TEST(StaticBlock, MoreThreadsThanIterations) {
  auto s = make_scheduler(OmpSchedule::StaticBlock, 2, 4, 0);
  EXPECT_EQ(drain(*s, 0).size(), 1u);
  EXPECT_EQ(drain(*s, 1).size(), 1u);
  EXPECT_TRUE(drain(*s, 2).empty());
  EXPECT_TRUE(drain(*s, 3).empty());
}

TEST(Dynamic, FirstComeFirstServed) {
  auto s = make_scheduler(OmpSchedule::Dynamic, 5, 3, 1);
  // Interleaved requests: whoever asks gets the next index.
  EXPECT_EQ(s->next(2)->begin, 0u);
  EXPECT_EQ(s->next(0)->begin, 1u);
  EXPECT_EQ(s->next(2)->begin, 2u);
  EXPECT_EQ(s->next(1)->begin, 3u);
  EXPECT_EQ(s->next(0)->begin, 4u);
  EXPECT_FALSE(s->next(0).has_value());
}

TEST(Dynamic, ChunkedHandout) {
  auto s = make_scheduler(OmpSchedule::Dynamic, 7, 2, 3);
  const auto r0 = s->next(0);
  EXPECT_EQ(r0->size(), 3u);
  const auto r1 = s->next(1);
  EXPECT_EQ(r1->size(), 3u);
  const auto r2 = s->next(0);
  EXPECT_EQ(r2->size(), 1u);  // remainder
  EXPECT_FALSE(s->next(1).has_value());
}

TEST(Guided, ChunksShrinkTowardsTheTail) {
  auto s = make_scheduler(OmpSchedule::Guided, 100, 4, 1);
  std::vector<std::uint64_t> sizes;
  while (auto r = s->next(0)) sizes.push_back(r->size());
  ASSERT_GE(sizes.size(), 4u);
  EXPECT_EQ(sizes.front(), 25u);  // remaining/t = 100/4
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i], sizes[i - 1]);
  }
  EXPECT_EQ(sizes.back(), 1u);
}

TEST(Guided, RespectsMinimumChunk) {
  auto s = make_scheduler(OmpSchedule::Guided, 40, 4, 8);
  while (auto r = s->next(1)) {
    // Every chunk except possibly the last is at least the minimum.
    if (r->end < 40) {
      EXPECT_GE(r->size(), 8u);
    }
  }
}

TEST(Guided, SharedAcrossRanks) {
  auto s = make_scheduler(OmpSchedule::Guided, 64, 2, 1);
  const auto a = s->next(0);
  const auto b = s->next(1);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->end, b->begin);  // one shared stream
}

TEST(AllSchedulers, CoverEveryIterationExactlyOnce) {
  for (const OmpSchedule kind : {OmpSchedule::StaticCyclic,
                                 OmpSchedule::StaticBlock,
                                 OmpSchedule::Dynamic,
                                 OmpSchedule::Guided}) {
    for (const std::uint64_t n : {0ull, 1ull, 5ull, 64ull, 1000ull}) {
      for (const std::uint32_t t : {1u, 2u, 7u, 12u}) {
        auto s = make_scheduler(kind, n, t, 2);
        std::vector<int> seen(n, 0);
        for (std::uint32_t r = 0; r < t; ++r) {
          for (const std::uint64_t i : drain(*s, r)) {
            ASSERT_LT(i, n);
            seen[i]++;
          }
        }
        const int total = std::accumulate(seen.begin(), seen.end(), 0);
        EXPECT_EQ(static_cast<std::uint64_t>(total), n)
            << to_string(kind) << " n=" << n << " t=" << t;
        for (const int c : seen) EXPECT_EQ(c, 1);
      }
    }
  }
}

TEST(MakeScheduler, RejectsZeroThreads) {
  EXPECT_THROW(make_scheduler(OmpSchedule::Dynamic, 5, 0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace pprophet::runtime
