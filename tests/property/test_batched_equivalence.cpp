// Differential harness for the batched evaluation path: the batched
// FF/Suitability evaluators and core::sweep_points must be bit-identical to
// the scalar engines on random trees, across method × paradigm × schedule ×
// chunk × thread count × memory model — including block sizes that do not
// divide the grid and degenerate 1-point blocks.
//
// Failures print the generator seed (PPROPHET_TEST_SEED replays it) and a
// dump of the offending tree via seed_trace().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/prophet.hpp"
#include "core/sweep.hpp"
#include "emul/ff.hpp"
#include "emul/suitability.hpp"
#include "machine/timeline.hpp"
#include "random_trees.hpp"
#include "tree/compile.hpp"
#include "util/fnv.hpp"

namespace pprophet::emul {
namespace {

using runtime::OmpSchedule;
using tree::CompiledTree;
using tree::ProgramTree;

constexpr OmpSchedule kSchedules[] = {
    OmpSchedule::StaticCyclic, OmpSchedule::StaticBlock, OmpSchedule::Dynamic,
    OmpSchedule::Guided};
constexpr CoreCount kThreads[] = {1, 2, 3, 4, 7};
constexpr std::uint64_t kChunks[] = {0, 1, 2, 5};

/// Random trees carry no burden tables; synthesize one per section so the
/// apply_burden dimension exercises real β ≠ 1 scaling.
ProgramTree burdened_random_tree(std::uint64_t seed) {
  ProgramTree t = tree::random_tree(seed);
  util::Xoshiro256 rng(seed ^ 0xbeefULL);
  for (const auto& child : t.root->children()) {
    if (child->kind() != tree::NodeKind::Sec) continue;
    for (const CoreCount threads : kThreads) {
      child->set_burden(threads,
                        1.0 + 2.0 * rng.uniform_double());
    }
  }
  return t;
}

class BatchedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchedEquivalence, FfSectionMatchesScalar) {
  const std::uint64_t seed = tree::property_seed(GetParam());
  const ProgramTree t = burdened_random_tree(seed);
  SCOPED_TRACE(tree::seed_trace(seed, t));
  const CompiledTree ct = CompiledTree::compile(t);

  const runtime::OmpOverheads ov{};
  for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
    FfSectionBatch batch(ct, s, ov);
    for (const OmpSchedule sched : kSchedules) {
      for (const CoreCount threads : kThreads) {
        for (const std::uint64_t chunk : kChunks) {
          for (const bool burden : {false, true}) {
            FfConfig cfg;
            cfg.num_threads = threads;
            cfg.schedule = sched;
            cfg.chunk = chunk;
            cfg.overheads = ov;
            cfg.apply_burden = burden;
            const Cycles scalar =
                emulate_ff_section(ct, s, cfg).parallel_cycles;
            const BlockPoint p{threads, sched, chunk, burden};
            ASSERT_EQ(batch.evaluate(p), scalar)
                << "sched=" << static_cast<int>(sched) << " t=" << threads
                << " chunk=" << chunk << " burden=" << burden;
          }
        }
      }
    }
  }
}

TEST_P(BatchedEquivalence, BlockEvaluationMatchesPointwise) {
  const std::uint64_t seed = tree::property_seed(GetParam());
  const ProgramTree t = burdened_random_tree(seed);
  SCOPED_TRACE(tree::seed_trace(seed, t));
  const CompiledTree ct = CompiledTree::compile(t);
  if (ct.section_count() == 0) return;

  // The full point grid, then re-evaluated in blocks of every awkward size:
  // 1 (degenerate), 3 (does not divide 160), and the whole grid at once.
  PointBlock all;
  for (const OmpSchedule sched : kSchedules) {
    for (const CoreCount threads : kThreads) {
      for (const std::uint64_t chunk : kChunks) {
        for (const bool burden : {false, true}) {
          all.push_back(BlockPoint{threads, sched, chunk, burden});
        }
      }
    }
  }
  const runtime::OmpOverheads ov{};
  for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
    std::vector<Cycles> want;
    for (std::size_t i = 0; i < all.size(); ++i) {
      FfConfig cfg;
      cfg.num_threads = all.threads[i];
      cfg.schedule = all.schedules[i];
      cfg.chunk = all.chunks[i];
      cfg.overheads = ov;
      cfg.apply_burden = all.apply_burden[i] != 0;
      want.push_back(emulate_ff_section(ct, s, cfg).parallel_cycles);
    }
    for (const std::size_t block_size : {std::size_t{1}, std::size_t{3},
                                         all.size()}) {
      FfSectionBatch batch(ct, s, ov);
      std::vector<Cycles> got;
      for (std::size_t off = 0; off < all.size(); off += block_size) {
        PointBlock blk;
        for (std::size_t i = off; i < std::min(all.size(), off + block_size);
             ++i) {
          blk.push_back(all.at(i));
        }
        const std::vector<Cycles> part = batch.evaluate_block(blk);
        got.insert(got.end(), part.begin(), part.end());
      }
      ASSERT_EQ(got, want) << "block_size=" << block_size << " section=" << s;
    }
  }
}

TEST_P(BatchedEquivalence, SuitabilitySectionMatchesScalar) {
  const std::uint64_t seed = tree::property_seed(GetParam());
  const ProgramTree t = burdened_random_tree(seed);
  SCOPED_TRACE(tree::seed_trace(seed, t));
  const CompiledTree ct = CompiledTree::compile(t);

  for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
    SuitabilitySectionBatch batch(ct, s);
    SuitabilityConfig cfg;
    for (const CoreCount threads : kThreads) {
      cfg.num_threads = threads;
      const Cycles scalar =
          emulate_suitability_section(ct, s, cfg).parallel_cycles;
      ASSERT_EQ(batch.evaluate(threads), scalar) << "t=" << threads;
    }
  }
}

TEST_P(BatchedEquivalence, SweepMatchesPerPointPredict) {
  // The sweep's one evaluation path (dedup, batched FF/Suitability point
  // blocks, scalar SYN/Real jobs) against a plain per-point core::predict,
  // which runs the scalar engines only.
  const std::uint64_t seed = tree::property_seed(GetParam());
  const ProgramTree t = burdened_random_tree(seed);
  SCOPED_TRACE(tree::seed_trace(seed, t));
  const CompiledTree ct = CompiledTree::compile(t);

  core::SweepGrid grid;
  grid.methods = {core::Method::FastForward, core::Method::Suitability,
                  core::Method::Synthesizer, core::Method::GroundTruth};
  grid.paradigms = {core::Paradigm::OpenMP, core::Paradigm::CilkPlus};
  grid.schedules = {OmpSchedule::StaticCyclic, OmpSchedule::Dynamic,
                    OmpSchedule::Guided};
  grid.chunks = {2};
  grid.thread_counts = {1, 2, 5, 7};
  grid.memory_models = {false, true};
  grid.base.machine.cores = 8;

  core::SweepOptions opts;
  opts.workers = 2;
  const core::SweepResult swept = core::sweep(ct, grid, opts);
  ASSERT_EQ(swept.cells.size(), grid.size());
  for (std::size_t i = 0; i < swept.cells.size(); ++i) {
    const core::SweepPoint& p = swept.cells[i].point;
    core::PredictOptions o = grid.base;
    o.method = p.method;
    o.paradigm = p.paradigm;
    o.schedule = p.schedule;
    o.chunk = p.chunk;
    o.memory_model = p.memory_model;
    const core::SpeedupEstimate want = core::predict(ct, p.threads, o);
    const core::SpeedupEstimate& got = swept.cells[i].estimate;
    ASSERT_EQ(got.parallel_cycles, want.parallel_cycles)
        << "cell=" << i << " method=" << static_cast<int>(p.method)
        << " paradigm=" << static_cast<int>(p.paradigm)
        << " sched=" << static_cast<int>(p.schedule) << " t=" << p.threads
        << " mm=" << p.memory_model;
    ASSERT_EQ(got.serial_cycles, want.serial_cycles);
    ASSERT_EQ(got.speedup, want.speedup);
  }
  EXPECT_EQ(swept.stats.section_lookups,
            swept.stats.cache_hits + swept.stats.section_evals);
  if (ct.section_count() > 0) {
    EXPECT_GT(swept.stats.batched_points, 0u);
  }
}

TEST_P(BatchedEquivalence, IncrementalWalkMatchesFromScratch) {
  // Fuzz the incremental re-evaluation machinery: a random walk over
  // adjacent grid points (one dimension mutated per move) on ONE stateful
  // FfSectionBatch must return exactly what a fresh evaluation returns at
  // every stop — any stale carryover between points (β tables, static
  // plans, memoized results) shows up as a mismatch here.
  const std::uint64_t seed = tree::property_seed(GetParam());
  const ProgramTree t = burdened_random_tree(seed);
  SCOPED_TRACE(tree::seed_trace(seed, t));
  const CompiledTree ct = CompiledTree::compile(t);
  if (ct.section_count() == 0) return;

  util::Xoshiro256 rng(seed ^ 0x1234'5678ULL);
  const runtime::OmpOverheads ov{};
  for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
    FfSectionBatch walker(ct, s, ov);
    std::size_t ti = 1;  // indices into the axes
    std::size_t si = 0;
    std::size_t ci = 1;
    bool burden = false;
    for (int move = 0; move < 120; ++move) {
      switch (rng.uniform_u64(0, 4)) {
        case 0:
          ti = (ti + 1) % (sizeof kThreads / sizeof kThreads[0]);
          break;
        case 1:
          si = (si + 1) % (sizeof kSchedules / sizeof kSchedules[0]);
          break;
        case 2:
          ci = (ci + 1) % (sizeof kChunks / sizeof kChunks[0]);
          break;
        default:
          burden = !burden;
          break;
      }
      const BlockPoint p{kThreads[ti], kSchedules[si], kChunks[ci], burden};
      FfConfig cfg;
      cfg.num_threads = p.threads;
      cfg.schedule = p.schedule;
      cfg.chunk = p.chunk;
      cfg.overheads = ov;
      cfg.apply_burden = p.apply_burden;
      const Cycles scratch = emulate_ff_section(ct, s, cfg).parallel_cycles;
      ASSERT_EQ(walker.evaluate(p), scratch)
          << "move=" << move << " t=" << p.threads << " sched="
          << static_cast<int>(p.schedule) << " chunk=" << p.chunk
          << " burden=" << p.apply_burden;
    }
    // The walk revisits configurations, so the incremental machinery must
    // actually have engaged — otherwise this test guards nothing.
    EXPECT_GT(walker.stats().result_reuses + walker.stats().plan_reuses +
                  walker.stats().scaled_reuses,
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

// The tests above prove batch == scalar; this one pins the scalar numbers
// themselves, so a change that moves both engines at once (a shared cost
// rule in runtime/iter_sched.hpp or runtime/overheads.hpp, a dedup of the
// two FF implementations) cannot pass unnoticed. The digests change only
// with a deliberate re-baseline of the FF semantics. Suitability hashes its
// parallel cycles only; its serial cycles are the FF's.
constexpr CoreCount kPinThreads[] = {1, 2, 3, 4, 7, 12};
constexpr std::uint64_t kPinSeeds = 80;  // random_tree seeds 1..kPinSeeds

ProgramTree pin_tree(std::uint64_t seed) {
  ProgramTree t = tree::random_tree(seed);
  util::Xoshiro256 rng(seed ^ 0xbeefULL);
  for (const auto& child : t.root->children()) {
    if (child->kind() != tree::NodeKind::Sec) continue;
    for (const CoreCount threads : kPinThreads) {
      child->set_burden(threads, 1.0 + 2.0 * rng.uniform_double());
    }
  }
  return t;
}

TEST(PinnedNumbers, FfSuitabilityAndTimelineDigests) {
  util::Fnv64 ff;
  util::Fnv64 suit;
  util::Fnv64 spans;
  std::uint64_t points = 0;
  std::uint64_t span_count = 0;
  for (std::uint64_t seed = 1; seed <= kPinSeeds; ++seed) {
    const CompiledTree ct = CompiledTree::compile(pin_tree(seed));
    for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
      for (const OmpSchedule sched : kSchedules) {
        for (const CoreCount threads : kPinThreads) {
          for (const std::uint64_t chunk : kChunks) {
            for (const bool burden : {false, true}) {
              FfConfig cfg;
              cfg.num_threads = threads;
              cfg.schedule = sched;
              cfg.chunk = chunk;
              cfg.apply_burden = burden;
              machine::Timeline tl;
              const bool record = chunk == 2 && !burden;
              if (record) cfg.timeline = &tl;
              const FfResult r = emulate_ff_section(ct, s, cfg);
              ff.u64(r.parallel_cycles);
              ff.u64(r.serial_cycles);
              ++points;
              if (!record) continue;
              std::vector<machine::TimelineSpan> v = tl.spans();
              std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
                return std::tie(a.thread, a.begin, a.end, a.kind) <
                       std::tie(b.thread, b.begin, b.end, b.kind);
              });
              for (const machine::TimelineSpan& sp : v) {
                spans.u64(sp.thread);
                spans.u64(sp.begin);
                spans.u64(sp.end);
                spans.u64(static_cast<std::uint64_t>(sp.kind));
              }
              span_count += v.size();
            }
          }
        }
      }
      for (const CoreCount threads : kPinThreads) {
        SuitabilityConfig cfg;
        cfg.num_threads = threads;
        suit.u64(emulate_suitability_section(ct, s, cfg).parallel_cycles);
      }
    }
  }
  EXPECT_EQ(points, 37'632u);
  EXPECT_EQ(span_count, 677'677u);
  EXPECT_EQ(ff.h, 0xa98b8aeab15322c3ULL);
  EXPECT_EQ(suit.h, 0xee69128a09620785ULL);
  EXPECT_EQ(spans.h, 0x9cae8fcd70a234ddULL);
}

}  // namespace
}  // namespace pprophet::emul
