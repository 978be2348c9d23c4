#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "emul/ff.hpp"
#include "emul/suitability.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pprophet::core {
namespace {

/// The sub-key a per-section emulation actually depends on. `section_digest`
/// is the compiled section's 64-bit content digest
/// (tree::CompiledTree::section_digest): two structurally identical sections
/// emulate identically, so they share one memo entry.
struct MemoKey {
  std::uint64_t section_digest = 0;
  Method method = Method::Synthesizer;
  Paradigm paradigm = Paradigm::OpenMP;
  runtime::OmpSchedule schedule = runtime::OmpSchedule::StaticCyclic;
  std::uint64_t chunk = 1;
  CoreCount threads = 0;
  bool memory_model = false;

  bool operator==(const MemoKey&) const = default;
};

struct MemoKeyHash {
  std::size_t operator()(const MemoKey& k) const {
    std::uint64_t h = k.section_digest;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(k.method));
    mix(static_cast<std::uint64_t>(k.paradigm));
    mix(static_cast<std::uint64_t>(k.schedule));
    mix(k.chunk);
    mix(k.threads);
    mix(k.memory_model ? 1 : 0);
    return static_cast<std::size_t>(h);
  }
};

/// Drops every point dimension the emulation of `method`/`paradigm` provably
/// never reads, so grid points differing only in an irrelevant dimension
/// share one memo entry:
///  * Suitability pins its own schedule, chunk and overheads and has no
///    memory model — only the thread count matters;
///  * the FF emulator never reads the paradigm;
///  * the Cilk executor has no schedule/chunk parameter;
///  * GroundTruth always uses the machine's dynamic contention, never the
///    memory-model flag;
///  * schedule(static) hands out one block per thread whatever the chunk.
SweepPoint canonical(SweepPoint p) {
  switch (p.method) {
    case Method::Suitability:
      p.paradigm = Paradigm::OpenMP;
      p.schedule = runtime::OmpSchedule::Dynamic;
      p.chunk = 1;
      p.memory_model = false;
      break;
    case Method::FastForward:
      p.paradigm = Paradigm::OpenMP;
      break;
    case Method::GroundTruth:
      p.memory_model = false;
      break;
    case Method::Synthesizer:
      break;
  }
  if (p.paradigm == Paradigm::CilkPlus) {
    p.schedule = runtime::OmpSchedule::StaticCyclic;
    p.chunk = 1;
  }
  if (p.schedule == runtime::OmpSchedule::StaticBlock) p.chunk = 1;
  return p;
}

PredictOptions options_for(const PredictOptions& base, const SweepPoint& p) {
  PredictOptions o = base;
  o.method = p.method;
  o.paradigm = p.paradigm;
  o.schedule = p.schedule;
  o.chunk = p.chunk;
  o.memory_model = p.memory_model;
  return o;
}

/// One unit of worker work. FF/Suitability jobs carry a block of grid
/// points against one representative section; methods without a batched
/// evaluator (Synthesizer, GroundTruth) ride along as single-point scalar
/// jobs so the whole sweep still drains through one pool.
struct BatchedJob {
  Method method = Method::Synthesizer;
  std::uint32_t section = 0;  ///< representative section for the digest
  emul::PointBlock block;     ///< FastForward points
  std::vector<CoreCount> threads;   ///< Suitability points
  std::vector<std::size_t> slots;   ///< result slot per point
  SweepPoint cpoint;                ///< scalar jobs: the canonical point
};

}  // namespace

std::vector<SweepPoint> SweepGrid::points() const {
  std::vector<SweepPoint> out;
  out.reserve(size());
  for (const Method m : methods) {
    for (const Paradigm p : paradigms) {
      for (const runtime::OmpSchedule s : schedules) {
        for (const std::uint64_t c : chunks) {
          for (const bool mm : memory_models) {
            for (const CoreCount t : thread_counts) {
              out.push_back(SweepPoint{m, p, s, c, t, mm});
            }
          }
        }
      }
    }
  }
  return out;
}

SweepResult sweep(const tree::ProgramTree& tree, const SweepGrid& grid,
                  const SweepOptions& options) {
  const std::vector<SweepPoint> pts = grid.points();
  return sweep_points(tree, pts, grid.base, options);
}

SweepResult sweep(const tree::CompiledTree& compiled, const SweepGrid& grid,
                  const SweepOptions& options) {
  const std::vector<SweepPoint> pts = grid.points();
  return sweep_points(compiled, pts, grid.base, options);
}

SweepResult sweep_points(const tree::ProgramTree& tree,
                         std::span<const SweepPoint> points,
                         const PredictOptions& base,
                         const SweepOptions& options) {
  if (!tree.root) throw std::invalid_argument("sweep: empty tree");
  return sweep_points(tree::CompiledTree::compile(tree), points, base,
                      options);
}

SweepResult sweep_points(const tree::CompiledTree& compiled,
                         std::span<const SweepPoint> points,
                         const PredictOptions& base,
                         const SweepOptions& options) {
  for (const SweepPoint& p : points) {
    if (p.threads == 0) throw std::invalid_argument("sweep: zero threads");
  }
  // DES jobs on several workers would record into one Timeline at once, and
  // the batched evaluators record no spans at all.
  if (base.timeline != nullptr) {
    throw std::invalid_argument("sweep: timeline recording is predict-only");
  }

  const auto t0 = std::chrono::steady_clock::now();
  SweepResult result;
  result.cells.resize(points.size());
  result.stats.grid_points = points.size();

  const Cycles serial = compiled.serial_cycles();
  const Cycles u_cycles = compiled.top_u_cycles();
  const std::uint32_t nsec = compiled.section_count();

  // 1. Deduplicate (cell × section) into unique canonical sub-problems, in
  //    first-occurrence order. Each gets a result slot.
  struct SlotInfo {
    std::uint32_t section = 0;
    SweepPoint cpoint;
  };
  std::unordered_map<MemoKey, std::size_t, MemoKeyHash> slot_of;
  std::vector<SlotInfo> slot_info;
  std::vector<std::size_t> cell_slots(points.size() * nsec);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint cp = canonical(points[i]);
    for (std::uint32_t s = 0; s < nsec; ++s) {
      MemoKey key;
      key.section_digest = compiled.section_digest(s);
      key.method = cp.method;
      key.paradigm = cp.paradigm;
      key.schedule = cp.schedule;
      key.chunk = cp.chunk;
      key.threads = cp.threads;
      key.memory_model = cp.memory_model;
      const auto [it, inserted] = slot_of.try_emplace(key, slot_info.size());
      if (inserted) slot_info.push_back(SlotInfo{s, cp});
      cell_slots[i * nsec + s] = it->second;
    }
  }

  // 2. Group batchable slots into per-(section digest, method) blocks.
  std::vector<BatchedJob> jobs;
  std::unordered_map<std::uint64_t, std::size_t> ff_jobs;
  std::unordered_map<std::uint64_t, std::size_t> suit_jobs;
  for (std::size_t slot = 0; slot < slot_info.size(); ++slot) {
    const SlotInfo& info = slot_info[slot];
    const SweepPoint& cp = info.cpoint;
    if (cp.method == Method::FastForward ||
        cp.method == Method::Suitability) {
      auto& index =
          cp.method == Method::FastForward ? ff_jobs : suit_jobs;
      const std::uint64_t digest = compiled.section_digest(info.section);
      const auto [it, inserted] = index.try_emplace(digest, jobs.size());
      if (inserted) {
        jobs.emplace_back();
        jobs.back().method = cp.method;
        jobs.back().section = info.section;
      }
      BatchedJob& job = jobs[it->second];
      if (cp.method == Method::FastForward) {
        emul::BlockPoint p;
        p.threads = cp.threads;
        p.schedule = cp.schedule;
        p.chunk = cp.chunk;
        p.apply_burden = cp.memory_model;
        job.block.push_back(p);
      } else {
        job.threads.push_back(cp.threads);
      }
      job.slots.push_back(slot);
    } else {
      jobs.emplace_back();
      jobs.back().method = cp.method;
      jobs.back().section = info.section;
      jobs.back().cpoint = cp;
      jobs.back().slots.push_back(slot);
    }
  }

  for (const BatchedJob& job : jobs) {
    if (job.method == Method::FastForward ||
        job.method == Method::Suitability) {
      ++result.stats.batched_blocks;
      result.stats.batched_points += job.slots.size();
    }
  }

  // 3. Drain jobs through the pool. Each job writes only its own slots.
  std::vector<Cycles> values(slot_info.size(), 0);
  const auto run_job = [&](const BatchedJob& job) {
    if (job.method == Method::FastForward) {
      emul::FfSectionBatch batch(compiled, job.section, base.omp_overheads);
      const std::vector<Cycles> out = batch.evaluate_block(job.block);
      for (std::size_t k = 0; k < out.size(); ++k) {
        values[job.slots[k]] = out[k];
      }
    } else if (job.method == Method::Suitability) {
      emul::SuitabilitySectionBatch batch(compiled, job.section);
      const std::vector<Cycles> out = batch.evaluate_block(job.threads);
      for (std::size_t k = 0; k < out.size(); ++k) {
        values[job.slots[k]] = out[k];
      }
    } else {
      values[job.slots[0]] = predict_section_cycles(
          compiled, job.section, job.cpoint.threads,
          options_for(base, job.cpoint));
    }
  };

  // Worker count follows the grid (as asserted by tests), not the
  // usually-smaller job count.
  std::size_t workers =
      options.workers != 0
          ? options.workers
          : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, points.size());

  // Remaining-jobs sample at each dequeue: the timer's min/mean/max gives
  // the queue-depth profile over the run (max == job count at start).
  const auto note_depth = [&](std::size_t i) {
    if (obs::enabled()) {
      static obs::Timer& depth =
          obs::MetricsRegistry::global().timer("sweep.queue.depth");
      depth.record(jobs.size() - i);
    }
  };

  obs::TraceSink* sink = obs::TraceSink::current();
  result.stats.worker_wall_ms.assign(std::max<std::size_t>(workers, 1), 0.0);
  // Per-worker wall timing and (optionally) one trace span per worker. Each
  // worker writes only its own pre-sized slot, so no synchronization.
  const auto timed = [&](std::size_t w, const auto& body) {
    const auto w0 = std::chrono::steady_clock::now();
    const std::uint64_t span_start = sink != nullptr ? sink->now_us() : 0;
    body();
    result.stats.worker_wall_ms[w] =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - w0)
            .count();
    if (sink != nullptr) {
      sink->complete("sweep worker " + std::to_string(w), "sweep",
                     obs::kPidPipeline, static_cast<std::uint32_t>(w + 1),
                     span_start, sink->now_us() - span_start,
                     {obs::arg_num("worker", static_cast<std::uint64_t>(w))});
    }
  };

  if (workers <= 1) {
    timed(0, [&] {
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        note_depth(i);
        run_job(jobs[i]);
      }
    });
  } else {
    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::exception_ptr first_error;
    const auto drain = [&](std::size_t w) {
      timed(w, [&] {
        try {
          for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size()) return;
            note_depth(i);
            run_job(jobs[i]);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(drain, w);
    for (std::thread& th : pool) th.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  // 4. Assemble cells from the slot table — the §IV-E composition
  //    core::predict performs.
  for (std::size_t i = 0; i < points.size(); ++i) {
    Cycles parallel = u_cycles;
    for (std::uint32_t s = 0; s < nsec; ++s) {
      parallel += values[cell_slots[i * nsec + s]] *
                  compiled.repeat(compiled.section_node(s));
    }
    SweepCell& cell = result.cells[i];
    cell.point = points[i];
    cell.estimate.threads = points[i].threads;
    cell.estimate.serial_cycles = serial;
    cell.estimate.parallel_cycles = parallel == 0 ? 1 : parallel;
    cell.estimate.speedup =
        static_cast<double>(cell.estimate.serial_cycles) /
        static_cast<double>(cell.estimate.parallel_cycles);
  }

  // Memo counters from the dedup: every (cell × section) pair is a lookup;
  // unique sub-problems are evals.
  result.stats.section_lookups = points.size() * nsec;
  result.stats.section_evals = slot_info.size();
  result.stats.cache_hits =
      result.stats.section_lookups - result.stats.section_evals;
  result.stats.workers = workers;
  result.stats.wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  if (obs::enabled()) {
    // Mirror SweepStats into the registry so `--metrics` output matches the
    // engine's own accounting exactly (asserted in tests/obs).
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("sweep.runs").add(1);
    reg.counter("sweep.grid_points").add(result.stats.grid_points);
    reg.counter("sweep.memo.lookups").add(result.stats.section_lookups);
    reg.counter("sweep.memo.hits").add(result.stats.cache_hits);
    reg.counter("sweep.memo.evals").add(result.stats.section_evals);
    reg.counter("sweep.batched.blocks").add(result.stats.batched_blocks);
    reg.counter("sweep.batched.points").add(result.stats.batched_points);
    reg.gauge("sweep.workers").set(static_cast<double>(workers));
    reg.gauge("sweep.wall_ms").set(result.stats.wall_ms);
    auto& wt = reg.timer("sweep.worker_wall_us");
    for (const double ms : result.stats.worker_wall_ms) {
      wt.record(static_cast<std::uint64_t>(ms * 1000.0));
    }
  }
  return result;
}

}  // namespace pprophet::core
