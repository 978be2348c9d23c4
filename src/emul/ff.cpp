#include "emul/ff.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "machine/timeline.hpp"
#include "obs/metrics.hpp"
#include "runtime/memsplit.hpp"
#include "runtime/tree_view.hpp"

namespace pprophet::emul {
namespace {

using runtime::IterScheduler;
using runtime::OmpSchedule;
using tree::NodeKind;

constexpr Cycles kInf = std::numeric_limits<Cycles>::max();

/// The fast-forwarding engine for one top-level section, reading the
/// compiled tree through FlatTreeView (runtime/tree_view.hpp).
class FfEngine {
  using View = runtime::FlatTreeView;
  using NodeRef = View::NodeRef;
  using ChildCursor = View::ChildCursor;
  using SectionHandle = View::SectionHandle;
  using LockTable = View::LockTable;

  struct Context;

  /// A (possibly suspended) walk over one task's children on a virtual CPU.
  struct Cursor {
    Context* ctx = nullptr;
    ChildCursor walk{};
    std::uint64_t rep_done = 0;
    Cycles ready_at = 0;
    bool charge_dispatch = true;  ///< per-iteration dispatch cost on start
  };

  /// One parallel-section instance being fast-forwarded.
  struct Context {
    NodeRef sec{};
    SectionHandle index;
    std::unique_ptr<IterScheduler> sched;  // dynamic contexts pull from this
    bool dynamic = false;
    Cycles spawn_time = 0;
    std::uint64_t outstanding = 0;  ///< iterations not yet completed
    std::uint64_t unassigned = 0;   ///< dynamic: iterations not yet pulled
    Cycles max_finish = 0;
    double burden = 1.0;
    /// Parent continuation to resume at the (implicit) barrier; nullopt for
    /// top-level sections and for nowait spawns.
    std::optional<Cursor> parent_cont;
    std::uint32_t parent_cpu = 0;
    bool done = false;

    Context(NodeRef s, SectionHandle h) : sec(s), index(std::move(h)) {}
  };

  struct Cpu {
    Cycles free_at = 0;
    std::deque<Cursor> queue;
    std::optional<Cursor> current;
  };

 public:
  FfEngine(const View& view, const FfConfig& cfg)
      : view_(view),
        cfg_(cfg),
        cpus_(cfg.num_threads),
        lock_free_(view.make_lock_table()) {}

  /// Returns the section's projected parallel duration (excluding fork cost,
  /// including the final barrier).
  Cycles run_section(NodeRef sec) {
    Context* top =
        spawn_context(sec, /*time=*/0, /*parent=*/std::nullopt, 0, nullptr);
    loop();
    assert(top->done);
    // nowait-spawned nested contexts have no parent continuation; their
    // work still bounds the section's end.
    Cycles end = top->max_finish;
    for (const auto& ctx : contexts_) {
      end = std::max(end, ctx->max_finish);
    }
    if (obs::enabled()) {
      // One batched flush per section, so the hot step() loop stays free of
      // atomics even when metrics are on.
      auto& reg = obs::MetricsRegistry::global();
      reg.counter("ff.sections").add(1);
      reg.counter("ff.contexts").add(contexts_.size());
      reg.counter("ff.steps").add(steps_);
      reg.counter("ff.lock_wait_cycles").add(lock_waits_);
    }
    return end + cfg_.overheads.join_barrier;
  }

 private:
  double burden_of(NodeRef sec) const {
    return cfg_.apply_burden ? view_.burden(sec, cfg_.num_threads) : 1.0;
  }

  Context* spawn_context(NodeRef sec, Cycles time,
                         std::optional<Cursor> parent_cont,
                         std::uint32_t parent_cpu,
                         const Context* parent_ctx) {
    contexts_.push_back(std::make_unique<Context>(sec, view_.section(sec)));
    Context* ctx = contexts_.back().get();
    ctx->spawn_time = time;
    ctx->outstanding = view_.trip_count(ctx->index);
    ctx->unassigned = ctx->outstanding;
    ctx->max_finish = time;  // empty sections complete instantly
    // Burden: top-level sections own a burden factor; nested contexts
    // inherit the enclosing one.
    ctx->burden = parent_ctx != nullptr ? parent_ctx->burden : burden_of(sec);
    ctx->parent_cont = std::move(parent_cont);
    ctx->parent_cpu = parent_cpu;
    if (ctx->outstanding == 0) {
      complete_context(*ctx);
      return ctx;
    }
    if (cfg_.schedule == OmpSchedule::Dynamic ||
        cfg_.schedule == OmpSchedule::Guided) {
      ctx->dynamic = true;
      ctx->sched = runtime::make_scheduler(cfg_.schedule,
                                           view_.trip_count(ctx->index),
                                           cfg_.num_threads, cfg_.chunk);
      dynamic_stack_.push_back(ctx);
    } else {
      // Static policies: pre-assign iterations. Nested contexts map rank r
      // onto CPU (parent_cpu + r) mod t — a fixed round-robin that ignores
      // which CPUs are actually busy. This is the paper's documented FF
      // flaw (Figure 7): two sibling nested loops starting on different
      // CPUs can pile their long iterations onto the same CPU.
      auto sched = runtime::make_scheduler(cfg_.schedule,
                                           view_.trip_count(ctx->index),
                                           cfg_.num_threads, cfg_.chunk);
      for (std::uint32_t rank = 0; rank < cfg_.num_threads; ++rank) {
        const std::uint32_t cpu = (parent_cpu + rank) % cfg_.num_threads;
        while (const auto range = sched->next(rank)) {
          for (std::uint64_t i = range->begin; i < range->end; ++i) {
            Cursor c;
            c.ctx = ctx;
            c.walk = view_.children(view_.task_at(ctx->index, i));
            c.ready_at = time;
            cpus_[cpu].queue.push_back(c);
          }
        }
      }
    }
    return ctx;
  }

  /// Earliest time CPU `k` could take its next action; kInf if none.
  Cycles next_action_time(std::uint32_t k) const {
    const Cpu& cpu = cpus_[k];
    if (cpu.current.has_value()) return cpu.free_at;
    Cycles best = kInf;
    if (!cpu.queue.empty()) {
      best = std::max(cpu.free_at, cpu.queue.front().ready_at);
    }
    for (auto it = dynamic_stack_.rbegin(); it != dynamic_stack_.rend();
         ++it) {
      if (!(*it)->done && (*it)->unassigned > 0) {
        best = std::min(best, std::max(cpu.free_at, (*it)->spawn_time));
        break;
      }
    }
    return best;
  }

  void start_next(std::uint32_t k) {
    Cpu& cpu = cpus_[k];
    assert(!cpu.current.has_value());
    if (!cpu.queue.empty()) {
      const Cycles t = std::max(cpu.free_at, cpu.queue.front().ready_at);
      // Prefer whichever source is available sooner; queue wins ties.
      Cursor c = cpu.queue.front();
      cpu.queue.pop_front();
      cpu.free_at = t;
      if (c.charge_dispatch) {
        cpu.free_at += cfg_.overheads.iteration_dispatch(cfg_.schedule);
        c.charge_dispatch = false;
      }
      cpu.current = c;
      return;
    }
    // Dynamic pull from the innermost open dynamic context with iterations.
    for (auto it = dynamic_stack_.rbegin(); it != dynamic_stack_.rend();
         ++it) {
      Context* ctx = *it;
      if (ctx->done || ctx->unassigned == 0) continue;
      if (const auto range = ctx->sched->next(k)) {
        ctx->unassigned -= range->size();
        cpu.free_at = std::max(cpu.free_at, ctx->spawn_time) +
                      cfg_.overheads.range_dispatch(cfg_.schedule);
        Cursor c;
        c.ctx = ctx;
        c.walk = view_.children(view_.task_at(ctx->index, range->begin));
        c.charge_dispatch = false;
        // Chunks larger than one iteration: re-queue the rest.
        for (std::uint64_t i = range->begin + 1; i < range->end; ++i) {
          Cursor rest;
          rest.ctx = ctx;
          rest.walk = view_.children(view_.task_at(ctx->index, i));
          rest.ready_at = cpu.free_at;
          cpu.queue.push_back(rest);
        }
        cpu.current = c;
        return;
      }
    }
  }

  void complete_context(Context& ctx) {
    ctx.done = true;
    if (ctx.parent_cont.has_value()) {
      Cursor cont = *ctx.parent_cont;
      cont.ready_at = ctx.max_finish + cfg_.overheads.join_barrier;
      cont.charge_dispatch = false;
      cpus_[ctx.parent_cpu].queue.push_front(cont);
      ctx.parent_cont.reset();
    }
  }

  /// Executes one segment of the current cursor on CPU `k`.
  void step(std::uint32_t k) {
    Cpu& cpu = cpus_[k];
    Cursor& cur = *cpu.current;
    Context& ctx = *cur.ctx;
    ++steps_;

    if (view_.cursor_done(cur.walk)) {
      // Task complete.
      --ctx.outstanding;
      ctx.max_finish = std::max(ctx.max_finish, cpu.free_at);
      cpu.current.reset();
      if (ctx.outstanding == 0) complete_context(ctx);
      return;
    }
    const NodeRef c = view_.cursor_node(cur.walk);
    if (cur.rep_done >= view_.repeat(c)) {
      view_.cursor_advance(cur.walk);
      cur.rep_done = 0;
      return;
    }
    const auto scaled = [&](Cycles len) {
      return runtime::ff_scaled_length(static_cast<double>(len), ctx.burden);
    };
    switch (view_.kind(c)) {
      case NodeKind::U: {
        // Fast path: all repetitions of a plain U run back to back.
        const std::uint64_t reps = view_.repeat(c) - cur.rep_done;
        const Cycles start = cpu.free_at;
        cpu.free_at += scaled(view_.length(c)) * reps;
        cur.rep_done = view_.repeat(c);
        if (cfg_.timeline != nullptr && cpu.free_at > start) {
          cfg_.timeline->record(k, start, cpu.free_at,
                                machine::TimelineSpan::Kind::Run);
        }
        return;
      }
      case NodeKind::L: {
        ++cur.rep_done;
        cpu.free_at += cfg_.overheads.lock_acquire;
        Cycles& lock_free = view_.lock_cell(lock_free_, c);
        const Cycles acquired = std::max(cpu.free_at, lock_free);
        lock_waits_ += acquired - cpu.free_at;
        if (cfg_.timeline != nullptr && acquired > cpu.free_at) {
          cfg_.timeline->record(k, cpu.free_at, acquired,
                                machine::TimelineSpan::Kind::LockWait);
        }
        const Cycles body_end = acquired + scaled(view_.length(c));
        if (cfg_.timeline != nullptr && body_end > acquired) {
          cfg_.timeline->record(k, acquired, body_end,
                                machine::TimelineSpan::Kind::Run);
        }
        cpu.free_at = body_end;
        lock_free = cpu.free_at;
        cpu.free_at += cfg_.overheads.lock_release;
        return;
      }
      case NodeKind::Sec: {
        ++cur.rep_done;
        // Fork cost charged to the spawning CPU.
        cpu.free_at += cfg_.overheads.fork_cost(cfg_.num_threads);
        const Cycles spawn_time = cpu.free_at;
        if (view_.barrier_at_end(c)) {
          // Suspend this task; resume after the nested barrier.
          Cursor cont = cur;
          Context* parent_ctx = cur.ctx;
          cpu.current.reset();
          spawn_context(c, spawn_time, cont, k, parent_ctx);
        } else {
          // nowait: the nested iterations run concurrently; the parent
          // continues immediately.
          spawn_context(c, spawn_time, std::nullopt, k, cur.ctx);
        }
        return;
      }
      case NodeKind::Task:
      case NodeKind::Root:
        throw std::logic_error("ff: invalid child kind in task walk");
    }
  }

  void loop() {
    while (true) {
      std::uint32_t best_cpu = 0;
      Cycles best_time = kInf;
      for (std::uint32_t k = 0; k < cpus_.size(); ++k) {
        const Cycles t = next_action_time(k);
        if (t < best_time) {
          best_time = t;
          best_cpu = k;
        }
      }
      if (best_time == kInf) return;
      Cpu& cpu = cpus_[best_cpu];
      if (!cpu.current.has_value()) {
        start_next(best_cpu);
        if (!cpu.current.has_value()) return;  // defensive: no progress
        continue;
      }
      step(best_cpu);
    }
  }

  View view_;
  const FfConfig& cfg_;
  std::vector<Cpu> cpus_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<Context*> dynamic_stack_;
  LockTable lock_free_;
  Cycles lock_waits_ = 0;
  std::uint64_t steps_ = 0;  ///< heap events processed (obs: ff.steps)
};

void check_cfg(const FfConfig& cfg) {
  if (cfg.num_threads == 0) {
    throw std::invalid_argument("emulate_ff_section: zero threads");
  }
}

// ---------------------------------------------------------------------------
// Batched evaluation (FfSectionBatch). The section is compiled once into a
// flat segment program (structure of arrays); grid points are evaluated
// against it either in closed form (flat sections) or on a pooled replica of
// the FfEngine event loop. docs/INTERNALS.md spells out the bit-identity
// invariants; tests/property/test_batched_equivalence.cpp enforces them.
// ---------------------------------------------------------------------------

/// One leaf-level action of a task body: uninterruptible work (U), a lock
/// rep (L), or a nested-section spawn (Sec child).
struct BSeg {
  enum Kind : std::uint8_t { kWork, kLock, kSpawn };
  Kind kind = kWork;
  std::uint8_t barrier = 1;   ///< Spawn: nested barrier_at_end
  std::uint32_t lock = 0;     ///< Lock: local dense lock slot
  std::uint32_t sub = 0;      ///< Spawn: nested subsection index
  std::uint64_t rep = 1;
  Cycles len = 0;
};

struct BTask {
  std::uint32_t seg_begin = 0;
  std::uint32_t seg_end = 0;
  bool flat = true;  ///< only kWork segments
};

/// RLE run of one physical Task child: `cum` is the cumulative trip count
/// through this run (same encoding as CompiledTree's run tables).
struct BRun {
  std::uint32_t task = 0;
  std::uint64_t cum = 0;
};

struct BSub {
  std::uint32_t run_begin = 0;
  std::uint32_t run_end = 0;
  std::uint64_t trips = 0;
  bool tasks_flat = true;
};

/// β-scaled segment lengths, cached per distinct burden factor. Building
/// one is the straight-line SoA loop over the double-typed length vector.
struct ScaledTab {
  double beta = 1.0;
  std::vector<Cycles> seg;     ///< per segment: ff_scaled_length(len, β)
  std::vector<Cycles> task_w;  ///< per flat task: Σ seg_scaled × rep
};

/// Pre-resolved static iteration assignment for one (schedule, threads,
/// chunk): per-CPU iteration counts and per-run multiplicities. Reused
/// verbatim across burden factors — re-pricing a plan under a new β is the
/// incremental re-evaluation between adjacent grid points.
struct StaticPlan {
  OmpSchedule schedule = OmpSchedule::StaticCyclic;
  CoreCount threads = 0;
  std::uint64_t chunk = 1;
  std::vector<std::uint64_t> iters;       ///< per CPU
  std::vector<std::uint64_t> run_counts;  ///< threads × run_count, row-major
};

struct ResultKey {
  OmpSchedule schedule = OmpSchedule::StaticCyclic;
  CoreCount threads = 0;
  std::uint64_t chunk = 1;
  std::uint64_t beta_bits = 0;
  bool operator==(const ResultKey&) const = default;
};

struct ResultKeyHash {
  std::size_t operator()(const ResultKey& k) const {
    std::uint64_t h = k.beta_bits * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<std::uint64_t>(k.schedule) << 32) ^ k.threads;
    h ^= k.chunk + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

std::uint64_t beta_bits_of(double beta) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof beta);
  __builtin_memcpy(&bits, &beta, sizeof bits);
  return bits;
}

}  // namespace

/// The batched engine for one compiled section. Builds the segment program
/// once; evaluate() prices grid points against it.
class FfSectionBatch::Impl {
  using View = runtime::FlatTreeView;
  using NodeRef = tree::NodeId;

 public:
  Impl(const View& view, NodeRef sec, const runtime::OmpOverheads& overheads)
      : view_(view), sec_(sec), ov_(overheads) {
    build_sub(sec);
    len_d_.resize(segs_.size());
    for (std::size_t i = 0; i < segs_.size(); ++i) {
      len_d_[i] = static_cast<double>(segs_[i].len);
    }
  }

  Cycles evaluate(const BlockPoint& p) {
    if (p.threads == 0) {
      throw std::invalid_argument("FfSectionBatch: zero threads");
    }
    ++stats_.evals;
    const double beta =
        p.apply_burden ? view_.burden(sec_, p.threads) : 1.0;
    // Dimensions the scalar engine provably never distinguishes collapse
    // into one memo slot: schedule(static) ignores the chunk entirely, and
    // every scheduler clamps chunk 0 to 1.
    const std::uint64_t chunk_eff =
        p.schedule == OmpSchedule::StaticBlock
            ? 1
            : std::max<std::uint64_t>(1, p.chunk);
    const ResultKey key{p.schedule, p.threads, chunk_eff,
                        beta_bits_of(beta)};
    if (const auto it = results_.find(key); it != results_.end()) {
      ++stats_.result_reuses;
      return it->second;
    }
    const ScaledTab& tab = scaled_table(beta);
    const Cycles fork = ov_.fork_cost(p.threads);
    Cycles body;
    if (subs_[0].tasks_flat) {
      ++stats_.flat_evals;
      if (p.schedule == OmpSchedule::Dynamic ||
          p.schedule == OmpSchedule::Guided) {
        body = eval_flat_dynamic(p.threads, p.schedule, chunk_eff, tab);
      } else {
        body = eval_plan(plan_for(p.schedule, p.threads, chunk_eff), tab);
      }
    } else {
      ++stats_.general_evals;
      body = run_general(p.threads, p.schedule, chunk_eff, tab);
    }
    const Cycles total = fork + body;
    results_.emplace(key, total);
    return total;
  }

  const FfSectionBatch::Stats& stats() const { return stats_; }

 private:
  // ---- program build (once per section) ----

  std::uint32_t lock_slot(LockId id) {
    const auto [it, inserted] =
        lock_map_.try_emplace(id, static_cast<std::uint32_t>(lock_map_.size()));
    return it->second;
  }

  std::uint32_t build_task(NodeRef task) {
    // Children buffered locally: recursing into a nested Sec appends that
    // section's tasks' segments first, and this task's range must stay
    // contiguous.
    std::vector<BSeg> local;
    bool flat = true;
    for (auto walk = view_.children(task); !view_.cursor_done(walk);
         view_.cursor_advance(walk)) {
      const NodeRef c = view_.cursor_node(walk);
      BSeg s;
      s.rep = view_.repeat(c);
      switch (view_.kind(c)) {
        case NodeKind::U:
          s.kind = BSeg::kWork;
          s.len = view_.length(c);
          break;
        case NodeKind::L:
          s.kind = BSeg::kLock;
          s.len = view_.length(c);
          s.lock = lock_slot(view_.lock_id(c));
          flat = false;
          break;
        case NodeKind::Sec:
          s.kind = BSeg::kSpawn;
          s.sub = build_sub(c);
          s.barrier = view_.barrier_at_end(c) ? 1 : 0;
          flat = false;
          break;
        default:
          throw std::invalid_argument(
              "FfSectionBatch: invalid child kind in task body");
      }
      local.push_back(s);
    }
    BTask t;
    t.seg_begin = static_cast<std::uint32_t>(segs_.size());
    segs_.insert(segs_.end(), local.begin(), local.end());
    t.seg_end = static_cast<std::uint32_t>(segs_.size());
    t.flat = flat;
    tasks_.push_back(t);
    return static_cast<std::uint32_t>(tasks_.size() - 1);
  }

  std::uint32_t build_sub(NodeRef sec) {
    const std::uint32_t idx = static_cast<std::uint32_t>(subs_.size());
    subs_.emplace_back();
    std::vector<std::pair<std::uint32_t, std::uint64_t>> local_runs;
    const std::uint32_t nruns = view_.run_count(sec);
    local_runs.reserve(nruns);
    for (std::uint32_t r = 0; r < nruns; ++r) {
      const NodeRef tnode = view_.run_task(sec, r);
      if (view_.kind(tnode) != NodeKind::Task) {
        throw std::invalid_argument("FfSectionBatch: Sec child is not a Task");
      }
      local_runs.emplace_back(build_task(tnode), view_.repeat(tnode));
    }
    BSub s;
    s.run_begin = static_cast<std::uint32_t>(runs_.size());
    std::uint64_t cum = 0;
    for (const auto& [t, rep] : local_runs) {
      cum += rep;
      runs_.push_back(BRun{t, cum});
    }
    s.run_end = static_cast<std::uint32_t>(runs_.size());
    s.trips = cum;
    s.tasks_flat = view_.block_flags(sec).tasks_flat != 0;
    subs_[idx] = s;
    return idx;
  }

  // ---- β-scaled tables ----

  const ScaledTab& scaled_table(double beta) {
    for (const ScaledTab& t : scaled_) {
      if (beta_bits_of(t.beta) == beta_bits_of(beta)) {
        ++stats_.scaled_reuses;
        return t;
      }
    }
    if (scaled_.size() >= 64) scaled_.clear();  // unbounded-β backstop
    ScaledTab tab;
    tab.beta = beta;
    tab.seg.resize(segs_.size());
    // The SIMD-friendly inner loop: one multiply-add-truncate per segment
    // over the contiguous double-typed length array, with FfEngine::step's
    // rounding rule.
    for (std::size_t i = 0; i < segs_.size(); ++i) {
      tab.seg[i] = runtime::ff_scaled_length(len_d_[i], beta);
    }
    tab.task_w.assign(tasks_.size(), 0);
    for (std::size_t t = 0; t < tasks_.size(); ++t) {
      if (!tasks_[t].flat) continue;
      Cycles w = 0;
      for (std::uint32_t s = tasks_[t].seg_begin; s < tasks_[t].seg_end; ++s) {
        w += tab.seg[s] * segs_[s].rep;
      }
      tab.task_w[t] = w;
    }
    scaled_.push_back(std::move(tab));
    return scaled_.back();
  }

  // ---- closed-form paths (flat sections: tasks hold only U leaves) ----

  /// First run of `sub` whose cumulative trips exceed iteration `i`.
  std::uint32_t run_of(const BSub& sub, std::uint64_t i) const {
    const auto begin = runs_.begin() + sub.run_begin;
    const auto end = runs_.begin() + sub.run_end;
    const auto it = std::upper_bound(
        begin, end, i,
        [](std::uint64_t v, const BRun& r) { return v < r.cum; });
    return static_cast<std::uint32_t>(it - runs_.begin());
  }

  const StaticPlan& plan_for(OmpSchedule schedule, CoreCount threads,
                             std::uint64_t chunk) {
    for (const StaticPlan& p : plans_) {
      if (p.schedule == schedule && p.threads == threads &&
          p.chunk == chunk) {
        ++stats_.plan_reuses;
        return p;
      }
    }
    const BSub& sub = subs_[0];
    const std::uint64_t n = sub.trips;
    const std::uint32_t nruns = sub.run_end - sub.run_begin;
    StaticPlan plan;
    plan.schedule = schedule;
    plan.threads = threads;
    plan.chunk = chunk;
    plan.iters.assign(threads, 0);
    plan.run_counts.assign(static_cast<std::size_t>(threads) * nruns, 0);
    // Mirrors spawn_context's static pre-assignment at the top level
    // (parent_cpu 0, so rank r lands on CPU r).
    runtime::for_each_static_range(
        schedule, n, threads, chunk,
        [&](std::uint32_t cpu, runtime::IterRange range) {
          plan.iters[cpu] += range.size();
          std::uint32_t r = run_of(sub, range.begin);
          for (std::uint64_t i = range.begin; i < range.end;) {
            while (runs_[r].cum <= i) ++r;
            const std::uint64_t span = std::min(range.end, runs_[r].cum) - i;
            plan.run_counts[static_cast<std::size_t>(cpu) * nruns +
                            (r - sub.run_begin)] += span;
            i += span;
          }
        });
    plans_.push_back(std::move(plan));
    return plans_.back();
  }

  Cycles eval_plan(const StaticPlan& plan, const ScaledTab& tab) const {
    const BSub& sub = subs_[0];
    if (sub.trips == 0) return ov_.join_barrier;
    const std::uint32_t nruns = sub.run_end - sub.run_begin;
    Cycles end = 0;
    for (std::uint32_t cpu = 0; cpu < plan.threads; ++cpu) {
      if (plan.iters[cpu] == 0) continue;  // never touches max_finish
      // Per-CPU time is a pure sum of dispatch and work terms; uint64
      // addition commutes, so regrouping by run is bit-identical to the
      // scalar engine's per-iteration accumulation.
      Cycles total = plan.iters[cpu] * ov_.iteration_dispatch(plan.schedule);
      for (std::uint32_t r = 0; r < nruns; ++r) {
        const std::uint64_t cnt =
            plan.run_counts[static_cast<std::size_t>(cpu) * nruns + r];
        total += cnt * tab.task_w[runs_[sub.run_begin + r].task];
      }
      end = std::max(end, total);
    }
    return end + ov_.join_barrier;
  }

  /// Dynamic/guided over a flat section: replay the shared-counter pull
  /// order. A CPU's next pull request is at its post-chunk free time, so the
  /// argmin-free loop reproduces the scalar event order exactly (ties go to
  /// the lowest CPU, as in FfEngine::loop's ascending scan).
  Cycles eval_flat_dynamic(CoreCount threads, OmpSchedule schedule,
                           std::uint64_t chunk, const ScaledTab& tab) {
    const BSub& sub = subs_[0];
    const std::uint64_t n = sub.trips;
    if (n == 0) return ov_.join_barrier;
    free_.assign(threads, 0);
    // A pull pays the per-range dispatch, re-queued chunk-mates the
    // per-iteration one — the scalar engine's exact charging rules.
    const Cycles pull_disp = ov_.range_dispatch(schedule);
    const Cycles rest_disp = ov_.iteration_dispatch(schedule);
    std::uint64_t next = 0;
    std::uint32_t r = sub.run_begin;
    Cycles end = 0;
    while (next < n) {
      std::uint32_t kmin = 0;
      for (std::uint32_t k = 1; k < threads; ++k) {
        if (free_[k] < free_[kmin]) kmin = k;
      }
      const runtime::IterRange fetch =
          runtime::counter_fetch(schedule, chunk, next, n, threads);
      next = fetch.end;
      Cycles cost = pull_disp + (fetch.size() - 1) * rest_disp;
      for (std::uint64_t i = fetch.begin; i < fetch.end;) {
        while (runs_[r].cum <= i) ++r;
        const std::uint64_t span = std::min(fetch.end, runs_[r].cum) - i;
        cost += span * tab.task_w[runs_[r].task];
        i += span;
      }
      free_[kmin] += cost;
      end = std::max(end, free_[kmin]);
    }
    return end + ov_.join_barrier;
  }

  // ---- general path: pooled replica of the FfEngine event loop ----
  // Sections with locks or nested parallelism. Identical decision order;
  // the only liberties are (a) index-based pooled state instead of per-spawn
  // allocations and (b) maximal runs of local-only work segments collapsed
  // into single steps. Every shared mutation (lock acquire, spawn, dynamic
  // pull, task completion) stays its own globally-ordered event.

  struct GCursor {
    std::uint32_t ctx = 0;
    std::uint32_t seg = 0;
    std::uint32_t seg_end = 0;
    std::uint64_t rep_done = 0;
    Cycles ready_at = 0;
    std::uint8_t charge_dispatch = 1;
  };

  struct GCtx {
    std::uint32_t sub = 0;
    Cycles spawn_time = 0;
    std::uint64_t outstanding = 0;
    std::uint64_t unassigned = 0;
    Cycles max_finish = 0;
    std::uint64_t next_iter = 0;  ///< dynamic/guided shared counter
    std::uint32_t parent_cpu = 0;
    GCursor parent_cont{};
    std::uint8_t has_parent = 0;
    std::uint8_t dynamic = 0;
    std::uint8_t done = 0;
  };

  /// Two-vector deque with the scalar queue's exact pop order: items pushed
  /// to the front (continuations) pop LIFO before the FIFO back half.
  struct GCpu {
    Cycles free_at = 0;
    std::vector<GCursor> front;
    std::vector<GCursor> back;
    std::size_t back_head = 0;
    GCursor current{};
    std::uint8_t has_current = 0;

    bool queue_empty() const {
      return front.empty() && back_head >= back.size();
    }
    const GCursor& queue_front() const {
      return front.empty() ? back[back_head] : front.back();
    }
  };

  void set_task(GCursor& cur, std::uint32_t task) const {
    cur.seg = tasks_[task].seg_begin;
    cur.seg_end = tasks_[task].seg_end;
    cur.rep_done = 0;
  }

  void complete_ctx(std::uint32_t ci) {
    GCtx& ctx = gctxs_[ci];
    ctx.done = 1;
    if (ctx.has_parent) {
      GCursor cont = ctx.parent_cont;
      cont.ready_at = ctx.max_finish + ov_.join_barrier;
      cont.charge_dispatch = 0;
      gcpus_[ctx.parent_cpu].front.push_back(cont);
      ctx.has_parent = 0;
    }
  }

  void spawn_ctx(std::uint32_t sub_idx, Cycles time, const GCursor* parent,
                 std::uint32_t parent_cpu) {
    const std::uint32_t ci = static_cast<std::uint32_t>(gctxs_.size());
    gctxs_.emplace_back();
    GCtx& ctx = gctxs_.back();
    ctx.sub = sub_idx;
    ctx.spawn_time = time;
    ctx.outstanding = subs_[sub_idx].trips;
    ctx.unassigned = ctx.outstanding;
    ctx.max_finish = time;
    ctx.parent_cpu = parent_cpu;
    if (parent != nullptr) {
      ctx.parent_cont = *parent;
      ctx.has_parent = 1;
    }
    if (ctx.outstanding == 0) {
      complete_ctx(ci);
      return;
    }
    if (g_dynamic_) {
      ctx.dynamic = 1;
      gdyn_.push_back(ci);
      return;
    }
    // Static pre-assignment: rank r onto CPU (parent_cpu + r) mod t.
    const BSub& sub = subs_[sub_idx];
    runtime::for_each_static_range(
        g_schedule_, sub.trips, g_threads_, g_chunk_,
        [&](std::uint32_t rank, runtime::IterRange range) {
          const std::uint32_t cpu = (parent_cpu + rank) % g_threads_;
          std::uint32_t r = run_of(sub, range.begin);
          for (std::uint64_t i = range.begin; i < range.end; ++i) {
            while (runs_[r].cum <= i) ++r;
            GCursor c;
            c.ctx = ci;
            set_task(c, runs_[r].task);
            c.ready_at = time;
            c.charge_dispatch = 1;
            gcpus_[cpu].back.push_back(c);
          }
        });
  }

  /// Dynamic/guided pull, mirroring SharedCounterScheduler::next.
  bool sched_pull(GCtx& ctx, runtime::IterRange* out) {
    const std::uint64_t n = subs_[ctx.sub].trips;
    if (ctx.next_iter >= n) return false;
    *out = runtime::counter_fetch(g_schedule_, g_chunk_, ctx.next_iter, n,
                                  g_threads_);
    ctx.next_iter = out->end;
    return true;
  }

  Cycles g_next_action(std::uint32_t k) const {
    const GCpu& cpu = gcpus_[k];
    if (cpu.has_current) return cpu.free_at;
    Cycles best = kInf;
    if (!cpu.queue_empty()) {
      best = std::max(cpu.free_at, cpu.queue_front().ready_at);
    }
    for (auto it = gdyn_.rbegin(); it != gdyn_.rend(); ++it) {
      const GCtx& ctx = gctxs_[*it];
      if (!ctx.done && ctx.unassigned > 0) {
        best = std::min(best, std::max(cpu.free_at, ctx.spawn_time));
        break;
      }
    }
    return best;
  }

  void g_start_next(std::uint32_t k) {
    GCpu& cpu = gcpus_[k];
    if (!cpu.queue_empty()) {
      GCursor c;
      if (!cpu.front.empty()) {
        c = cpu.front.back();
        cpu.front.pop_back();
      } else {
        c = cpu.back[cpu.back_head++];
      }
      cpu.free_at = std::max(cpu.free_at, c.ready_at);
      if (c.charge_dispatch) {
        cpu.free_at += ov_.iteration_dispatch(g_schedule_);
        c.charge_dispatch = 0;
      }
      cpu.current = c;
      cpu.has_current = 1;
      return;
    }
    for (auto it = gdyn_.rbegin(); it != gdyn_.rend(); ++it) {
      const std::uint32_t ci = *it;
      GCtx& ctx = gctxs_[ci];
      if (ctx.done || ctx.unassigned == 0) continue;
      runtime::IterRange range;
      if (!sched_pull(ctx, &range)) continue;
      ctx.unassigned -= range.size();
      cpu.free_at = std::max(cpu.free_at, ctx.spawn_time) +
                    ov_.range_dispatch(g_schedule_);
      const BSub& sub = subs_[ctx.sub];
      std::uint32_t r = run_of(sub, range.begin);
      while (runs_[r].cum <= range.begin) ++r;
      GCursor first;
      first.ctx = ci;
      set_task(first, runs_[r].task);
      first.charge_dispatch = 0;
      for (std::uint64_t i = range.begin + 1; i < range.end; ++i) {
        while (runs_[r].cum <= i) ++r;
        GCursor rest;
        rest.ctx = ci;
        set_task(rest, runs_[r].task);
        rest.ready_at = cpu.free_at;
        rest.charge_dispatch = 1;
        cpu.back.push_back(rest);
      }
      cpu.current = first;
      cpu.has_current = 1;
      return;
    }
  }

  void g_step(std::uint32_t k) {
    GCpu& cpu = gcpus_[k];
    GCursor& cur = cpu.current;
    // Exhausted-repeat advances are local bookkeeping the scalar engine
    // performs as separate steps — fold them.
    while (cur.seg != cur.seg_end && cur.rep_done >= segs_[cur.seg].rep) {
      ++cur.seg;
      cur.rep_done = 0;
    }
    if (cur.seg == cur.seg_end) {
      // Task completion is a shared mutation: it must happen at this CPU's
      // globally-ordered turn, never folded into the preceding work step
      // (an early parent continuation would shadow queued cursors).
      GCtx& ctx = gctxs_[cur.ctx];
      --ctx.outstanding;
      ctx.max_finish = std::max(ctx.max_finish, cpu.free_at);
      const std::uint32_t ci = cur.ctx;
      cpu.has_current = 0;
      if (ctx.outstanding == 0) complete_ctx(ci);
      return;
    }
    const BSeg& sg = segs_[cur.seg];
    switch (sg.kind) {
      case BSeg::kWork: {
        // Coarse step: a maximal run of local-only work segments.
        do {
          const BSeg& w = segs_[cur.seg];
          if (cur.rep_done < w.rep) {
            cpu.free_at += g_scaled_->seg[cur.seg] * (w.rep - cur.rep_done);
          }
          ++cur.seg;
          cur.rep_done = 0;
        } while (cur.seg != cur.seg_end &&
                 segs_[cur.seg].kind == BSeg::kWork);
        return;
      }
      case BSeg::kLock: {
        ++cur.rep_done;
        cpu.free_at += ov_.lock_acquire;
        Cycles& lock_free = glocks_[sg.lock];
        const Cycles acquired = std::max(cpu.free_at, lock_free);
        const Cycles body_end = acquired + g_scaled_->seg[cur.seg];
        cpu.free_at = body_end;
        lock_free = body_end;
        cpu.free_at += ov_.lock_release;
        return;
      }
      case BSeg::kSpawn: {
        ++cur.rep_done;
        cpu.free_at += g_fork_;
        const Cycles spawn_time = cpu.free_at;
        if (sg.barrier) {
          const GCursor cont = cur;  // copy before the slot is vacated
          cpu.has_current = 0;
          spawn_ctx(sg.sub, spawn_time, &cont, k);
        } else {
          spawn_ctx(sg.sub, spawn_time, nullptr, k);
        }
        return;
      }
    }
  }

  Cycles run_general(CoreCount threads, OmpSchedule schedule,
                     std::uint64_t chunk, const ScaledTab& tab) {
    g_threads_ = threads;
    g_schedule_ = schedule;
    g_chunk_ = chunk;
    g_dynamic_ = schedule == OmpSchedule::Dynamic ||
                 schedule == OmpSchedule::Guided;
    g_fork_ = ov_.fork_cost(threads);
    g_scaled_ = &tab;
    if (gcpus_.size() < threads) gcpus_.resize(threads);
    for (std::uint32_t k = 0; k < threads; ++k) {
      GCpu& cpu = gcpus_[k];
      cpu.free_at = 0;
      cpu.front.clear();
      cpu.back.clear();
      cpu.back_head = 0;
      cpu.has_current = 0;
    }
    gctxs_.clear();
    gdyn_.clear();
    glocks_.assign(lock_map_.size(), 0);

    spawn_ctx(0, 0, nullptr, 0);
    while (true) {
      std::uint32_t best_cpu = 0;
      Cycles best_time = kInf;
      for (std::uint32_t k = 0; k < threads; ++k) {
        const Cycles t = g_next_action(k);
        if (t < best_time) {
          best_time = t;
          best_cpu = k;
        }
      }
      if (best_time == kInf) break;
      GCpu& cpu = gcpus_[best_cpu];
      if (!cpu.has_current) {
        g_start_next(best_cpu);
        if (!cpu.has_current) break;  // defensive, mirrors FfEngine::loop
        continue;
      }
      g_step(best_cpu);
    }
    Cycles end = gctxs_[0].max_finish;
    for (const GCtx& c : gctxs_) end = std::max(end, c.max_finish);
    return end + ov_.join_barrier;
  }

  // ---- immutable program (built once) ----
  View view_;
  NodeRef sec_;
  runtime::OmpOverheads ov_;
  std::vector<BSeg> segs_;
  std::vector<double> len_d_;
  std::vector<BTask> tasks_;
  std::vector<BRun> runs_;
  std::vector<BSub> subs_;
  std::unordered_map<LockId, std::uint32_t> lock_map_;

  // ---- per-instance caches (the incremental-re-evaluation state) ----
  std::vector<ScaledTab> scaled_;
  std::vector<StaticPlan> plans_;
  std::unordered_map<ResultKey, Cycles, ResultKeyHash> results_;
  FfSectionBatch::Stats stats_;

  // ---- pooled general-engine state (reused across points) ----
  std::vector<GCpu> gcpus_;
  std::vector<GCtx> gctxs_;
  std::vector<std::uint32_t> gdyn_;
  std::vector<Cycles> glocks_;
  std::vector<Cycles> free_;  // flat dynamic path scratch
  CoreCount g_threads_ = 0;
  OmpSchedule g_schedule_ = OmpSchedule::StaticCyclic;
  std::uint64_t g_chunk_ = 1;
  bool g_dynamic_ = false;
  Cycles g_fork_ = 0;
  const ScaledTab* g_scaled_ = nullptr;
};

FfResult emulate_ff_section(const tree::CompiledTree& ct,
                            std::uint32_t section, const FfConfig& cfg) {
  if (section >= ct.section_count()) {
    throw std::invalid_argument("emulate_ff_section: section out of range");
  }
  check_cfg(cfg);
  const tree::NodeId sec = ct.section_node(section);
  FfResult r;
  // The aggregates cover one repetition; the serial work counts every
  // repetition of the section.
  r.serial_cycles =
      ct.section_aggregates(section).total_leaf_work * ct.repeat(sec);
  FfEngine engine(runtime::FlatTreeView{&ct}, cfg);
  r.parallel_cycles =
      cfg.overheads.fork_cost(cfg.num_threads) + engine.run_section(sec);
  return r;
}

FfResult emulate_ff(const tree::CompiledTree& ct, const FfConfig& cfg) {
  FfResult total;
  std::uint32_t s = 0;
  for (tree::NodeId c = ct.first_child(ct.root()); c != tree::kNoNode;
       c = ct.next_sibling(c)) {
    for (std::uint64_t rep = 0; rep < ct.repeat(c); ++rep) {
      if (ct.kind(c) == NodeKind::U) {
        total.serial_cycles += ct.length(c);
        total.parallel_cycles += ct.length(c);
      } else if (ct.kind(c) == NodeKind::Sec) {
        const FfResult r = emulate_ff_section(ct, s, cfg);
        total.serial_cycles += r.serial_cycles;
        total.parallel_cycles += r.parallel_cycles;
      }
    }
    if (ct.kind(c) == NodeKind::Sec) ++s;
  }
  return total;
}

FfSectionBatch::FfSectionBatch(const tree::CompiledTree& ct,
                               std::uint32_t section,
                               const runtime::OmpOverheads& overheads) {
  if (section >= ct.section_count()) {
    throw std::invalid_argument("FfSectionBatch: section out of range");
  }
  impl_ = std::make_unique<Impl>(runtime::FlatTreeView{&ct},
                                 ct.section_node(section), overheads);
}

FfSectionBatch::~FfSectionBatch() = default;
FfSectionBatch::FfSectionBatch(FfSectionBatch&&) noexcept = default;
FfSectionBatch& FfSectionBatch::operator=(FfSectionBatch&&) noexcept =
    default;

Cycles FfSectionBatch::evaluate(const BlockPoint& p) {
  return impl_->evaluate(p);
}

std::vector<Cycles> FfSectionBatch::evaluate_block(const PointBlock& block) {
  std::vector<Cycles> out;
  out.reserve(block.size());
  const std::size_t before = impl_->stats().result_reuses;
  for (std::size_t i = 0; i < block.size(); ++i) {
    out.push_back(impl_->evaluate(block.at(i)));
  }
  if (obs::enabled() && !block.empty()) {
    // One flush per block, mirroring the scalar engine's per-section flush.
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("ff.batch.blocks").add(1);
    reg.counter("ff.batch.points").add(block.size());
    reg.counter("ff.batch.result_reuses")
        .add(impl_->stats().result_reuses - before);
  }
  return out;
}

const FfSectionBatch::Stats& FfSectionBatch::stats() const {
  return impl_->stats();
}

}  // namespace pprophet::emul
