#include "runtime/omp_executor.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>
#include <stdexcept>
#include <variant>

#include "runtime/tree_view.hpp"

namespace pprophet::runtime {
namespace {

using machine::Machine;
using machine::Op;
using machine::ThreadId;
using tree::NodeKind;

// The replay reads the compiled tree through FlatTreeView
// (runtime/tree_view.hpp).

/// An Exec whose progress is integer cycles: no memory share, no traffic.
bool compute_only(const Op& op) {
  return op.kind == Op::Kind::Exec && op.mem == 0 && op.traffic_mbps == 0.0;
}

/// Shared state of one forked parallel region.
struct TeamContext {
  tree::NodeId sec{};
  tree::CompiledTree::TaskTable index;
  std::unique_ptr<IterScheduler> sched;
  std::uint32_t size = 0;
  std::uint32_t arrivals = 0;
  machine::WaitHandle done = 0;
  LeafCostModel leaf{};

  TeamContext(tree::NodeId s, tree::CompiledTree::TaskTable h)
      : sec(s), index(std::move(h)) {}
};

/// Per-run shared services: configuration, team ownership, synth-overhead
/// tracking.
struct OmpRuntime {
  FlatTreeView view;
  OmpConfig cfg;
  ExecMode mode;
  std::vector<std::unique_ptr<TeamContext>> teams;
  std::vector<Cycles> thread_overhead;  // synth traversal cost by ThreadId

  OmpRuntime(const FlatTreeView& v, const OmpConfig& c, const ExecMode& m)
      : view(v), cfg(c), mode(m) {}

  bool synth() const { return mode.leaf_mode == LeafCostModel::Mode::Synth; }

  void track_overhead(ThreadId tid, Cycles c) {
    if (thread_overhead.size() <= tid) thread_overhead.resize(tid + 1, 0);
    thread_overhead[tid] += c;
  }

  Cycles max_overhead() const {
    Cycles m = 0;
    for (const Cycles c : thread_overhead) m = std::max(m, c);
    return m;
  }

  TeamContext* open_team(Machine& m, tree::NodeId sec,
                         const LeafCostModel& leaf) {
    auto team = std::make_unique<TeamContext>(sec, view.section(sec));
    team->size = cfg.num_threads;
    team->sched = make_scheduler(cfg.schedule, view.trip_count(team->index),
                                 cfg.num_threads, cfg.chunk);
    team->done = m.make_event();
    team->leaf = leaf;
    teams.push_back(std::move(team));
    return teams.back().get();
  }

  /// LeafCostModel for a *top-level* section: counters (Real) or burden
  /// factor (Synth) of that section.
  LeafCostModel top_level_leaf(tree::NodeId sec) const {
    LeafCostModel leaf;
    leaf.mode = mode.leaf_mode;
    if (synth()) {
      leaf.burden =
          mode.unit_burden ? 1.0 : view.burden(sec, cfg.num_threads);
    } else {
      leaf.split = split_from_counters(view.counters(sec), mode.dram_stall);
    }
    return leaf;
  }
};

class OmpBody final : public machine::ThreadBody {
  using NodeRef = tree::NodeId;
  using ChildCursor = machine::FlatChildWalk;

 public:
  /// Program master: walks the given child range sequentially. `top_level`
  /// marks the range as root-level (sections encountered there own their
  /// burden factor / counters).
  OmpBody(OmpRuntime& rt, ChildCursor walk, bool top_level) : rt_(rt) {
    LeafCostModel serial_leaf;  // top-level serial code: no split, burden 1
    serial_leaf.mode = rt.mode.leaf_mode;
    stack_.push_back(SeqFrame{walk, serial_leaf, 0, top_level});
  }

  /// Team worker with the given rank (>= 1; the master is rank 0).
  OmpBody(OmpRuntime& rt, TeamContext* team, std::uint32_t rank) : rt_(rt) {
    stack_.push_back(TeamFrame{team, rank, /*is_master=*/false});
  }

  /// Hands the machine the fewest ops that give the same schedule. While
  /// the queue holds one compute-only Exec, the steps that touch only this
  /// thread's frames run now rather than when it completes, and emit()
  /// adds their compute to it: a static-schedule thread's run of SYN
  /// iterations becomes one Exec. A Sec, an Arrive, a dynamic or guided
  /// fetch, or a queued control op stops the fold (docs/INTERNALS.md).
  std::optional<Op> next(Machine& m, ThreadId self) override {
    while (true) {
      if (!pending_.empty() && !fold_next_step()) {
        const Op op = pending_.front();
        pending_.pop_front();
        return op;
      }
      if (stack_.empty()) return std::nullopt;
      step(m, self);
    }
  }

 private:
  /// Sequential walk over a Task-like node's children (also used for the
  /// Root's top-level sequence).
  struct SeqFrame {
    ChildCursor walk{};
    LeafCostModel leaf{};
    std::uint64_t rep_done = 0;
    bool top_level = false;  ///< walking the Root's child sequence
  };

  /// Participation in one parallel region.
  struct TeamFrame {
    TeamContext* team = nullptr;
    std::uint32_t rank = 0;
    bool is_master = false;
    enum class Phase : std::uint8_t { Fetch, Arrive, WaitDone, Done };
    Phase phase = Phase::Fetch;
    IterRange range{};
    std::uint64_t next_iter = 0;
    bool range_active = false;
  };

  using Frame = std::variant<SeqFrame, TeamFrame>;

  /// Queues `op`. A compute-only Exec right behind another one joins it:
  /// back-to-back compute on one thread finishes at the same instant as
  /// one op, and a preemption charges whichever op is in flight.
  void emit(const Op& op) {
    if (!pending_.empty() && compute_only(pending_.back()) &&
        compute_only(op)) {
      pending_.back().compute += op.compute;
      return;
    }
    pending_.push_back(op);
  }

  /// True if the queue holds one compute-only Exec and the next step()
  /// reads and writes only this thread's frames and its rank's
  /// static-schedule state: a cursor or repeat advance, a U or L leaf, the
  /// next iteration of an active range, a static fetch, or popping a
  /// finished frame.
  bool fold_next_step() const {
    if (pending_.size() != 1 || !compute_only(pending_.front()) ||
        stack_.empty()) {
      return false;
    }
    if (const auto* seq = std::get_if<SeqFrame>(&stack_.back())) {
      const FlatTreeView& view = rt_.view;
      if (view.cursor_done(seq->walk)) return true;
      const NodeRef c = view.cursor_node(seq->walk);
      return seq->rep_done >= view.repeat(c) || view.kind(c) == NodeKind::U ||
             view.kind(c) == NodeKind::L;
    }
    const auto* team = std::get_if<TeamFrame>(&stack_.back());
    if (team == nullptr || team->phase == TeamFrame::Phase::Arrive) {
      return false;
    }
    if (team->phase != TeamFrame::Phase::Fetch) return true;  // a pop
    return (team->range_active && team->next_iter < team->range.end) ||
           rt_.cfg.schedule == OmpSchedule::StaticCyclic ||
           rt_.cfg.schedule == OmpSchedule::StaticBlock;
  }

  void add_synth_overhead(ThreadId self, Cycles c) {
    if (c == 0) return;
    emit(Op::exec(c));
    rt_.track_overhead(self, c);
  }

  void step_seq(Machine& m, ThreadId self, SeqFrame& f) {
    const FlatTreeView& view = rt_.view;
    if (view.cursor_done(f.walk)) {
      stack_.pop_back();
      return;
    }
    const NodeRef c = view.cursor_node(f.walk);
    if (f.rep_done >= view.repeat(c)) {
      view.cursor_advance(f.walk);
      f.rep_done = 0;
      return;
    }
    ++f.rep_done;
    const OmpOverheads& ov = rt_.cfg.overheads;
    switch (view.kind(c)) {
      case NodeKind::U:
        if (rt_.synth()) add_synth_overhead(self, rt_.mode.synth.access_node);
        emit(f.leaf.leaf_op(view.length(c)));
        return;
      case NodeKind::L:
        if (rt_.synth()) add_synth_overhead(self, rt_.mode.synth.access_node);
        emit(Op::exec(ov.lock_acquire));
        emit(Op::acquire(view.lock_id(c)));
        emit(f.leaf.leaf_op(view.length(c)));
        emit(Op::release(view.lock_id(c)));
        emit(Op::exec(ov.lock_release));
        return;
      case NodeKind::Sec: {
        if (rt_.synth()) {
          add_synth_overhead(self, rt_.mode.synth.recursive_call);
        }
        const LeafCostModel leaf =
            f.top_level ? rt_.top_level_leaf(c) : f.leaf;
        TeamContext* team = rt_.open_team(m, c, leaf);
        emit(Op::exec(ov.fork_cost(rt_.cfg.num_threads)));
        for (std::uint32_t r = 1; r < rt_.cfg.num_threads; ++r) {
          m.spawn_thread(std::make_unique<OmpBody>(rt_, team, r));
        }
        stack_.push_back(TeamFrame{team, 0, /*is_master=*/true});
        return;
      }
      case NodeKind::Task:
      case NodeKind::Root:
        throw std::logic_error("omp executor: invalid child kind in Seq walk");
    }
  }

  void step_team(Machine& /*m*/, ThreadId /*self*/, TeamFrame& f) {
    const FlatTreeView& view = rt_.view;
    TeamContext& team = *f.team;
    switch (f.phase) {
      case TeamFrame::Phase::Fetch: {
        if (f.range_active && f.next_iter < f.range.end) {
          const std::uint64_t i = f.next_iter++;
          stack_.push_back(
              SeqFrame{view.children(view.task_at(team.index, i)), team.leaf,
                       0, false});
          return;
        }
        const std::optional<IterRange> r = team.sched->next(f.rank);
        if (!r.has_value()) {
          f.phase = TeamFrame::Phase::Arrive;
          return;
        }
        f.range = *r;
        f.next_iter = r->begin;
        f.range_active = true;
        emit(Op::exec(
            rt_.cfg.overheads.range_dispatch(rt_.cfg.schedule)));
        return;
      }
      case TeamFrame::Phase::Arrive: {
        ++team.arrivals;
        const bool last = team.arrivals == team.size;
        if (last) emit(Op::notify(team.done));
        if (view.barrier_at_end(team.sec)) {
          emit(Op::exec(rt_.cfg.overheads.join_barrier));
          emit(Op::wait(team.done));
        }
        // nowait: nobody blocks; stragglers just finish on their own.
        f.phase = TeamFrame::Phase::Done;
        return;
      }
      case TeamFrame::Phase::WaitDone:
      case TeamFrame::Phase::Done:
        stack_.pop_back();
        return;
    }
  }

  void step(Machine& m, ThreadId self) {
    Frame& top = stack_.back();
    if (auto* seq = std::get_if<SeqFrame>(&top)) {
      step_seq(m, self, *seq);
    } else {
      step_team(m, self, std::get<TeamFrame>(top));
    }
  }

  OmpRuntime& rt_;
  std::vector<Frame> stack_;
  std::deque<Op> pending_;
};

RunResult run_walk(const FlatTreeView& view, machine::FlatChildWalk walk,
                   const machine::MachineConfig& mcfg, const OmpConfig& ocfg,
                   const ExecMode& mode) {
  if (ocfg.num_threads == 0) {
    throw std::invalid_argument("omp executor: num_threads must be >= 1");
  }
  Machine machine(mcfg);
  machine.set_timeline(mode.timeline);
  OmpRuntime rt(view, ocfg, mode);
  machine.spawn_thread(std::make_unique<OmpBody>(rt, walk, /*top_level=*/true));
  RunResult result;
  result.stats = machine.run();
  result.elapsed = result.stats.finish_time;
  result.traversal_overhead = rt.max_overhead();
  return result;
}

}  // namespace

RunResult run_tree_omp(const tree::CompiledTree& ct,
                       const machine::MachineConfig& mcfg,
                       const OmpConfig& ocfg, const ExecMode& mode) {
  const FlatTreeView view{&ct};
  return run_walk(view, view.children(ct.root()), mcfg, ocfg, mode);
}

RunResult run_section_omp(const tree::CompiledTree& ct, std::uint32_t section,
                          const machine::MachineConfig& mcfg,
                          const OmpConfig& ocfg, const ExecMode& mode) {
  if (section >= ct.section_count()) {
    throw std::invalid_argument("run_section_omp: section out of range");
  }
  // Walk the single-node range holding the section, so its own repeat
  // count replays inside the run.
  return run_walk(FlatTreeView{&ct},
                  machine::FlatChildWalk::single(ct, ct.section_node(section)),
                  mcfg, ocfg, mode);
}

}  // namespace pprophet::runtime
