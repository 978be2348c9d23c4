#include "runtime/cilk_executor.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>
#include <stdexcept>
#include <variant>
#include <vector>

#include "runtime/tree_view.hpp"
#include "util/rng.hpp"

namespace pprophet::runtime {
namespace {

using machine::Machine;
using machine::Op;
using machine::ThreadId;
using tree::NodeKind;

// Like the OpenMP executor, the replay reads the compiled tree through
// FlatTreeView (runtime/tree_view.hpp).

/// An Exec whose progress is integer cycles: no memory share, no traffic.
bool compute_only(const Op& op) {
  return op.kind == Op::Kind::Exec && op.mem == 0 && op.traffic_mbps == 0.0;
}

/// Join counter for one spawned fan-out (a Sec's iterations). pending counts
/// outstanding items; the event fires when it reaches zero.
struct Join {
  std::uint64_t pending = 0;
  machine::WaitHandle evt = 0;
};

/// A deque entry: a contiguous range of logical iterations of one section.
struct CilkItem {
  tree::NodeId sec{};
  const tree::CompiledTree::TaskTable* index = nullptr;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  Join* join = nullptr;
  LeafCostModel leaf{};
};

struct CilkRuntime {
  FlatTreeView view;
  CilkConfig cfg;
  ExecMode mode;
  Machine* m = nullptr;
  std::vector<std::deque<CilkItem>> deques;  // per worker
  std::vector<std::unique_ptr<Join>> joins;
  /// Section handles shared by all items of one fan-out. A deque never
  /// relocates existing elements on push_back, so the borrowed pointers in
  /// CilkItem stay valid.
  std::deque<tree::CompiledTree::TaskTable> indices;
  std::vector<Cycles> thread_overhead;  // synth traversal, by worker rank
  bool program_done = false;
  machine::WaitHandle idle_evt = 0;  // current sleep latch for idle workers
  util::Xoshiro256 steal_rng;

  CilkRuntime(const FlatTreeView& v, const CilkConfig& c, const ExecMode& md)
      : view(v), cfg(c), mode(md), steal_rng(c.steal_seed) {
    deques.resize(cfg.num_workers);
    thread_overhead.resize(cfg.num_workers, 0);
  }

  bool synth() const { return mode.leaf_mode == LeafCostModel::Mode::Synth; }

  std::uint64_t grain_for(std::uint64_t trip) const {
    if (cfg.grain != 0) return cfg.grain;
    return std::max<std::uint64_t>(1, trip / (8ull * cfg.num_workers));
  }

  Join* make_join() {
    joins.push_back(std::make_unique<Join>());
    joins.back()->evt = m->make_event();
    return joins.back().get();
  }

  const tree::CompiledTree::TaskTable* make_index(tree::NodeId sec) {
    indices.push_back(view.section(sec));
    return &indices.back();
  }

  // Note: pushing work does not wake sleepers by itself — the pushing
  // CilkBody follows up with a Notify op (wake_sleepers) so the wake-up is
  // charged to simulated time like a real futex wake.
  void push_item(std::uint32_t worker, CilkItem item) {
    deques[worker].push_back(item);
  }

  std::optional<CilkItem> pop_own(std::uint32_t worker) {
    auto& d = deques[worker];
    if (d.empty()) return std::nullopt;
    CilkItem item = d.back();
    d.pop_back();
    return item;
  }

  std::optional<std::pair<CilkItem, std::uint32_t>> steal(
      std::uint32_t thief) {
    const std::uint32_t n = cfg.num_workers;
    const auto start = static_cast<std::uint32_t>(
        steal_rng.uniform_u64(0, n == 0 ? 0 : n - 1));
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint32_t victim = (start + k) % n;
      if (victim == thief || deques[victim].empty()) continue;
      CilkItem item = deques[victim].front();
      deques[victim].pop_front();
      return std::make_pair(item, victim);
    }
    return std::nullopt;
  }

  bool any_work() const {
    for (const auto& d : deques) {
      if (!d.empty()) return true;
    }
    return false;
  }

  void track_overhead(std::uint32_t worker, Cycles c) {
    thread_overhead[worker] += c;
  }

  Cycles max_overhead() const {
    Cycles mx = 0;
    for (const Cycles c : thread_overhead) mx = std::max(mx, c);
    return mx;
  }

  LeafCostModel top_level_leaf(tree::NodeId sec) const {
    LeafCostModel leaf;
    leaf.mode = mode.leaf_mode;
    if (synth()) {
      leaf.burden =
          mode.unit_burden ? 1.0 : view.burden(sec, cfg.num_workers);
    } else {
      leaf.split = split_from_counters(view.counters(sec), mode.dram_stall);
    }
    return leaf;
  }
};

class CilkBody final : public machine::ThreadBody {
  using NodeRef = tree::NodeId;
  using ChildCursor = machine::FlatChildWalk;
  using Item = CilkItem;

 public:
  /// Plain worker with no initial frames.
  CilkBody(CilkRuntime& rt, std::uint32_t rank) : rt_(rt), rank_(rank) {}

  /// Worker 0: owns the walk over the given top-level child range.
  CilkBody(CilkRuntime& rt, std::uint32_t rank, ChildCursor walk,
           bool top_level)
      : rt_(rt), rank_(rank) {
    LeafCostModel serial_leaf;
    serial_leaf.mode = rt.mode.leaf_mode;
    stack_.push_back(TaskFrame{walk, serial_leaf, 0, nullptr, top_level});
  }

  /// Folds like OmpBody::next: while the queue holds one compute-only
  /// Exec, the next step runs now if it stays within this worker's frames.
  std::optional<Op> next(Machine& m, ThreadId self) override {
    while (true) {
      if (!pending_.empty() && !fold_next_step()) {
        const Op op = pending_.front();
        pending_.pop_front();
        return op;
      }
      if (stack_.empty()) {
        if (rank_ == 0) {
          // Master done: the program is complete (all syncs resolved).
          rt_.program_done = true;
          if (rt_.idle_evt != 0) {
            emit(Op::notify(rt_.idle_evt));
            rt_.idle_evt = 0;
            continue;
          }
          return std::nullopt;
        }
        if (!idle_step(m)) return std::nullopt;
        continue;
      }
      step(m, self);
    }
  }

 private:
  /// Sequential walk over a Task-like node's children.
  struct TaskFrame {
    ChildCursor walk{};
    LeafCostModel leaf{};
    std::uint64_t rep_done = 0;
    /// When the walk reaches a Sec child, the fan-out's join is stored here
    /// until the matching SyncFrame is pushed.
    Join* open_join = nullptr;
    bool top_level = false;  ///< walking the Root's child sequence
  };

  /// Executing one deque item (an iteration range), splitting lazily.
  struct ItemFrame {
    Item item{};
    std::uint64_t cur = 0;
    bool split_done = false;
    bool counted = false;
  };

  /// cilk_sync: wait for a join while helping with available work.
  struct SyncFrame {
    Join* join = nullptr;
  };

  using Frame = std::variant<TaskFrame, ItemFrame, SyncFrame>;

  /// Queues `op`; a compute-only Exec right behind another one joins it
  /// (see OmpBody::emit).
  void emit(const Op& op) {
    if (!pending_.empty() && compute_only(pending_.back()) &&
        compute_only(op)) {
      pending_.back().compute += op.compute;
      return;
    }
    pending_.push_back(op);
  }

  /// True if the queue holds one compute-only Exec and the next step()
  /// stays within this worker's frames: a task walk's cursor or repeat
  /// advance, U or L leaf or finished-frame pop, or the next iteration of
  /// an item that is done splitting. Anything that touches the deques, a
  /// join, the idle latch or program_done is not.
  bool fold_next_step() const {
    if (pending_.size() != 1 || !compute_only(pending_.front()) ||
        stack_.empty()) {
      return false;
    }
    if (const auto* task = std::get_if<TaskFrame>(&stack_.back())) {
      if (task->open_join != nullptr) return false;
      const FlatTreeView& view = rt_.view;
      if (view.cursor_done(task->walk)) return true;
      const NodeRef c = view.cursor_node(task->walk);
      return task->rep_done >= view.repeat(c) ||
             view.kind(c) == NodeKind::U || view.kind(c) == NodeKind::L;
    }
    const auto* item = std::get_if<ItemFrame>(&stack_.back());
    return item != nullptr && item->counted && item->split_done &&
           item->cur < item->item.end;
  }

  void add_synth_overhead(Cycles c) {
    if (c == 0) return;
    emit(Op::exec(c));
    rt_.track_overhead(rank_, c);
  }

  /// Wakes idle workers after pushing items (rotates the idle latch).
  void wake_sleepers() {
    if (rt_.idle_evt != 0) {
      emit(Op::notify(rt_.idle_evt));
      rt_.idle_evt = 0;
    }
  }

  void spawn_fanout(Machine& m, NodeRef sec, const LeafCostModel& leaf,
                    TaskFrame& f) {
    Join* join = rt_.make_join();
    const auto* index = rt_.make_index(sec);
    join->pending = 1;
    Item item;
    item.sec = sec;
    item.index = index;
    item.begin = 0;
    item.end = rt_.view.trip_count(*index);
    item.join = join;
    item.leaf = leaf;
    rt_.push_item(rank_, item);
    emit(Op::exec(rt_.cfg.overheads.spawn));
    wake_sleepers();
    f.open_join = join;
    (void)m;
  }

  void step_task(Machine& m, TaskFrame& f) {
    if (f.open_join != nullptr) {
      Join* j = f.open_join;
      f.open_join = nullptr;
      stack_.push_back(SyncFrame{j});
      return;
    }
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
    const CilkOverheads& ov = rt_.cfg.overheads;
    switch (view.kind(c)) {
      case NodeKind::U:
        if (rt_.synth()) add_synth_overhead(rt_.mode.synth.access_node);
        emit(f.leaf.leaf_op(view.length(c)));
        return;
      case NodeKind::L:
        if (rt_.synth()) add_synth_overhead(rt_.mode.synth.access_node);
        emit(Op::exec(ov.lock_acquire));
        emit(Op::acquire(view.lock_id(c)));
        emit(f.leaf.leaf_op(view.length(c)));
        emit(Op::release(view.lock_id(c)));
        emit(Op::exec(ov.lock_release));
        return;
      case NodeKind::Sec: {
        if (rt_.synth()) add_synth_overhead(rt_.mode.synth.recursive_call);
        const LeafCostModel leaf =
            f.top_level ? rt_.top_level_leaf(c) : f.leaf;
        spawn_fanout(m, c, leaf, f);
        return;
      }
      case NodeKind::Task:
      case NodeKind::Root:
        throw std::logic_error("cilk executor: invalid child in task walk");
    }
  }

  void complete_item(ItemFrame& f) {
    Join* j = f.item.join;
    assert(j->pending > 0);
    --j->pending;
    if (j->pending == 0) emit(Op::notify(j->evt));
    // Any completion may unblock a syncing worker that found nothing to
    // steal earlier: rotate the idle latch.
    wake_sleepers();
    stack_.pop_back();
  }

  void step_item(Machine& /*m*/, ItemFrame& f) {
    if (!f.counted) {
      f.counted = true;
      f.cur = f.item.begin;
    }
    if (!f.split_done) {
      const std::uint64_t grain =
          rt_.grain_for(rt_.view.trip_count(*f.item.index));
      if (f.item.end - f.item.begin > grain) {
        const std::uint64_t mid = f.item.begin + (f.item.end - f.item.begin) / 2;
        Item half = f.item;
        half.begin = mid;
        ++f.item.join->pending;
        rt_.push_item(rank_, half);
        emit(Op::exec(rt_.cfg.overheads.loop_split));
        wake_sleepers();
        f.item.end = mid;
        if (f.cur < f.item.begin) f.cur = f.item.begin;
        return;  // keep splitting (or fall through next step)
      }
      f.split_done = true;
    }
    if (f.cur < f.item.end) {
      const std::uint64_t i = f.cur++;
      const FlatTreeView& view = rt_.view;
      stack_.push_back(
          TaskFrame{view.children(view.task_at(*f.item.index, i)),
                    f.item.leaf, 0, nullptr, false});
      return;
    }
    complete_item(f);
  }

  /// Take work from anywhere; returns true if an ItemFrame was pushed.
  bool acquire_work() {
    if (std::optional<Item> own = rt_.pop_own(rank_)) {
      ItemFrame f;
      f.item = *own;
      stack_.push_back(f);
      return true;
    }
    if (auto stolen = rt_.steal(rank_)) {
      emit(Op::exec(rt_.cfg.overheads.steal));
      ItemFrame f;
      f.item = stolen->first;
      stack_.push_back(f);
      return true;
    }
    return false;
  }

  void step_sync(Machine& m, SyncFrame& f) {
    if (f.join->pending == 0) {
      stack_.pop_back();
      return;
    }
    if (acquire_work()) return;
    // Nothing to help with right now. Sleep on the idle latch rather than
    // the join event: new stealable work (pushed by a thief splitting our
    // range) must wake us too, or we would idle while work queues up.
    if (rt_.idle_evt == 0) rt_.idle_evt = m.make_event();
    emit(Op::wait(rt_.idle_evt));
  }

  /// Idle loop for workers with no frames. Returns false to exit.
  bool idle_step(Machine& m) {
    if (rt_.program_done) return false;
    if (acquire_work()) return true;
    ++idle_probes_;
    if (idle_probes_ < 2) {
      emit(Op::exec(rt_.cfg.overheads.idle_probe));
      return true;
    }
    idle_probes_ = 0;
    if (rt_.idle_evt == 0) rt_.idle_evt = m.make_event();
    emit(Op::wait(rt_.idle_evt));
    return true;
  }

  void step(Machine& m, ThreadId /*self*/) {
    Frame& top = stack_.back();
    if (auto* task = std::get_if<TaskFrame>(&top)) {
      step_task(m, *task);
    } else if (auto* item = std::get_if<ItemFrame>(&top)) {
      step_item(m, *item);
    } else {
      step_sync(m, std::get<SyncFrame>(top));
    }
  }

  CilkRuntime& rt_;
  std::uint32_t rank_;
  std::vector<Frame> stack_;
  std::deque<Op> pending_;
  int idle_probes_ = 0;
};

RunResult run_walk_cilk(const FlatTreeView& view, machine::FlatChildWalk walk,
                        const machine::MachineConfig& mcfg,
                        const CilkConfig& ccfg, const ExecMode& mode) {
  if (ccfg.num_workers == 0) {
    throw std::invalid_argument("cilk executor: num_workers must be >= 1");
  }
  Machine machine(mcfg);
  machine.set_timeline(mode.timeline);
  CilkRuntime rt(view, ccfg, mode);
  rt.m = &machine;
  machine.spawn_thread(
      std::make_unique<CilkBody>(rt, 0, walk, /*top_level=*/true));
  for (std::uint32_t w = 1; w < ccfg.num_workers; ++w) {
    machine.spawn_thread(std::make_unique<CilkBody>(rt, w));
  }
  RunResult result;
  result.stats = machine.run();
  result.elapsed = result.stats.finish_time;
  result.traversal_overhead = rt.max_overhead();
  return result;
}

}  // namespace

RunResult run_tree_cilk(const tree::CompiledTree& ct,
                        const machine::MachineConfig& mcfg,
                        const CilkConfig& ccfg, const ExecMode& mode) {
  const FlatTreeView view{&ct};
  return run_walk_cilk(view, view.children(ct.root()), mcfg, ccfg, mode);
}

RunResult run_section_cilk(const tree::CompiledTree& ct, std::uint32_t section,
                           const machine::MachineConfig& mcfg,
                           const CilkConfig& ccfg, const ExecMode& mode) {
  if (section >= ct.section_count()) {
    throw std::invalid_argument("run_section_cilk: section out of range");
  }
  return run_walk_cilk(
      FlatTreeView{&ct},
      machine::FlatChildWalk::single(ct, ct.section_node(section)), mcfg,
      ccfg, mode);
}

}  // namespace pprophet::runtime
