#include "machine/machine.hpp"

#include "machine/timeline.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace pprophet::machine {

// ---------------------------------------------------------------------------
// Internal state structures
// ---------------------------------------------------------------------------

struct Machine::SimThread {
  ThreadId id = 0;
  std::unique_ptr<ThreadBody> body;
  enum class State : std::uint8_t { Ready, Running, Blocked, Exited };
  State state = State::Ready;
  std::uint64_t generation = 0;  // invalidates OpComplete events

  bool has_op = false;  // true while an Exec op is in flight
  Op op;
  // Remaining cycles of `op` at `resume_time`, the start of its current
  // segment. Compute stays integral until a memory share rescales it.
  double remaining_compute = 0.0;
  double remaining_mem = 0.0;
  Cycles resume_time = 0;

  std::uint32_t core = ~0u;   // valid while Running
  Cycles running_since = 0;    // dispatch time of the current run span
  bool was_preempted = false;  // charge context switch on next dispatch
  WaitHandle exit_evt = 0;
  Cycles blocked_since = 0;
  bool blocked_on_lock = false;
};

struct Machine::Core {
  ThreadId running = kNoThread;
  std::uint32_t next_push = ~0u;  // next core in the push list
  std::uint64_t generation = 0;  // invalidates QuantumCheck events
  Cycles dispatched_at = 0;
  bool quantum_pending = false;
  bool push_listed = false;  // on the push list until push_completions
};

struct Machine::WaitObject {
  bool notified = false;
  std::vector<ThreadId> waiters;
};

struct Machine::Mutex {
  ThreadId owner = kNoThread;
  std::deque<ThreadId> waiters;
};

// ---------------------------------------------------------------------------

Machine::Machine(const MachineConfig& cfg) : cfg_(cfg), bw_(cfg.bandwidth) {
  // One SimThread is allocated per simulated thread, and profiles read host
  // heap addresses: from 137 to 152 bytes it stays in the same 160-byte
  // malloc chunk, so the machine's heap footprint (and pred_err_pct) is
  // unchanged. The same holds for the cores_ array.
  static_assert(sizeof(SimThread) > 136 && sizeof(SimThread) <= 152,
                "SimThread size changes heap layout");
  static_assert(sizeof(Core) == 32, "Core size changes heap layout");
  if (cfg_.cores == 0) throw std::invalid_argument("machine needs >= 1 core");
  cores_.resize(cfg_.cores);
}

Machine::~Machine() = default;

ThreadId Machine::spawn_thread(std::unique_ptr<ThreadBody> body) {
  assert(body != nullptr);
  const auto tid = static_cast<ThreadId>(threads_.size());
  auto t = std::make_unique<SimThread>();
  t->id = tid;
  t->body = std::move(body);
  t->exit_evt = make_event();
  threads_.push_back(std::move(t));
  ++stats_.spawned_threads;
  make_ready(tid);
  return tid;
}

WaitHandle Machine::make_event() {
  waits_.emplace_back();
  return static_cast<WaitHandle>(waits_.size() - 1);
}

bool Machine::event_notified(WaitHandle h) const {
  return waits_.at(h).notified;
}

WaitHandle Machine::exit_event(ThreadId tid) const {
  return threads_.at(tid)->exit_evt;
}

double Machine::current_demand() const {
  double demand = 0.0;
  for (const Core& c : cores_) {
    if (c.running == kNoThread) continue;
    const SimThread& t = *threads_[c.running];
    if (t.has_op) demand += t.op.traffic_mbps;
  }
  return demand;
}

void Machine::start_segment(SimThread& t) {
  t.resume_time = now_;
  if (t.op.traffic_mbps != 0.0) ++traffic_ops_;
  list_push(t.core);
}

void Machine::advance(SimThread& t) {
  const Cycles dt = now_ - t.resume_time;
  t.resume_time = now_;
  if (dt == 0) return;
  stats_.total_busy += dt;
  if (t.remaining_mem == 0.0) {
    // Compute-only: an integer minus an integer, exact below 2^53.
    assert(static_cast<double>(dt) <= t.remaining_compute);
    t.remaining_compute -= static_cast<double>(dt);
    return;
  }
  const double total = t.remaining_compute + dilation_ * t.remaining_mem;
  const double q = std::min(1.0, static_cast<double>(dt) / total);
  t.remaining_compute *= (1.0 - q);
  t.remaining_mem *= (1.0 - q);
}

void Machine::list_push(std::uint32_t core_idx) {
  Core& c = cores_[core_idx];
  if (c.push_listed) return;
  c.push_listed = true;
  c.next_push = push_head_;
  push_head_ = core_idx;
}

void Machine::push_completions() {
  const double dilation =
      traffic_ops_ == 0 ? 1.0 : bw_.dilation(current_demand());
  if (dilation != dilation_) {
    // Close every memory-bound segment at the old dilation and start a new
    // one; compute-only completions stand (see the header comment).
    for (std::uint32_t i = 0; i < cores_.size(); ++i) {
      const Core& c = cores_[i];
      if (c.running == kNoThread) continue;
      SimThread& t = *threads_[c.running];
      if (t.remaining_mem == 0.0) continue;
      advance(t);
      list_push(i);
    }
    dilation_ = dilation;
  }
  while (push_head_ != ~0u) {
    const std::uint32_t i = push_head_;
    Core& c = cores_[i];
    push_head_ = c.next_push;
    c.push_listed = false;
    SimThread& t = *threads_[c.running];
    assert(t.has_op && t.resume_time == now_);
    const Cycles due =
        now_ + static_cast<Cycles>(std::ceil(t.remaining_compute +
                                             dilation_ * t.remaining_mem));
    ++t.generation;
    ++stats_.reschedules;
    queue_.push(Event{due, i, Event::Kind::OpComplete, t.id, t.generation});
  }
}

void Machine::schedule_quantum_checks() {
  for (std::uint32_t i = 0; i < cores_.size(); ++i) {
    Core& c = cores_[i];
    if (c.running == kNoThread || c.quantum_pending) continue;
    c.quantum_pending = true;
    const Cycles deadline = std::max(now_, c.dispatched_at + cfg_.quantum);
    queue_.push(Event{deadline, ++quantum_seq_, Event::Kind::QuantumCheck, i,
                      c.generation});
  }
}

void Machine::make_ready(ThreadId tid) {
  SimThread& t = *threads_[tid];
  if (t.state == SimThread::State::Blocked && t.blocked_on_lock) {
    stats_.total_lock_wait += now_ - t.blocked_since;
    if (timeline_ != nullptr) {
      timeline_->record(t.id, t.blocked_since, now_,
                        TimelineSpan::Kind::LockWait);
    }
  }
  t.state = SimThread::State::Ready;
  t.blocked_on_lock = false;
  ready_.push_back(tid);
  for (std::uint32_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].running == kNoThread) {
      dispatch(i);
      return;
    }
  }
  // No idle core: arm preemption so the queued thread eventually runs.
  schedule_quantum_checks();
}

void Machine::dispatch(std::uint32_t core_idx) {
  Core& core = cores_[core_idx];
  // The core may have been filled by a reentrant make_ready (e.g. a waiter
  // woken by finish_thread grabbed it); nothing to do then.
  if (core.running != kNoThread) return;
  if (ready_.empty()) return;
  const ThreadId tid = ready_.front();
  ready_.pop_front();
  SimThread& t = *threads_[tid];
  assert(t.state == SimThread::State::Ready);
  t.state = SimThread::State::Running;
  t.core = core_idx;
  t.running_since = now_;
  core.running = tid;
  core.dispatched_at = now_;
  ++core.generation;
  core.quantum_pending = false;
  if (t.was_preempted) {
    // Re-dispatch cost: kernel path + cache refill, modelled as extra
    // compute prepended to whatever the thread was doing.
    t.remaining_compute += static_cast<double>(cfg_.context_switch);
    t.was_preempted = false;
    ++stats_.context_switches;
  }
  if (!ready_.empty()) schedule_quantum_checks();
  if (t.has_op) {
    start_segment(t);
  } else {
    // Fresh thread or one that was blocked on a zero-time op: pull work.
    fetch_and_process_ops(tid);
  }
}

void Machine::block_current(SimThread& t) {
  assert(t.state == SimThread::State::Running);
  if (timeline_ != nullptr) {
    timeline_->record(t.id, t.running_since, now_, TimelineSpan::Kind::Run);
  }
  const std::uint32_t core_idx = t.core;
  t.state = SimThread::State::Blocked;
  t.blocked_since = now_;
  t.core = ~0u;
  ++t.generation;  // kill any in-flight completion event
  cores_[core_idx].running = kNoThread;
  ++cores_[core_idx].generation;
  dispatch(core_idx);
}

void Machine::finish_thread(ThreadId tid) {
  SimThread& t = *threads_[tid];
  assert(t.state == SimThread::State::Running);
  if (timeline_ != nullptr) {
    timeline_->record(t.id, t.running_since, now_, TimelineSpan::Kind::Run);
  }
  const std::uint32_t core_idx = t.core;
  t.state = SimThread::State::Exited;
  t.core = ~0u;
  ++t.generation;
  cores_[core_idx].running = kNoThread;
  ++cores_[core_idx].generation;
  // Notify joiners.
  WaitObject& w = waits_[t.exit_evt];
  w.notified = true;
  std::vector<ThreadId> waiters = std::move(w.waiters);
  w.waiters.clear();
  for (const ThreadId wt : waiters) make_ready(wt);
  dispatch(core_idx);
}

void Machine::fetch_and_process_ops(ThreadId tid) {
  SimThread& t = *threads_[tid];
  while (true) {
    if (t.state != SimThread::State::Running) return;
    if (!t.has_op) {
      std::optional<Op> op = t.body->next(*this, tid);
      if (!op.has_value()) {
        finish_thread(tid);
        return;
      }
      t.op = *op;
      if (t.op.kind == Op::Kind::Exec) {
        t.has_op = true;
        t.remaining_compute = static_cast<double>(t.op.compute);
        t.remaining_mem = static_cast<double>(t.op.mem);
        start_segment(t);
        return;  // the op now runs; push_completions queues its completion
      }
    }
    // Zero-time control ops.
    const Op op = t.op;
    t.has_op = false;
    switch (op.kind) {
      case Op::Kind::Exec:
        // handled above; unreachable
        return;
      case Op::Kind::Acquire: {
        if (op.lock >= mutexes_.size()) mutexes_.resize(op.lock + 1);
        Mutex& m = mutexes_[op.lock];
        ++stats_.lock_acquisitions;
        if (m.owner == kNoThread) {
          m.owner = tid;
          continue;
        }
        ++stats_.lock_contentions;
        m.waiters.push_back(tid);
        t.blocked_on_lock = true;
        block_current(t);
        return;
      }
      case Op::Kind::Release: {
        if (op.lock >= mutexes_.size() || mutexes_[op.lock].owner != tid) {
          throw std::logic_error("machine: release of a lock not owned");
        }
        Mutex& m = mutexes_[op.lock];
        if (m.waiters.empty()) {
          m.owner = kNoThread;
        } else {
          const ThreadId next_owner = m.waiters.front();
          m.waiters.pop_front();
          m.owner = next_owner;
          make_ready(next_owner);
        }
        continue;
      }
      case Op::Kind::Wait: {
        WaitObject& w = waits_.at(op.wait_handle);
        if (w.notified) continue;
        w.waiters.push_back(tid);
        block_current(t);
        return;
      }
      case Op::Kind::Notify: {
        WaitObject& w = waits_.at(op.wait_handle);
        w.notified = true;
        std::vector<ThreadId> waiters = std::move(w.waiters);
        w.waiters.clear();
        for (const ThreadId wt : waiters) make_ready(wt);
        continue;
      }
    }
  }
}

void Machine::preempt(std::uint32_t core_idx) {
  Core& core = cores_[core_idx];
  const ThreadId tid = core.running;
  assert(tid != kNoThread);
  SimThread& t = *threads_[tid];
  assert(t.has_op);
  if (timeline_ != nullptr) {
    timeline_->record(t.id, t.running_since, now_, TimelineSpan::Kind::Run);
  }
  advance(t);
  if (t.op.traffic_mbps != 0.0) --traffic_ops_;
  t.state = SimThread::State::Ready;
  t.was_preempted = true;
  t.core = ~0u;
  ++t.generation;
  core.running = kNoThread;
  ++core.generation;
  ready_.push_back(tid);
  ++stats_.preemptions;
  dispatch(core_idx);
}

void Machine::on_op_complete(ThreadId tid) {
  SimThread& t = *threads_[tid];
  stats_.total_busy += now_ - t.resume_time;
  if (t.op.traffic_mbps != 0.0) --traffic_ops_;
  t.has_op = false;
  t.remaining_compute = 0.0;
  t.remaining_mem = 0.0;
  fetch_and_process_ops(tid);
}

MachineStats Machine::run() {
  if (ran_) throw std::logic_error("Machine::run may only be called once");
  ran_ = true;
  push_completions();  // threads spawned before run()
  while (!queue_.empty()) {
    const Event e = queue_.top();
    queue_.pop();
    ++stats_.events;
    assert(e.time >= now_);
    switch (e.kind) {
      case Event::Kind::OpComplete: {
        SimThread& t = *threads_[e.target];
        if (e.generation != t.generation ||
            t.state != SimThread::State::Running || !t.has_op) {
          ++stats_.stale_events;
          continue;
        }
        now_ = e.time;
        on_op_complete(e.target);
        break;
      }
      case Event::Kind::QuantumCheck: {
        Core& core = cores_[e.target];
        if (e.generation != core.generation) {
          ++stats_.stale_events;
          continue;
        }
        core.quantum_pending = false;
        if (core.running == kNoThread) continue;
        if (ready_.empty()) continue;  // nothing waiting; keep running
        now_ = e.time;
        preempt(e.target);
        break;
      }
    }
    push_completions();
  }
  stats_.finish_time = now_;
  for (const auto& t : threads_) {
    if (t->state != SimThread::State::Exited) {
      throw std::logic_error(
          "machine: event queue drained with live threads (deadlock: thread " +
          std::to_string(t->id) + " is stuck)");
    }
  }
  if (obs::enabled()) {
    // Batched mirror of MachineStats: one flush per run keeps the event
    // loop itself free of metric updates.
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("machine.runs").add(1);
    reg.counter("machine.context_switches").add(stats_.context_switches);
    reg.counter("machine.preemptions").add(stats_.preemptions);
    reg.counter("machine.lock_acquisitions").add(stats_.lock_acquisitions);
    reg.counter("machine.lock_contentions").add(stats_.lock_contentions);
    reg.counter("machine.spawned_threads").add(stats_.spawned_threads);
    reg.counter("machine.busy_cycles").add(stats_.total_busy);
    reg.counter("machine.lock_wait_cycles").add(stats_.total_lock_wait);
    reg.counter("machine.events").add(stats_.events);
    reg.counter("machine.stale_events").add(stats_.stale_events);
    reg.counter("machine.reschedules").add(stats_.reschedules);
  }
  return stats_;
}

}  // namespace pprophet::machine
