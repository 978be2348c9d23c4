// Discrete-event simulator of an N-core shared-memory machine.
//
// This substrate replaces the paper's physical 12-core Westmere testbed.
// "Real" speedups in every experiment are produced by running the actual
// parallel task structure of a workload on this machine; the synthesizer
// emulator also executes its generated programs here.
//
// Modelled:
//  * N cores with a preemptive round-robin OS scheduler (time quantum,
//    context-switch cost, oversubscription — more threads than cores simply
//    time-share, which is exactly what the FF emulator fails to model in
//    the paper's Figure 7);
//  * futex-style mutexes with FIFO wait queues;
//  * wait/notify events (latches) for joins and barriers;
//  * a DRAM bandwidth-saturation model: each Exec op declares its memory
//    share and solo traffic; concurrent memory-bound execution dilates the
//    memory portion of every running op (see bandwidth.hpp).
//
// Threads are pull-model state machines: a ThreadBody yields one Op at a
// time. Exec ops take simulated time; Acquire/Release/Wait/Notify are
// instantaneous control ops (runtime models add explicit Exec overhead ops
// around them to charge costs).
//
// Event scheduling. A running Exec op is accounted in segments. A segment
// starts when the op starts, when its thread is dispatched with it in
// flight, or when the bandwidth dilation changes; the thread then holds its
// remaining compute and memory cycles and the segment's start time. Within a
// segment progress is linear, so the op is due at
// start + ceil(compute + dilation * mem) and no later event touches it. A
// segment ends when the op completes, when its thread is preempted, or when
// the dilation changes: a compute-only op then advances by integer
// subtraction (exact, so completions never drift), an op with a memory share
// is rescaled by the elapsed fraction of its remaining time.
//
// After each processed event the machine pushes one OpComplete per core whose
// thread started a segment during the event (an intrusive list threaded
// through Core). Demand is summed only while some running op declares DRAM
// traffic; otherwise it is 0 and the dilation 1. When the dilation changes,
// every op with a memory share starts a new segment and is re-pushed;
// compute-only completions stand, since their due time does not depend on
// the dilation. Each push bumps the thread's generation, which turns its
// previous event stale.
//
// Same-time ordering. Events pop by (time, QuantumCheck before OpComplete,
// order), where `order` is the push order of a quantum check and the core
// index of a completion. A core holds at most one live completion, so live
// events never tie.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "machine/bandwidth.hpp"
#include "util/types.hpp"

namespace pprophet::machine {

using ThreadId = std::uint32_t;
using WaitHandle = std::uint32_t;

inline constexpr ThreadId kNoThread = ~0u;

struct MachineConfig {
  CoreCount cores = 4;
  /// OS scheduling quantum. Relevant only under oversubscription.
  Cycles quantum = 100'000;
  /// Cost charged to a thread each time it is dispatched after having been
  /// preempted or migrated (cache refill + kernel path).
  Cycles context_switch = 1'500;
  BandwidthConfig bandwidth{};
};

/// One primitive operation of a simulated thread.
struct Op {
  enum class Kind : std::uint8_t {
    Exec,     ///< compute for `compute` + `mem` cycles (mem part dilates)
    Acquire,  ///< lock `lock`; blocks while held by another thread
    Release,  ///< unlock `lock`; must be the current owner
    Wait,     ///< block until `wait` is notified (no-op if already)
    Notify,   ///< notify `wait`, waking all current and future waiters
  };

  Kind kind = Kind::Exec;
  Cycles compute = 0;        ///< Exec: contention-immune cycles
  Cycles mem = 0;            ///< Exec: memory-stall cycles (dilatable)
  double traffic_mbps = 0;   ///< Exec: solo DRAM traffic while running
  LockId lock = 0;           ///< Acquire/Release
  WaitHandle wait_handle = 0;  ///< Wait/Notify

  static Op exec(Cycles compute_cycles, Cycles mem_cycles = 0,
                 double traffic = 0.0) {
    Op op;
    op.kind = Kind::Exec;
    op.compute = compute_cycles;
    op.mem = mem_cycles;
    op.traffic_mbps = traffic;
    return op;
  }
  static Op acquire(LockId id) {
    Op op;
    op.kind = Kind::Acquire;
    op.lock = id;
    return op;
  }
  static Op release(LockId id) {
    Op op;
    op.kind = Kind::Release;
    op.lock = id;
    return op;
  }
  static Op wait(WaitHandle h) {
    Op op;
    op.kind = Kind::Wait;
    op.wait_handle = h;
    return op;
  }
  static Op notify(WaitHandle h) {
    Op op;
    op.kind = Kind::Notify;
    op.wait_handle = h;
    return op;
  }
};

class Machine;

/// A simulated thread's program. next() is called when the thread starts
/// and after each completed op; returning nullopt exits the thread.
/// next() runs at simulated-time instants and may call Machine services
/// (spawn_thread, make_event, now) but must not block natively.
class ThreadBody {
 public:
  virtual ~ThreadBody() = default;
  virtual std::optional<Op> next(Machine& machine, ThreadId self) = 0;
};

struct MachineStats {
  Cycles finish_time = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contentions = 0;  ///< acquisitions that had to wait
  Cycles total_busy = 0;               ///< Σ core busy cycles
  Cycles total_lock_wait = 0;          ///< Σ cycles threads spent blocked on locks
  std::uint64_t spawned_threads = 0;
  // DES work counters: what simulating cost, not what was simulated.
  std::uint64_t events = 0;        ///< events popped from the queue
  std::uint64_t stale_events = 0;  ///< popped events a newer one superseded
  /// OpComplete events pushed after processed events: one per segment start
  /// (see the header comment). Each supersedes the thread's previous
  /// completion.
  std::uint64_t reschedules = 0;
};

/// The discrete-event machine. Typical use:
///   Machine m(cfg);
///   m.spawn_thread(std::make_unique<MainBody>(...));
///   MachineStats stats = m.run();
class Machine {
 public:
  explicit Machine(const MachineConfig& cfg = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Creates a thread; it becomes ready immediately. Callable before run()
  /// and from ThreadBody::next().
  ThreadId spawn_thread(std::unique_ptr<ThreadBody> body);

  /// Creates a wait event (latch). Starts un-notified.
  WaitHandle make_event();

  /// True once the event has been notified.
  bool event_notified(WaitHandle h) const;

  /// Event notified automatically when the thread exits.
  WaitHandle exit_event(ThreadId tid) const;

  Cycles now() const { return now_; }
  const MachineConfig& config() const { return cfg_; }

  /// Attaches a Timeline that receives run / lock-wait spans (must outlive
  /// run()). Null detaches. See machine/timeline.hpp.
  void set_timeline(class Timeline* timeline) { timeline_ = timeline; }

  /// Runs until every thread has exited. Returns statistics. May be called
  /// once per Machine.
  MachineStats run();

 private:
  struct SimThread;
  struct Core;
  struct WaitObject;
  struct Mutex;

  /// Pending simulator event. `generation` invalidates stale events: each
  /// thread/core bumps its generation whenever its schedule changes.
  struct Event {
    Cycles time = 0;
    /// Same-time tie-break (see the header comment): push order for a
    /// QuantumCheck, the running core's index for an OpComplete.
    std::uint64_t order = 0;
    enum class Kind : std::uint8_t { OpComplete, QuantumCheck } kind =
        Kind::OpComplete;
    std::uint32_t target = 0;      // thread id or core index
    std::uint64_t generation = 0;  // must match target's generation
  };
  // Profiles read host heap addresses, so the queue's allocation sizes are
  // observable in predictions; keep Event at 32 bytes.
  static_assert(sizeof(Event) == 32, "Event size changes heap layout");
  struct EventCmp {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;  // min-heap
      if (a.kind != b.kind) return a.kind == Event::Kind::OpComplete;
      return a.order > b.order;
    }
  };

  void make_ready(ThreadId tid);
  void dispatch(std::uint32_t core_idx);
  void block_current(SimThread& t);
  void start_segment(SimThread& t);
  void advance(SimThread& t);
  void list_push(std::uint32_t core_idx);
  void push_completions();
  void fetch_and_process_ops(ThreadId tid);
  void finish_thread(ThreadId tid);
  void preempt(std::uint32_t core_idx);
  void on_op_complete(ThreadId tid);
  double current_demand() const;
  void schedule_quantum_checks();

  MachineConfig cfg_;
  BandwidthModel bw_;
  Cycles now_ = 0;
  std::uint64_t quantum_seq_ = 0;  // push order of QuantumCheck events
  bool ran_ = false;

  std::vector<std::unique_ptr<SimThread>> threads_;
  std::vector<Core> cores_;
  std::vector<WaitObject> waits_;
  std::vector<Mutex> mutexes_;  // indexed by LockId (grown on demand)
  std::deque<ThreadId> ready_;
  std::priority_queue<Event, std::vector<Event>, EventCmp> queue_;

  MachineStats stats_;
  double dilation_ = 1.0;  // dilation of every running segment
  std::uint32_t traffic_ops_ = 0;  // running ops with nonzero traffic_mbps
  std::uint32_t push_head_ = ~0u;  // cores awaiting a completion push
  class Timeline* timeline_ = nullptr;
};

}  // namespace pprophet::machine
