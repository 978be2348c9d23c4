#include "core/advise.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "util/fnv.hpp"

namespace pprophet::core {
namespace {

using tree::CompiledTree;
using tree::NodeId;
using tree::NodeKind;
using tree::TreeEdit;

// ---------------------------------------------------------------------------
// Critical-path pass
// ---------------------------------------------------------------------------

/// Per-lock held cycles inside ONE repetition of the subtree under `n`
/// (child repeats multiplied — the same convention as SectionAggregates).
void collect_lock_held(const CompiledTree& ct, NodeId n, std::uint64_t mult,
                       std::unordered_map<LockId, Cycles>& held) {
  for (NodeId c = ct.first_child(n); c != tree::kNoNode;
       c = ct.next_sibling(c)) {
    const std::uint64_t m = mult * ct.repeat(c);
    if (ct.kind(c) == NodeKind::L) held[ct.lock_id(c)] += ct.length(c) * m;
    collect_lock_held(ct, c, m, held);
  }
}

bool has_nested_sec(const CompiledTree& ct, NodeId n) {
  for (NodeId c = ct.first_child(n); c != tree::kNoNode;
       c = ct.next_sibling(c)) {
    if (ct.kind(c) == NodeKind::Sec || has_nested_sec(ct, c)) return true;
  }
  return false;
}

SectionProfile profile_section(const CompiledTree& ct, std::uint32_t s,
                               Cycles serial) {
  SectionProfile sp;
  sp.section = s;
  sp.name = ct.section_name(s);
  const NodeId node = ct.section_node(s);
  sp.repeat = ct.repeat(node);
  const tree::SectionAggregates& agg = ct.section_aggregates(s);
  sp.tasks = agg.task_count;
  sp.work = agg.total_leaf_work;

  std::unordered_map<LockId, Cycles> held;
  collect_lock_held(ct, node, 1, held);
  Cycles lock_span = 0;
  for (const auto& [lock, cycles] : held) {
    if (cycles == 0) continue;
    LockProfile lp;
    lp.lock = lock;
    lp.held_cycles = cycles;
    lp.work_share = sp.work == 0 ? 0.0
                                 : static_cast<double>(cycles) /
                                       static_cast<double>(sp.work);
    lp.cap_speedup = static_cast<double>(sp.work) / static_cast<double>(cycles);
    lp.cap_threads = static_cast<CoreCount>(std::ceil(lp.cap_speedup));
    sp.locks.push_back(lp);
    lock_span = std::max(lock_span, cycles);
  }
  std::sort(sp.locks.begin(), sp.locks.end(),
            [](const LockProfile& a, const LockProfile& b) {
              if (a.held_cycles != b.held_cycles) {
                return a.held_cycles > b.held_cycles;
              }
              return a.lock < b.lock;
            });

  sp.span = std::max(agg.max_task_length, lock_span);
  sp.parallelism = sp.span == 0 ? 1.0
                                : static_cast<double>(sp.work) /
                                      static_cast<double>(sp.span);
  sp.work_share = serial == 0 ? 0.0
                              : static_cast<double>(sp.work) *
                                    static_cast<double>(sp.repeat) /
                                    static_cast<double>(serial);
  for (const auto& [threads, beta] : ct.section_burdens(s)) {
    (void)threads;
    sp.max_burden = std::max(sp.max_burden, beta);
  }
  return sp;
}

// ---------------------------------------------------------------------------
// Pricing: the §IV-E composition of predict(), re-expressed over a memo so
// pricing an edited tree re-emulates only the edited section. Keys are the
// section digests (edits salt exactly the edited section's digest —
// tree/edit.cpp), plus every option the emulators read.
// ---------------------------------------------------------------------------

struct EvalKey {
  std::uint64_t digest = 0;
  std::uint64_t chunk = 1;
  CoreCount threads = 0;
  std::uint8_t paradigm = 0;
  std::uint8_t schedule = 0;
  std::uint8_t memory_model = 0;
  bool operator==(const EvalKey&) const = default;
};

struct EvalKeyHash {
  std::size_t operator()(const EvalKey& k) const {
    util::Fnv64 d;
    d.u64(k.digest);
    d.u64(k.chunk);
    d.u64(k.threads);
    d.u64(k.paradigm);
    d.u64((static_cast<std::uint64_t>(k.schedule) << 8) | k.memory_model);
    return static_cast<std::size_t>(d.h);
  }
};

class Pricer {
 public:
  explicit Pricer(SweepStats& stats) : stats_(stats) {}

  /// Speedup of `ct` at `threads` under `o` — bit-identical to
  /// core::predict (same per-section emulations, same composition).
  double price(const CompiledTree& ct, CoreCount threads,
               const PredictOptions& o) {
    Cycles parallel = ct.top_u_cycles();
    for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
      EvalKey key;
      key.digest = ct.section_digest(s);
      key.chunk = o.chunk;
      key.threads = threads;
      key.paradigm = static_cast<std::uint8_t>(o.paradigm);
      key.schedule = static_cast<std::uint8_t>(o.schedule);
      key.memory_model = o.memory_model ? 1 : 0;
      ++stats_.section_lookups;
      Cycles cycles = 0;
      if (const auto it = memo_.find(key); it != memo_.end()) {
        ++stats_.cache_hits;
        cycles = it->second;
      } else {
        ++stats_.section_evals;
        cycles = predict_section_cycles(ct, s, threads, o);
        memo_.emplace(key, cycles);
      }
      parallel += cycles * ct.repeat(ct.section_node(s));
    }
    if (parallel == 0) parallel = 1;
    return static_cast<double>(ct.serial_cycles()) /
           static_cast<double>(parallel);
  }

 private:
  SweepStats& stats_;
  std::unordered_map<EvalKey, Cycles, EvalKeyHash> memo_;
};

// ---------------------------------------------------------------------------
// Configuration search (a Synthesizer sweep, via the batched engine)
// ---------------------------------------------------------------------------

void check_grid(const GridSpec& grid) {
  if (grid.thread_counts.empty() || grid.paradigms.empty() ||
      grid.schedules.empty()) {
    throw std::invalid_argument("advise: empty sweep dimension");
  }
}

/// Candidate points in a fixed enumeration order
/// (paradigm, then schedule — Cilk ignores schedules past the first — then
/// chunk, then threads), so the stable sort ranks ties identically.
std::vector<SweepPoint> config_points(const GridSpec& grid,
                                      std::span<const std::uint64_t> chunks,
                                      const PredictOptions& base) {
  std::vector<SweepPoint> pts;
  for (const Paradigm paradigm : grid.paradigms) {
    for (const runtime::OmpSchedule schedule : grid.schedules) {
      // Cilk has no schedule parameter: evaluate it once.
      if (paradigm == Paradigm::CilkPlus &&
          schedule != grid.schedules.front()) {
        continue;
      }
      for (const std::uint64_t chunk : chunks) {
        for (const CoreCount threads : grid.thread_counts) {
          SweepPoint p;
          p.method = Method::Synthesizer;
          p.paradigm = paradigm;
          p.schedule = schedule;
          p.chunk = chunk;
          p.threads = threads;
          p.memory_model = base.memory_model;
          pts.push_back(p);
        }
      }
    }
  }
  return pts;
}

Candidate pick_economical(std::span<const Candidate> sorted,
                          const Candidate& best, double knee) {
  // Knee set across ALL candidates (not just the winner's configuration):
  // fewest threads, then StaticBlock, then the winner's paradigm, then the
  // earliest sweep entry — fully deterministic.
  const double floor = best.speedup * (1.0 - knee);
  Candidate pick = best;
  const auto better = [&](const Candidate& a, const Candidate& b) {
    if (a.threads != b.threads) return a.threads < b.threads;
    const bool a_sb = a.schedule == runtime::OmpSchedule::StaticBlock;
    const bool b_sb = b.schedule == runtime::OmpSchedule::StaticBlock;
    if (a_sb != b_sb) return a_sb;
    const bool a_bp = a.paradigm == best.paradigm;
    const bool b_bp = b.paradigm == best.paradigm;
    if (a_bp != b_bp) return a_bp;
    return false;  // first in sorted order wins
  };
  for (const Candidate& c : sorted) {
    if (c.speedup < floor) continue;
    if (better(c, pick)) pick = c;
  }
  return pick;
}

PredictOptions synth_base(const AdviseOptions& options) {
  PredictOptions o = options.base;
  o.method = Method::Synthesizer;
  return o;
}

CoreCount resolve_target(const AdviseOptions& options) {
  if (options.target_threads != 0) return options.target_threads;
  return *std::max_element(options.grid.thread_counts.begin(),
                           options.grid.thread_counts.end());
}

// ---------------------------------------------------------------------------
// Hypothetical-edit search
// ---------------------------------------------------------------------------

struct EditCandidate {
  ActionKind kind;
  TreeEdit edit;
};

std::vector<EditCandidate> enumerate_edits(const CompiledTree& compiled,
                                           const CriticalPathProfile& profile,
                                           const AdviseOptions& options) {
  std::vector<EditCandidate> out;
  for (const SectionProfile& sp : profile.sections) {
    if (sp.work_share < options.min_work_share) continue;
    if (sp.tasks > 0 &&
        !has_nested_sec(compiled, compiled.section_node(sp.section))) {
      for (const std::uint64_t k : options.split_factors) {
        if (k < 2) continue;
        TreeEdit e;
        e.kind = TreeEdit::Kind::SplitTasks;
        e.section = sp.section;
        e.split = k;
        out.push_back({ActionKind::SplitTasks, e});
      }
    }
    for (const LockProfile& lp : sp.locks) {
      for (const double f : options.lock_factors) {
        if (!(f >= 0.0 && f <= 1.0)) continue;
        TreeEdit e;
        e.kind = TreeEdit::Kind::ShrinkLock;
        e.section = sp.section;
        e.lock = lp.lock;
        e.factor = f;
        out.push_back({ActionKind::ShrinkLock, e});
      }
    }
    if (options.base.memory_model && sp.max_burden > 1.0) {
      for (const double f : options.burden_factors) {
        if (!(f >= 0.0 && f <= 1.0)) continue;
        TreeEdit e;
        e.kind = TreeEdit::Kind::ImproveBurden;
        e.section = sp.section;
        e.factor = f;
        out.push_back({ActionKind::ImproveBurden, e});
      }
    }
  }
  return out;
}

}  // namespace

const char* to_string(ActionKind k) {
  switch (k) {
    case ActionKind::ConvertConfig: return "convert-config";
    case ActionKind::SplitTasks: return "split-tasks";
    case ActionKind::ShrinkLock: return "shrink-lock";
    case ActionKind::ImproveBurden: return "improve-burden";
  }
  return "?";
}

std::string Action::describe() const {
  char buf[192];
  const char* sec = section_name.empty() ? "?" : section_name.c_str();
  switch (kind) {
    case ActionKind::ConvertConfig:
      std::snprintf(buf, sizeof buf,
                    "adopt %s/%s x%u (chunk %llu): %.2fx -> %.2fx",
                    core::to_string(config.paradigm),
                    runtime::to_string(config.schedule), config.threads,
                    static_cast<unsigned long long>(config.chunk),
                    speedup_before, speedup_after);
      break;
    case ActionKind::SplitTasks:
      std::snprintf(buf, sizeof buf,
                    "split tasks in '%s' %llux finer: %.2fx -> %.2fx", sec,
                    static_cast<unsigned long long>(edit.split),
                    speedup_before, speedup_after);
      break;
    case ActionKind::ShrinkLock:
      std::snprintf(buf, sizeof buf,
                    "shrink lock %llu's span in '%s' to %.0f%%: "
                    "%.2fx -> %.2fx",
                    static_cast<unsigned long long>(edit.lock), sec,
                    edit.factor * 100.0, speedup_before, speedup_after);
      break;
    case ActionKind::ImproveBurden:
      std::snprintf(buf, sizeof buf,
                    "cut '%s' memory burden to %.0f%% over serial: "
                    "%.2fx -> %.2fx",
                    sec, edit.factor * 100.0, speedup_before, speedup_after);
      break;
  }
  return buf;
}

CriticalPathProfile critical_path_profile(const CompiledTree& compiled) {
  CriticalPathProfile prof;
  prof.serial_cycles = compiled.serial_cycles();
  prof.top_u_cycles = compiled.top_u_cycles();
  prof.serial_share =
      prof.serial_cycles == 0
          ? 0.0
          : std::min(1.0, static_cast<double>(prof.top_u_cycles) /
                              static_cast<double>(prof.serial_cycles));
  prof.sections.reserve(compiled.section_count());
  for (std::uint32_t s = 0; s < compiled.section_count(); ++s) {
    prof.sections.push_back(profile_section(compiled, s, prof.serial_cycles));
  }
  return prof;
}

CriticalPathProfile critical_path_profile(const tree::ProgramTree& tree) {
  return critical_path_profile(CompiledTree::compile(tree));
}

Advice advise_configurations(const CompiledTree& compiled,
                             const AdviseOptions& options) {
  check_grid(options.grid);
  // An empty chunk axis inherits base.chunk.
  const std::vector<std::uint64_t> chunks =
      options.grid.chunks.empty() ? std::vector<std::uint64_t>{options.base.chunk}
                                  : options.grid.chunks;
  const PredictOptions base = synth_base(options);
  const std::vector<SweepPoint> pts =
      config_points(options.grid, chunks, base);
  SweepResult sr = sweep_points(compiled, pts, base, options.sweep);

  Advice adv;
  adv.stats = sr.stats;
  adv.configurations.reserve(sr.cells.size());
  for (const SweepCell& cell : sr.cells) {
    Candidate c;
    c.paradigm = cell.point.paradigm;
    c.schedule = cell.point.schedule;
    c.chunk = cell.point.chunk;
    c.threads = cell.point.threads;
    c.speedup = cell.estimate.speedup;
    c.efficiency = c.speedup / static_cast<double>(c.threads);
    adv.configurations.push_back(c);
  }
  std::stable_sort(adv.configurations.begin(), adv.configurations.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.speedup > b.speedup;
                   });
  adv.best = adv.configurations.front();
  adv.economical =
      pick_economical(adv.configurations, adv.best, options.efficiency_knee);

  adv.target_threads = resolve_target(options);
  adv.baseline.paradigm = base.paradigm;
  adv.baseline.schedule = base.schedule;
  adv.baseline.chunk = base.chunk;
  adv.baseline.threads = adv.target_threads;
  adv.baseline.speedup = predict(compiled, adv.target_threads, base).speedup;
  adv.baseline.efficiency =
      adv.baseline.speedup / static_cast<double>(adv.target_threads);

  adv.profile = critical_path_profile(compiled);
  return adv;
}

Advice advise_configurations(const tree::ProgramTree& tree,
                             const AdviseOptions& options) {
  return advise_configurations(CompiledTree::compile(tree), options);
}

Advice advise(const CompiledTree& compiled, const AdviseOptions& options) {
  Advice adv = advise_configurations(compiled, options);
  const PredictOptions base = synth_base(options);
  const CoreCount target = adv.target_threads;

  Pricer pricer(adv.stats);
  // Seed the memo with the unedited sections at the baseline configuration;
  // every edit then re-emulates exactly the section its digest salt moved.
  const double before = pricer.price(compiled, target, base);

  std::vector<Action> actions;
  for (const EditCandidate& ec :
       enumerate_edits(compiled, adv.profile, options)) {
    const CompiledTree edited = tree::apply_edit(compiled, ec.edit);
    Action a;
    a.kind = ec.kind;
    a.edit = ec.edit;
    a.section = ec.edit.section;
    a.section_name = compiled.section_name(ec.edit.section);
    a.speedup_before = before;
    a.speedup_after = pricer.price(edited, target, base);
    actions.push_back(std::move(a));
  }

  // Fold in the best configuration conversions at the target thread count
  // (the sweep is already sorted, so the first matches are the best ones).
  std::size_t configs = 0;
  for (const Candidate& c : adv.configurations) {
    if (configs >= options.max_config_actions) break;
    if (c.threads != target || c.speedup <= before) continue;
    if (c.paradigm == base.paradigm && c.schedule == base.schedule &&
        c.chunk == base.chunk) {
      continue;  // that's the baseline itself
    }
    Action a;
    a.kind = ActionKind::ConvertConfig;
    a.config = c;
    a.speedup_before = before;
    a.speedup_after = c.speedup;
    actions.push_back(std::move(a));
    ++configs;
  }

  std::stable_sort(actions.begin(), actions.end(),
                   [](const Action& a, const Action& b) {
                     return a.speedup_after > b.speedup_after;
                   });
  if (actions.size() > options.max_actions) {
    actions.resize(options.max_actions);
  }
  adv.actions = std::move(actions);
  return adv;
}

Advice advise(const tree::ProgramTree& tree, const AdviseOptions& options) {
  return advise(CompiledTree::compile(tree), options);
}

}  // namespace pprophet::core
