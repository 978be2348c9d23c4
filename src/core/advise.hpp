// Causal what-if advisor (the TASKPROF direction, docs/ADVISOR.md): instead
// of only ranking schedule/paradigm/thread-count configurations, tell the
// user *which section or lock to change* and what each change buys.
//
// Three stages, all over tree::CompiledTree flat arrays:
//   1. critical_path_profile — per top-level section work/span, the
//      parallelism ceiling work/span, and lock-serialization shares (which
//      lock caps which section at what thread count).
//   2. configuration search — a Synthesizer sweep over paradigm × schedule
//      × chunk × thread count, routed through core::sweep's memoized
//      batched path and returning ranked Candidates.
//   3. hypothetical-edit search — enumerate tree::TreeEdit candidates
//      (split tasks K× finer, shrink a lock span, improve a section's
//      burden), apply each to a COPY of the compiled arrays, re-price at
//      the target thread count, and rank by marginal speedup. Unedited
//      sections keep their digests, so every edit re-emulates exactly one
//      section against a shared memo — the whole search costs a fraction
//      of a fresh grid sweep (bench_advisor gates its section emulations
//      below 3 un-memoized sweeps').
//
// Soundness contract: for any returned action, applying `action.edit` to
// the source tree (tree::apply_edit) and re-running core::predict from
// scratch reproduces `speedup_after` — enforced within 1% over random trees
// by tests/property/test_advisor_properties.cpp and bench_advisor.
#pragma once

#include <string>
#include <vector>

#include "core/grid_spec.hpp"
#include "core/sweep.hpp"
#include "tree/edit.hpp"

namespace pprophet::core {

/// One evaluated configuration of the configuration search.
struct Candidate {
  Paradigm paradigm{};
  runtime::OmpSchedule schedule{};
  std::uint64_t chunk = 1;
  CoreCount threads = 0;
  double speedup = 0.0;
  double efficiency = 0.0;  ///< speedup / threads
};

/// One lock's serialization share inside a section: all its holders must
/// run one at a time, so `held_cycles` is a floor on the section's span
/// and `work / held_cycles` a ceiling on its speedup.
struct LockProfile {
  LockId lock = 0;
  Cycles held_cycles = 0;   ///< per section repetition, repeats expanded
  double work_share = 0.0;  ///< held_cycles / section work
  double cap_speedup = 0.0; ///< work / held_cycles — the lock's ceiling
  /// Thread count at which the lock starts dominating the span
  /// (ceil(cap_speedup)): more threads than this buy nothing here.
  CoreCount cap_threads = 0;
};

struct SectionProfile {
  std::uint32_t section = 0;
  std::string name;
  std::uint64_t repeat = 1;  ///< top-level Sec repeat
  std::uint64_t tasks = 0;   ///< logical trip count
  Cycles work = 0;           ///< total leaf work, one repetition
  /// Critical-path floor at unbounded threads: the longest single task or
  /// the busiest lock, whichever is larger.
  Cycles span = 0;
  double parallelism = 0.0;  ///< work / span — the section's ceiling
  double work_share = 0.0;   ///< share of the whole serial denominator
  double max_burden = 1.0;   ///< largest β in the section's burden table
  std::vector<LockProfile> locks;  ///< sorted by held_cycles, descending
};

struct CriticalPathProfile {
  Cycles serial_cycles = 0;
  Cycles top_u_cycles = 0;
  /// Amdahl floor: the share of serial time outside any section.
  double serial_share = 0.0;
  std::vector<SectionProfile> sections;  ///< in section order
};

CriticalPathProfile critical_path_profile(const tree::CompiledTree& compiled);
CriticalPathProfile critical_path_profile(const tree::ProgramTree& tree);

enum class ActionKind : std::uint8_t {
  ConvertConfig,  ///< adopt a different schedule/paradigm/thread count
  SplitTasks,     ///< tree::TreeEdit::Kind::SplitTasks
  ShrinkLock,     ///< tree::TreeEdit::Kind::ShrinkLock
  ImproveBurden,  ///< tree::TreeEdit::Kind::ImproveBurden
};

const char* to_string(ActionKind k);

/// One ranked recommendation: a typed record ("splitting section X's tasks
/// 4x buys 1.9x", "the lock in Y caps you at 3.2x") plus the priced
/// speedups before/after at the target thread count.
struct Action {
  ActionKind kind = ActionKind::ConvertConfig;
  /// The edit to apply (valid for the three tree-edit kinds; for
  /// ConvertConfig only `config` matters).
  tree::TreeEdit edit{};
  std::uint32_t section = tree::kNoSection;
  std::string section_name;
  /// ConvertConfig: the configuration to adopt.
  Candidate config{};
  double speedup_before = 0.0;  ///< baseline at the target thread count
  double speedup_after = 0.0;   ///< with the action applied
  double delta() const { return speedup_after - speedup_before; }
  /// One-line human rendering of the action.
  std::string describe() const;
};

struct AdviseOptions {
  /// Base options: machine, overheads, baseline paradigm/schedule/chunk,
  /// memory-model flag. The method is forced to Synthesizer, the default
  /// engine (most accurate).
  PredictOptions base{};
  /// Configuration-search dimensions. Empty `chunks` inherits base.chunk.
  GridSpec grid{};
  /// Economical pick: fewest threads within this fraction of the best
  /// ("use 8 cores, the 12-core gain is noise"). Ties within the knee break
  /// deterministically: fewest threads, then StaticBlock.
  double efficiency_knee = 0.05;
  /// Thread count edits are priced at; 0 = max of grid.thread_counts.
  CoreCount target_threads = 0;
  /// Edit taxonomy knobs: the factors enumerated per section/lock.
  std::vector<std::uint64_t> split_factors{2, 4, 8};
  std::vector<double> lock_factors{0.5, 0.1};
  std::vector<double> burden_factors{0.5};
  /// Sections below this share of serial time propose no edits.
  double min_work_share = 0.01;
  std::size_t max_actions = 12;        ///< ranked actions kept
  std::size_t max_config_actions = 2;  ///< ConvertConfig entries folded in
  /// Worker pool for the configuration sweep.
  SweepOptions sweep{};
};

/// The redesigned result: configuration search + profile + ranked actions.
struct Advice {
  CoreCount target_threads = 0;
  /// The base configuration priced at target_threads (what every action's
  /// speedup_before refers to).
  Candidate baseline{};
  Candidate best{};        ///< configuration-search winner
  Candidate economical{};  ///< fewest threads within the efficiency knee
  /// Every evaluated configuration, sorted by descending speedup.
  std::vector<Candidate> configurations;
  CriticalPathProfile profile;
  /// Ranked what-if actions, best delta first.
  std::vector<Action> actions;
  /// Aggregated memo accounting: the configuration sweep's stats plus the
  /// edit search's section lookups/hits/evals.
  SweepStats stats;
};

/// Configuration-search stage only (profile included, edit search skipped).
/// The tree should carry burden factors already if base.memory_model is
/// set. Throws std::invalid_argument on an empty sweep dimension.
Advice advise_configurations(const tree::CompiledTree& compiled,
                             const AdviseOptions& options = {});
Advice advise_configurations(const tree::ProgramTree& tree,
                             const AdviseOptions& options = {});

/// The full advisor: configuration search + critical-path profile +
/// hypothetical-edit search. The ProgramTree form compiles once; pass a
/// CompiledTree to amortize compilation (as the serve daemon does).
Advice advise(const tree::CompiledTree& compiled,
              const AdviseOptions& options = {});
Advice advise(const tree::ProgramTree& tree,
              const AdviseOptions& options = {});

}  // namespace pprophet::core
