// Compiled program trees: a one-pass compilation of a validated ProgramTree
// into structure-of-arrays storage for the emulator hot paths.
//
// The profiler records trees as unique_ptr-linked Node heaps — convenient to
// build and edit, expensive to replay once per (method, paradigm, schedule,
// chunk, threads) point. Every emulator therefore reads a CompiledTree;
// compiling once moves the tree walk's bookkeeping out of the prediction
// loop:
//   * node records become contiguous parallel arrays (kind, length, lock id,
//     repeat, barrier flag) linked by first-child/next-sibling uint32 ids;
//   * every Sec's task-iteration table (the RLE cumulative-repeat expansion
//     of its Task children) is precomputed into two shared arrays;
//   * lock ids are remapped to a dense range so emulators can keep lock
//     state in a flat vector instead of a std::map;
//   * each top-level section carries precomputed aggregates and a 64-bit
//     digest of everything emulation reads, reusable as the sweep memo and
//     serve cache key (docs/SWEEP.md, docs/SERVE.md).
//
// tests/tree/test_compile.cpp checks every compiled record, task table,
// lock slot, burden table and counter set against the source Node heap
// over the random-tree property generator, and pins the engines' results
// over compiled trees with recorded goldens. See docs/INTERNALS.md for the
// layout.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tree/node.hpp"

namespace pprophet::tree {

struct TreeEdit;  // tree/edit.hpp — hypothetical edits over compiled arrays

/// Index of a node record inside a CompiledTree.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xFFFF'FFFFu;
/// "Not a top-level section" / "not a lock" sentinels for the dense maps.
inline constexpr std::uint32_t kNoSection = 0xFFFF'FFFFu;
inline constexpr std::uint32_t kNoLock = 0xFFFF'FFFFu;

/// Precomputed per-top-level-section sums over ONE repetition of the
/// section (multiply by the Sec node's repeat for the §IV-E contribution).
struct SectionAggregates {
  std::uint64_t task_count = 0;  ///< logical trip count (repeats expanded)
  Cycles total_leaf_work = 0;    ///< Σ leaf lengths × enclosed repeats
  Cycles max_task_length = 0;    ///< largest single-iteration serial work
  Cycles lock_cycles = 0;        ///< Σ in-lock (L) lengths × enclosed repeats
};

/// Per-Sec classification flags for the batched emulator's block layout
/// (docs/INTERNALS.md). Computed at compile time; purely derived data —
/// never part of the section/tree digests.
struct SecBlockFlags {
  std::uint8_t subtree_has_lock = 0;    ///< any L below this Sec
  std::uint8_t subtree_has_nested = 0;  ///< any nested Sec below this Sec
  /// Every Task child of this Sec holds only U leaves — the batched FF can
  /// evaluate such a section in closed form instead of event by event.
  std::uint8_t tasks_flat = 0;
};

class CompiledTree {
 public:
  /// One-pass compilation. Enforces the tree/validate.hpp nesting rules
  /// (Root children ∈ {Sec,U}; Sec children ∈ {Task}; Task children ∈
  /// {U,L,Sec}; U/L leaves) and throws std::invalid_argument on violation.
  static CompiledTree compile(const ProgramTree& tree);

  // ---- node records (structure of arrays) ----
  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(kinds_.size());
  }
  NodeId root() const { return 0; }
  NodeKind kind(NodeId n) const { return kinds_[n]; }
  Cycles length(NodeId n) const { return lengths_[n]; }
  std::uint64_t repeat(NodeId n) const { return repeats_[n]; }
  LockId lock_id(NodeId n) const { return lock_ids_[n]; }
  /// Dense lock slot in [0, lock_count()); kNoLock for non-L nodes.
  std::uint32_t lock_index(NodeId n) const { return lock_slots_[n]; }
  bool barrier_at_end(NodeId n) const { return barriers_[n] != 0; }
  NodeId first_child(NodeId n) const { return first_child_[n]; }
  NodeId next_sibling(NodeId n) const { return next_sibling_[n]; }
  /// Number of distinct lock ids in the tree.
  std::size_t lock_count() const { return lock_count_; }

  // ---- per-Sec run tables (any Sec node, nested included) ----
  /// Borrowed view of one Sec's precomputed iteration table: logical
  /// iteration index -> Task node id. Valid while the CompiledTree lives.
  struct TaskTable {
    const CompiledTree* ct = nullptr;
    std::uint32_t offset = 0;  ///< first run in the shared run arrays
    std::uint32_t runs = 0;    ///< physical Task children
    std::uint64_t trips = 0;   ///< logical iterations (repeats expanded)

    std::uint64_t trip_count() const { return trips; }
    NodeId task_at(std::uint64_t i) const;  ///< O(log runs)

    // Block-friendly accessors: the RLE runs themselves, so batched
    // evaluators can walk physical tasks once instead of binary-searching
    // per logical iteration.
    std::uint32_t run_count() const { return runs; }
    /// Task node of run `r` (physical Sec child order).
    NodeId run_task(std::uint32_t r) const;
    /// Logical iterations of run `r` (the Task child's repeat).
    std::uint64_t run_trips(std::uint32_t r) const;
    /// Cumulative trips through the end of run `r` (run_cum_ read-through).
    std::uint64_t run_cum(std::uint32_t r) const;
  };
  /// Precondition: kind(sec) == NodeKind::Sec.
  TaskTable tasks_of(NodeId sec) const;

  /// Block-layout classification of any Sec node.
  const SecBlockFlags& sec_block_flags(NodeId sec) const {
    return sec_flags_[table_idx_[sec]];
  }

  // ---- top-level sections ----
  std::uint32_t section_count() const {
    return static_cast<std::uint32_t>(sections_.size());
  }
  /// Node id of top-level section `s` (in root-child order).
  NodeId section_node(std::uint32_t s) const { return sections_[s].node; }
  /// Inverse map; kNoSection unless `n` is a top-level Sec.
  std::uint32_t section_of(NodeId n) const { return section_idx_[n]; }
  /// 64-bit FNV-1a digest over everything the emulators read from section
  /// `s` (structure, lengths, lock ids, repeats, barrier flags, counters,
  /// burden table). Two sections with equal digests emulate identically
  /// under every configuration, which is what makes the digest usable as
  /// the sweep memo / serve cache key.
  std::uint64_t section_digest(std::uint32_t s) const {
    return sections_[s].digest;
  }
  const SectionAggregates& section_aggregates(std::uint32_t s) const {
    return sections_[s].aggregates;
  }
  /// Source-tree name of top-level section `s` (the annotation label), kept
  /// for advisory output only — names never enter the digests.
  const std::string& section_name(std::uint32_t s) const {
    return sections_[s].name;
  }
  /// Burden factor β for `threads` (1.0 when the memory model never ran) —
  /// same lookup as Node::burden on the source section.
  double section_burden(std::uint32_t s, CoreCount threads) const;
  /// The section's full burden table (threads → β), sorted by thread count;
  /// empty when the memory model never ran.
  const std::vector<std::pair<CoreCount, double>>& section_burdens(
      std::uint32_t s) const {
    return sections_[s].burdens;
  }
  /// Hardware counters of section `s`; nullptr when unprofiled.
  const SectionCounters* section_counters(std::uint32_t s) const {
    return sections_[s].counters ? &*sections_[s].counters : nullptr;
  }

  // ---- whole-tree values ----
  /// The §IV-E serial denominator: measured root length when the profiler
  /// recorded one, else the sum of leaf work (== core::serial_cycles_of).
  Cycles serial_cycles() const { return serial_cycles_; }
  /// Σ top-level U length × repeat — the serial glue between sections.
  Cycles top_u_cycles() const { return top_u_cycles_; }
  /// Digest over the whole top-level sequence (section digests, U records,
  /// serial denominator) — the natural serve cache key for the tree.
  std::uint64_t tree_digest() const { return tree_digest_; }

 private:
  // The hypothetical-edit pass (tree/edit.cpp) mutates a *copy* of the
  // arrays in place — split repeats, scaled lengths, refreshed aggregates
  // and digests — which needs the same access compile() has.
  friend CompiledTree apply_edit(const CompiledTree& compiled,
                                 const TreeEdit& edit);

  struct SectionInfo {
    NodeId node = kNoNode;
    std::uint64_t digest = 0;
    SectionAggregates aggregates{};
    std::string name;
    std::vector<std::pair<CoreCount, double>> burdens;
    std::optional<SectionCounters> counters;
  };

  std::vector<NodeKind> kinds_;
  std::vector<Cycles> lengths_;
  std::vector<LockId> lock_ids_;
  std::vector<std::uint32_t> lock_slots_;
  std::vector<std::uint64_t> repeats_;
  std::vector<std::uint8_t> barriers_;
  std::vector<NodeId> first_child_;
  std::vector<NodeId> next_sibling_;
  /// Per-node index into table_/section_idx_ side tables.
  std::vector<std::uint32_t> table_idx_;
  std::vector<std::uint32_t> section_idx_;

  struct TableRec {
    std::uint32_t offset = 0;
    std::uint32_t runs = 0;
    std::uint64_t trips = 0;
  };
  std::vector<TableRec> tables_;      // one per Sec node
  std::vector<std::uint64_t> run_cum_;  // shared cumulative-repeat array
  std::vector<NodeId> run_task_;        // shared task-id array
  std::vector<SecBlockFlags> sec_flags_;  // one per Sec node (block layout)

  std::vector<SectionInfo> sections_;
  std::size_t lock_count_ = 0;
  Cycles serial_cycles_ = 0;
  Cycles top_u_cycles_ = 0;
  std::uint64_t tree_digest_ = 0;
};

}  // namespace pprophet::tree
