// Tree views: the one traversal abstraction behind every emulator.
//
// The FF engine and the OpenMP/Cilk replay bodies are written once as
// templates over a *view* — a small value type answering "what are this
// node's attributes, who are its children, what is this section's iteration
// table". Two views exist:
//
//   PtrTreeView  — the original unique_ptr Node heap. Section handles are
//                  freshly-built SectionIndex objects (one allocation per
//                  spawned section, as the executors always did) and lock
//                  state lives in a std::map keyed by LockId.
//   FlatTreeView — a tree::CompiledTree. Node attributes are array loads,
//                  section handles are borrowed TaskTable views, and lock
//                  state is a vector indexed by the dense lock slot. Nothing
//                  allocates per prediction.
//
// The engines make exactly the same decisions in the same order under both
// views, which is what keeps compiled-path results bit-identical to the
// pointer path (tests/tree/test_compile.cpp).
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "machine/bodies.hpp"
#include "runtime/section_index.hpp"
#include "tree/compile.hpp"
#include "tree/node.hpp"

namespace pprophet::runtime {

/// View over the pointer tree (the reference path).
struct PtrTreeView {
  using NodeRef = const tree::Node*;
  using SectionHandle = SectionIndex;
  using LockTable = std::map<LockId, Cycles>;

  /// Walks one node's children in order.
  struct ChildCursor {
    const tree::Node* parent = nullptr;
    std::size_t idx = 0;
  };

  ChildCursor children(NodeRef n) const { return ChildCursor{n, 0}; }
  /// The ptr equivalent of FlatChildWalk::single: a synthetic one-child
  /// range (used by section runs, which walk a cloned root instead).
  bool cursor_done(const ChildCursor& c) const {
    return c.idx >= c.parent->children().size();
  }
  NodeRef cursor_node(const ChildCursor& c) const {
    return c.parent->children()[c.idx].get();
  }
  void cursor_advance(ChildCursor& c) const { ++c.idx; }

  tree::NodeKind kind(NodeRef n) const { return n->kind(); }
  Cycles length(NodeRef n) const { return n->length(); }
  std::uint64_t repeat(NodeRef n) const { return n->repeat(); }
  LockId lock_id(NodeRef n) const { return n->lock_id(); }
  bool barrier_at_end(NodeRef n) const { return n->barrier_at_end(); }

  SectionHandle section(NodeRef sec) const { return SectionIndex(*sec); }
  std::uint64_t trip_count(const SectionHandle& h) const {
    return h.trip_count();
  }
  NodeRef task_at(const SectionHandle& h, std::uint64_t i) const {
    return h.task_at(i);
  }

  double burden(NodeRef sec, CoreCount threads) const {
    return sec->burden(threads);
  }
  const tree::SectionCounters* counters(NodeRef sec) const {
    return sec->counters();
  }

  LockTable make_lock_table() const { return LockTable{}; }
  Cycles& lock_cell(LockTable& t, NodeRef l) const { return t[l->lock_id()]; }
};

/// View over a CompiledTree (the hot path).
struct FlatTreeView {
  const tree::CompiledTree* ct = nullptr;

  using NodeRef = tree::NodeId;
  using ChildCursor = machine::FlatChildWalk;
  using SectionHandle = tree::CompiledTree::TaskTable;
  using LockTable = std::vector<Cycles>;

  ChildCursor children(NodeRef n) const {
    return ChildCursor::children_of(*ct, n);
  }
  bool cursor_done(const ChildCursor& c) const { return c.done(); }
  NodeRef cursor_node(const ChildCursor& c) const { return c.cur; }
  void cursor_advance(ChildCursor& c) const { c.advance(*ct); }

  tree::NodeKind kind(NodeRef n) const { return ct->kind(n); }
  Cycles length(NodeRef n) const { return ct->length(n); }
  std::uint64_t repeat(NodeRef n) const { return ct->repeat(n); }
  LockId lock_id(NodeRef n) const { return ct->lock_id(n); }
  bool barrier_at_end(NodeRef n) const { return ct->barrier_at_end(n); }

  SectionHandle section(NodeRef sec) const { return ct->tasks_of(sec); }
  std::uint64_t trip_count(const SectionHandle& h) const {
    return h.trip_count();
  }
  NodeRef task_at(const SectionHandle& h, std::uint64_t i) const {
    return h.task_at(i);
  }

  double burden(NodeRef sec, CoreCount threads) const {
    const std::uint32_t s = ct->section_of(sec);
    return s == tree::kNoSection ? 1.0 : ct->section_burden(s, threads);
  }
  const tree::SectionCounters* counters(NodeRef sec) const {
    const std::uint32_t s = ct->section_of(sec);
    return s == tree::kNoSection ? nullptr : ct->section_counters(s);
  }

  // Block-friendly run iteration for the batched evaluator (emul/ff.cpp,
  // compiled view only): a Sec's physical Task children (RLE runs) instead
  // of logical iterations, plus its precomputed block-layout flags.
  std::uint32_t run_count(NodeRef sec) const {
    return ct->tasks_of(sec).run_count();
  }
  NodeRef run_task(NodeRef sec, std::uint32_t r) const {
    return ct->tasks_of(sec).run_task(r);
  }
  const tree::SecBlockFlags& block_flags(NodeRef sec) const {
    return ct->sec_block_flags(sec);
  }

  LockTable make_lock_table() const { return LockTable(ct->lock_count(), 0); }
  Cycles& lock_cell(LockTable& t, NodeRef l) const {
    return t[ct->lock_index(l)];
  }
};

}  // namespace pprophet::runtime
