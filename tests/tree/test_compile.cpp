// Equivalence suite for tree::CompiledTree: the compiled flat-array path
// must be bit-identical to the pointer-tree path for every emulator over
// the random-tree property generator, and the precomputed aggregates must
// match a naive recomputation from the source Node heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "core/prophet.hpp"
#include "emul/ff.hpp"
#include "emul/suitability.hpp"
#include "memmodel/burden.hpp"
#include "memmodel/calibration.hpp"
#include "report/experiment.hpp"
#include "tree/compile.hpp"

#include "../property/random_trees.hpp"

namespace pprophet::tree {
namespace {

using core::Method;
using core::Paradigm;
using core::PredictOptions;

/// Top-level Sec nodes of `tree` in root-child order — the pointer-side
/// counterpart of CompiledTree's section table.
std::vector<const Node*> top_sections(const ProgramTree& tree) {
  std::vector<const Node*> out;
  for (const auto& child : tree.root->children()) {
    if (child->kind() == NodeKind::Sec) out.push_back(child.get());
  }
  return out;
}

PredictOptions grid_options(Method m, Paradigm p, runtime::OmpSchedule s,
                            std::uint64_t chunk) {
  PredictOptions o = report::paper_options(m);
  o.paradigm = p;
  o.schedule = s;
  o.chunk = chunk;
  return o;
}

TEST(CompiledTree, SectionPredictionsBitIdenticalAcrossFullGrid) {
  const CoreCount thread_counts[] = {1, 3, 8};
  const runtime::OmpSchedule schedules[] = {
      runtime::OmpSchedule::StaticCyclic, runtime::OmpSchedule::StaticBlock,
      runtime::OmpSchedule::Dynamic, runtime::OmpSchedule::Guided};
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    const ProgramTree t = random_tree(seed);
    const CompiledTree ct = CompiledTree::compile(t);
    const std::vector<const Node*> secs = top_sections(t);
    ASSERT_EQ(secs.size(), ct.section_count()) << "seed " << seed;
    for (const Method m : {Method::FastForward, Method::Suitability,
                           Method::Synthesizer, Method::GroundTruth}) {
      for (const Paradigm p : {Paradigm::OpenMP, Paradigm::CilkPlus}) {
        for (const runtime::OmpSchedule sch : schedules) {
          for (const std::uint64_t chunk : {1u, 4u}) {
            const PredictOptions o = grid_options(m, p, sch, chunk);
            for (const CoreCount threads : thread_counts) {
              for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
                EXPECT_EQ(
                    core::predict_section_cycles(*secs[s], threads, o),
                    core::predict_section_cycles(ct, s, threads, o))
                    << "seed " << seed << " section " << s << " method "
                    << core::to_string(m) << " paradigm "
                    << core::to_string(p) << " schedule "
                    << runtime::to_string(sch) << " chunk " << chunk
                    << " threads " << threads;
              }
            }
          }
        }
      }
    }
  }
}

TEST(CompiledTree, PredictComposesExactlyAsPointerPath) {
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    const ProgramTree t = random_tree(seed);
    const CompiledTree ct = CompiledTree::compile(t);
    const PredictOptions o = report::paper_options(Method::Synthesizer);
    for (const CoreCount threads : {2u, 6u}) {
      // §IV-E reference composition from the pointer tree: top-level U glue
      // plus each section's pointer-path emulation times its repeat.
      Cycles parallel = 0;
      for (const auto& child : t.root->children()) {
        if (child->kind() == NodeKind::U) {
          parallel += child->length() * child->repeat();
        } else {
          parallel +=
              core::predict_section_cycles(*child, threads, o) *
              child->repeat();
        }
      }
      if (parallel == 0) parallel = 1;
      const core::SpeedupEstimate est = core::predict(ct, threads, o);
      EXPECT_EQ(est.serial_cycles, core::serial_cycles_of(t)) << seed;
      EXPECT_EQ(est.parallel_cycles, parallel) << seed;
    }
  }
}

TEST(CompiledTree, WholeTreeEmulatorsBitIdentical) {
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    const ProgramTree t = random_tree(seed);
    const CompiledTree ct = CompiledTree::compile(t);
    emul::FfConfig ff;
    ff.num_threads = 6;
    const emul::FfResult a = emul::emulate_ff(t, ff);
    const emul::FfResult b = emul::emulate_ff(ct, ff);
    EXPECT_EQ(a.parallel_cycles, b.parallel_cycles) << seed;
    EXPECT_EQ(a.serial_cycles, b.serial_cycles) << seed;
    emul::SuitabilityConfig suit;
    suit.num_threads = 6;
    const emul::FfResult c = emul::emulate_suitability(t, suit);
    const emul::FfResult d = emul::emulate_suitability(ct, suit);
    EXPECT_EQ(c.parallel_cycles, d.parallel_cycles) << seed;
    EXPECT_EQ(c.serial_cycles, d.serial_cycles) << seed;
  }
}

TEST(CompiledTree, MemoryModelPathBitIdentical) {
  const ProgramTree t = random_tree(41);
  ProgramTree annotated;
  annotated.root = t.root->clone();
  const std::vector<CoreCount> threads{2, 4, 8};
  memmodel::CalibrationOptions copts;
  copts.machine = report::paper_options(Method::Synthesizer).machine;
  const memmodel::BurdenModel model(memmodel::calibrate(copts));
  memmodel::annotate_burdens(annotated, model, threads);

  const CompiledTree ct = CompiledTree::compile(annotated);
  const std::vector<const Node*> secs = top_sections(annotated);
  ASSERT_EQ(secs.size(), ct.section_count());
  // Burden tables survive compilation verbatim...
  for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
    for (const CoreCount n : threads) {
      EXPECT_EQ(ct.section_burden(s, n), secs[s]->burden(n)) << s << " " << n;
    }
    EXPECT_EQ(ct.section_burden(s, 64), 1.0);  // unset thread count
  }
  // ...and the burden-reading emulators stay bit-identical (PredM).
  for (const Method m : {Method::FastForward, Method::Synthesizer}) {
    PredictOptions o = report::paper_options(m);
    o.memory_model = true;
    for (const CoreCount n : threads) {
      for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
        EXPECT_EQ(core::predict_section_cycles(*secs[s], n, o),
                  core::predict_section_cycles(ct, s, n, o))
            << core::to_string(m) << " threads " << n << " section " << s;
      }
    }
  }
}

/// Naive recursive reference for the per-repetition subtree sums.
struct NaiveSums {
  Cycles leaf_work = 0;
  Cycles lock_cycles = 0;
};
NaiveSums naive_sums(const Node& n) {
  NaiveSums s;
  if (n.kind() == NodeKind::U) {
    s.leaf_work = n.length();
  } else if (n.kind() == NodeKind::L) {
    s.leaf_work = n.length();
    s.lock_cycles = n.length();
  } else {
    for (const auto& c : n.children()) {
      const NaiveSums cs = naive_sums(*c);
      s.leaf_work += cs.leaf_work * c->repeat();
      s.lock_cycles += cs.lock_cycles * c->repeat();
    }
  }
  return s;
}

TEST(CompiledTree, AggregatesMatchNaiveRecomputation) {
  for (const std::uint64_t seed : {51u, 52u, 53u, 54u, 55u, 56u}) {
    const ProgramTree t = random_tree(seed);
    const CompiledTree ct = CompiledTree::compile(t);
    const std::vector<const Node*> secs = top_sections(t);
    ASSERT_EQ(secs.size(), ct.section_count()) << seed;
    for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
      const Node& sec = *secs[s];
      const SectionAggregates& agg = ct.section_aggregates(s);
      EXPECT_EQ(agg.task_count, sec.logical_child_count()) << seed;
      const NaiveSums sums = naive_sums(sec);
      EXPECT_EQ(agg.total_leaf_work, sums.leaf_work) << seed;
      EXPECT_EQ(agg.lock_cycles, sums.lock_cycles) << seed;
      // One repetition of the section times its repeat is the Node heap's
      // serial_work (which folds the node's own repeat in).
      EXPECT_EQ(agg.total_leaf_work * sec.repeat(), sec.serial_work()) << seed;
      Cycles max_task = 0;
      for (const auto& task : sec.children()) {
        max_task = std::max(max_task, naive_sums(*task).leaf_work);
      }
      EXPECT_EQ(agg.max_task_length, max_task) << seed;
    }
    EXPECT_EQ(ct.serial_cycles(), core::serial_cycles_of(t)) << seed;
  }
}

TEST(CompiledTree, TaskTableMatchesLogicalIterationOrder) {
  const ProgramTree t = random_tree(61);
  const CompiledTree ct = CompiledTree::compile(t);
  for (NodeId n = 0; n < ct.node_count(); ++n) {
    if (ct.kind(n) != NodeKind::Sec) continue;
    const CompiledTree::TaskTable table = ct.tasks_of(n);
    // Reference: expand the RLE child list the way SectionIndex does.
    std::vector<NodeId> expanded;
    for (NodeId c = ct.first_child(n); c != kNoNode; c = ct.next_sibling(c)) {
      for (std::uint64_t r = 0; r < ct.repeat(c); ++r) expanded.push_back(c);
    }
    ASSERT_EQ(table.trip_count(), expanded.size());
    for (std::uint64_t i = 0; i < expanded.size(); ++i) {
      EXPECT_EQ(table.task_at(i), expanded[i]) << "sec " << n << " trip " << i;
    }
  }
}

TEST(CompiledTree, RunAccessorsConsistentWithTaskAt) {
  const ProgramTree t = random_tree(62);
  const CompiledTree ct = CompiledTree::compile(t);
  for (NodeId n = 0; n < ct.node_count(); ++n) {
    if (ct.kind(n) != NodeKind::Sec) continue;
    const CompiledTree::TaskTable table = ct.tasks_of(n);
    // run_count is the physical child count; trips/cum re-derive from the
    // children's repeats; every logical trip inside a run maps back to the
    // run's task through task_at.
    std::uint32_t runs = 0;
    std::uint64_t cum = 0;
    for (NodeId c = ct.first_child(n); c != kNoNode;
         c = ct.next_sibling(c), ++runs) {
      ASSERT_LT(runs, table.run_count());
      EXPECT_EQ(table.run_task(runs), c);
      EXPECT_EQ(table.run_trips(runs), ct.repeat(c));
      cum += ct.repeat(c);
      EXPECT_EQ(table.run_cum(runs), cum);
      EXPECT_EQ(table.task_at(cum - 1), c);
      EXPECT_EQ(table.task_at(cum - table.run_trips(runs)), c);
    }
    EXPECT_EQ(runs, table.run_count());
    EXPECT_EQ(cum, table.trip_count());
  }
}

TEST(CompiledTree, BlockFlagsMatchNaiveScan) {
  for (const unsigned seed : {63u, 64u, 65u}) {
    const ProgramTree t = random_tree(seed);
    const CompiledTree ct = CompiledTree::compile(t);
    for (NodeId n = 0; n < ct.node_count(); ++n) {
      if (ct.kind(n) != NodeKind::Sec) continue;
      const SecBlockFlags& f = ct.sec_block_flags(n);
      // Reference: recursive scan over the compiled arrays.
      bool has_lock = false, has_nested = false;
      const std::function<void(NodeId)> scan = [&](NodeId x) {
        for (NodeId c = ct.first_child(x); c != kNoNode;
             c = ct.next_sibling(c)) {
          if (ct.kind(c) == NodeKind::L) has_lock = true;
          if (ct.kind(c) == NodeKind::Sec) has_nested = true;
          scan(c);
        }
      };
      scan(n);
      bool flat = true;
      for (NodeId task = ct.first_child(n); task != kNoNode;
           task = ct.next_sibling(task)) {
        for (NodeId c = ct.first_child(task); c != kNoNode;
             c = ct.next_sibling(c)) {
          if (ct.kind(c) != NodeKind::U) flat = false;
        }
      }
      EXPECT_EQ(f.subtree_has_lock != 0, has_lock) << "sec " << n;
      EXPECT_EQ(f.subtree_has_nested != 0, has_nested) << "sec " << n;
      EXPECT_EQ(f.tasks_flat != 0, flat) << "sec " << n;
    }
  }
}

TEST(CompiledTree, DigestsAreDeterministicAndStructureSensitive) {
  const ProgramTree a = random_tree(71);
  const ProgramTree b = random_tree(71);
  const CompiledTree ca = CompiledTree::compile(a);
  const CompiledTree cb = CompiledTree::compile(b);
  EXPECT_EQ(ca.tree_digest(), cb.tree_digest());
  ASSERT_EQ(ca.section_count(), cb.section_count());
  for (std::uint32_t s = 0; s < ca.section_count(); ++s) {
    EXPECT_EQ(ca.section_digest(s), cb.section_digest(s)) << s;
  }

  // Node names never influence emulation, so they must not split digests.
  TreeBuilder named1, named2;
  for (const char* name : {"alpha", "beta"}) {
    TreeBuilder& nb = std::string(name) == "alpha" ? named1 : named2;
    nb.begin_sec(name);
    nb.begin_task(name);
    nb.u(500);
    nb.l(1, 40);
    nb.end_task();
    nb.end_sec();
  }
  const CompiledTree cn1 = CompiledTree::compile(named1.finish());
  const CompiledTree cn2 = CompiledTree::compile(named2.finish());
  EXPECT_EQ(cn1.tree_digest(), cn2.tree_digest());
  EXPECT_EQ(cn1.section_digest(0), cn2.section_digest(0));

  // A one-cycle length change anywhere must change the digests.
  ProgramTree mutated;
  mutated.root = a.root->clone();
  for (auto& child : mutated.root->mutable_children()) {
    if (child->kind() != NodeKind::Sec) continue;
    Node* task = child->child(0);
    task->child(0)->set_length(task->child(0)->length() + 1);
    break;
  }
  const CompiledTree cm = CompiledTree::compile(mutated);
  EXPECT_NE(ca.tree_digest(), cm.tree_digest());
  EXPECT_NE(ca.section_digest(0), cm.section_digest(0));
}

TEST(CompiledTree, MeasuredRootLengthWinsAsSerialDenominator) {
  ProgramTree t = random_tree(81);
  t.root->set_length(1'234'567);
  const CompiledTree ct = CompiledTree::compile(t);
  EXPECT_EQ(ct.serial_cycles(), 1'234'567u);
  EXPECT_EQ(ct.serial_cycles(), core::serial_cycles_of(t));
}

TEST(CompiledTree, RejectsInvalidTrees) {
  EXPECT_THROW(CompiledTree::compile(ProgramTree{}), std::invalid_argument);

  ProgramTree not_root;
  not_root.root = std::make_unique<Node>(NodeKind::Sec, "s");
  EXPECT_THROW(CompiledTree::compile(not_root), std::invalid_argument);

  ProgramTree bad_nesting;
  bad_nesting.root = std::make_unique<Node>(NodeKind::Root, "root");
  bad_nesting.root->add_child(std::make_unique<Node>(NodeKind::Task, "t"));
  EXPECT_THROW(CompiledTree::compile(bad_nesting), std::invalid_argument);
}

}  // namespace
}  // namespace pprophet::tree
