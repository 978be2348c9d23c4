// Suite for tree::CompiledTree, the one tree representation every emulator
// reads. Two things are pinned here:
//   * compile() itself: every node record, link, task table, lock slot,
//     burden table and counter set matches the source Node heap it was
//     built from, and the precomputed aggregates, block flags and digests
//     match naive recomputations;
//   * the engines over it: FNV-64 digests of section and whole-tree
//     predictions over the random-tree seeds. The digests were recorded
//     while every engine still had a second instantiation over the Node
//     heap, and both instantiations agreed on every value folded in. The
//     DES-backed digests (SYN and Real) were re-recorded once when DES
//     progress became exact, which removed up to a cycle of drift per event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/prophet.hpp"
#include "emul/ff.hpp"
#include "emul/suitability.hpp"
#include "memmodel/burden.hpp"
#include "memmodel/calibration.hpp"
#include "report/experiment.hpp"
#include "tree/compile.hpp"
#include "util/fnv.hpp"

#include "../property/random_trees.hpp"

namespace pprophet::tree {
namespace {

using core::Method;
using core::Paradigm;
using core::PredictOptions;

constexpr CoreCount kBurdenThreads[] = {2, 4, 8};

/// Top-level Sec nodes of `tree` in root-child order — the source-side
/// counterpart of CompiledTree's section table.
std::vector<const Node*> top_sections(const ProgramTree& tree) {
  std::vector<const Node*> out;
  for (const auto& child : tree.root->children()) {
    if (child->kind() == NodeKind::Sec) out.push_back(child.get());
  }
  return out;
}

/// random_tree(seed) with deterministic counters on every top-level
/// section, priced by the calibrated memory model, so its sections carry
/// real (β ≠ 1) burden tables.
ProgramTree annotated_tree(std::uint64_t seed) {
  ProgramTree t = random_tree(seed);
  util::Xoshiro256 rng(seed ^ 0xc0ffeeULL);
  for (const auto& child : t.root->children()) {
    if (child->kind() != NodeKind::Sec) continue;
    SectionCounters c;
    c.cycles = child->serial_work();
    c.instructions = c.cycles / 2;
    // DRAM stall share in [0.2, 0.8) at ω = 200 cycles per miss.
    c.llc_misses = static_cast<std::uint64_t>(
        (0.2 + 0.6 * rng.uniform_double()) * static_cast<double>(c.cycles) /
        200.0);
    c.llc_writebacks = c.llc_misses / 4;
    child->set_counters(c);
  }
  memmodel::CalibrationOptions copts;
  copts.machine = report::paper_options(Method::Synthesizer).machine;
  const memmodel::BurdenModel model(memmodel::calibrate(copts));
  memmodel::annotate_burdens(t, model, kBurdenThreads);
  return t;
}

PredictOptions grid_options(Method m, Paradigm p, runtime::OmpSchedule s,
                            std::uint64_t chunk) {
  PredictOptions o = report::paper_options(m);
  o.paradigm = p;
  o.schedule = s;
  o.chunk = chunk;
  return o;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

struct GoldenRow {
  std::uint64_t seed;
  std::vector<std::uint64_t> want;
};

/// On mismatch the message is the row to paste after a deliberate,
/// explained re-baseline.
void expect_golden(const GoldenRow& row,
                   const std::vector<std::uint64_t>& got) {
  std::string actual = "{" + std::to_string(row.seed) + ", {";
  for (std::size_t i = 0; i < got.size(); ++i) {
    actual += (i == 0 ? "" : ", ") + hex(got[i]);
  }
  actual += "}},";
  EXPECT_EQ(got, row.want) << actual;
}

// ---- compile() against the source Node heap ------------------------------

/// Checks the record of `n` at compiled id `id` and recurses into its
/// children in preorder: ids are dense, so `next` is the id the next node
/// in preorder must carry. Lock identity is checked through `slots`: two L
/// nodes share a dense slot exactly when they share a lock id.
void check_records(const CompiledTree& ct, const Node& n, NodeId id,
                   NodeId& next, std::unordered_map<LockId, std::uint32_t>&
                                     slots) {
  ASSERT_EQ(id, next) << "ids are not dense preorder";
  ++next;
  EXPECT_EQ(ct.kind(id), n.kind()) << id;
  EXPECT_EQ(ct.length(id), n.length()) << id;
  EXPECT_EQ(ct.repeat(id), n.repeat()) << id;
  EXPECT_EQ(ct.barrier_at_end(id), n.barrier_at_end()) << id;
  EXPECT_EQ(ct.lock_id(id), n.lock_id()) << id;
  if (n.kind() == NodeKind::L) {
    const std::uint32_t slot =
        slots.try_emplace(n.lock_id(), ct.lock_index(id)).first->second;
    EXPECT_EQ(ct.lock_index(id), slot) << "lock " << n.lock_id();
    EXPECT_LT(ct.lock_index(id), ct.lock_count()) << id;
  } else {
    EXPECT_EQ(ct.lock_index(id), kNoLock) << id;
  }

  std::vector<NodeId> child_ids;
  NodeId c = ct.first_child(id);
  for (const auto& child : n.children()) {
    ASSERT_NE(c, kNoNode) << "node " << id << " lost a child";
    child_ids.push_back(c);
    check_records(ct, *child, c, next, slots);
    c = ct.next_sibling(c);
  }
  EXPECT_EQ(c, kNoNode) << "node " << id << " gained a child";

  if (n.kind() != NodeKind::Sec) return;
  // Naive logical-iteration expansion of the RLE child list: iteration i
  // runs the child whose repeats cover it.
  std::vector<NodeId> expanded;
  for (std::size_t k = 0; k < child_ids.size(); ++k) {
    for (std::uint64_t r = 0; r < n.children()[k]->repeat(); ++r) {
      expanded.push_back(child_ids[k]);
    }
  }
  const CompiledTree::TaskTable table = ct.tasks_of(id);
  ASSERT_EQ(table.trip_count(), expanded.size()) << "sec " << id;
  ASSERT_EQ(table.trip_count(), n.logical_child_count()) << "sec " << id;
  for (std::uint64_t i = 0; i < expanded.size(); ++i) {
    EXPECT_EQ(table.task_at(i), expanded[i]) << "sec " << id << " trip " << i;
  }
}

void check_compiled_against_source(const ProgramTree& t) {
  const CompiledTree ct = CompiledTree::compile(t);
  EXPECT_EQ(ct.node_count(), t.root->subtree_size());
  NodeId next = 0;
  std::unordered_map<LockId, std::uint32_t> slots;
  check_records(ct, *t.root, ct.root(), next, slots);
  EXPECT_EQ(next, ct.node_count());
  EXPECT_EQ(ct.lock_count(), slots.size());

  // Top-level section table: node ids, burden tables and counters.
  std::uint32_t s = 0;
  for (NodeId c = ct.first_child(ct.root()); c != kNoNode;
       c = ct.next_sibling(c)) {
    if (ct.kind(c) != NodeKind::Sec) {
      EXPECT_EQ(ct.section_of(c), kNoSection) << c;
      continue;
    }
    ASSERT_LT(s, ct.section_count());
    EXPECT_EQ(ct.section_node(s), c);
    EXPECT_EQ(ct.section_of(c), s);
    ++s;
  }
  EXPECT_EQ(s, ct.section_count());
  const std::vector<const Node*> secs = top_sections(t);
  ASSERT_EQ(secs.size(), ct.section_count());
  for (s = 0; s < ct.section_count(); ++s) {
    const Node& sec = *secs[s];
    for (const auto& [threads, beta] : sec.burdens()) {
      EXPECT_EQ(ct.section_burden(s, threads), beta)
          << "section " << s << " threads " << threads;
    }
    EXPECT_EQ(ct.section_burden(s, 64), sec.burden(64)) << s;
    const SectionCounters* got = ct.section_counters(s);
    const SectionCounters* want = sec.counters();
    ASSERT_EQ(got == nullptr, want == nullptr) << "section " << s;
    if (want == nullptr) continue;
    EXPECT_EQ(got->instructions, want->instructions) << s;
    EXPECT_EQ(got->cycles, want->cycles) << s;
    EXPECT_EQ(got->llc_misses, want->llc_misses) << s;
    EXPECT_EQ(got->llc_writebacks, want->llc_writebacks) << s;
  }
}

TEST(CompiledTree, RecordsMatchSourceNodes) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_compiled_against_source(random_tree(seed));
  }
  // One seed with counters and a calibrated burden table on every section.
  const ProgramTree annotated = annotated_tree(41);
  bool priced = false;
  for (const Node* sec : top_sections(annotated)) {
    for (const auto& entry : sec->burdens()) priced |= entry.second != 1.0;
  }
  ASSERT_TRUE(priced) << "annotate_burdens left every beta at 1";
  SCOPED_TRACE("annotated seed 41");
  check_compiled_against_source(annotated);
}

// ---- engine goldens over the compiled tree -------------------------------

// Per seed: one digest per method (FF, Suit, SYN, Real) over paradigm ×
// schedule × chunk × threads × every top-level section.
const GoldenRow kSectionGolden[] = {
    {11, {0x7c030db95e527d85ULL, 0x94352df78275f945ULL, 0xdeadba6b9ae9b665ULL,
          0xec51e92c4eb57f6cULL}},
    {12, {0x2abdaf7ef8323155ULL, 0xe021ce3e678c57a5ULL, 0x263b2c6f20173bd0ULL,
          0xedd3611122383e67ULL}},
    {13, {0x7383ec38b1f6e441ULL, 0xe65bec6f133e6665ULL, 0x3b2bb8a904f94518ULL,
          0xf56e3c0c2bfdd36fULL}},
    {14, {0x291d04a099e3e875ULL, 0xb79cf91597eb25a5ULL, 0x5a7f09ba24594bd0ULL,
          0xe233e5ab2b3db23bULL}},
    {15, {0x89e04292d47b75e1ULL, 0xd7785fc21de31ae5ULL, 0xd67294d2cd6183baULL,
          0x12a52663401fb48aULL}},
};

TEST(CompiledTree, SectionPredictionsMatchGoldenAcrossFullGrid) {
  const CoreCount thread_counts[] = {1, 3, 8};
  const runtime::OmpSchedule schedules[] = {
      runtime::OmpSchedule::StaticCyclic, runtime::OmpSchedule::StaticBlock,
      runtime::OmpSchedule::Dynamic, runtime::OmpSchedule::Guided};
  for (const GoldenRow& row : kSectionGolden) {
    const ProgramTree t = random_tree(row.seed);
    const CompiledTree ct = CompiledTree::compile(t);
    std::vector<std::uint64_t> got;
    for (const Method m : {Method::FastForward, Method::Suitability,
                           Method::Synthesizer, Method::GroundTruth}) {
      util::Fnv64 d;
      for (const Paradigm p : {Paradigm::OpenMP, Paradigm::CilkPlus}) {
        for (const runtime::OmpSchedule sch : schedules) {
          for (const std::uint64_t chunk : {1u, 4u}) {
            const PredictOptions o = grid_options(m, p, sch, chunk);
            for (const CoreCount threads : thread_counts) {
              for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
                d.u64(core::predict_section_cycles(ct, s, threads, o));
              }
            }
          }
        }
      }
      got.push_back(d.h);
    }
    expect_golden(row, got);
  }
}

// Per seed: serial and parallel cycles of predict() at 2 and 6 threads.
const GoldenRow kPredictGolden[] = {
    {21, {0x66cbb9780ed30f0aULL}},
    {22, {0x6931f3f57c35c79dULL}},
    {23, {0x012ffd82da0474bdULL}},
    {24, {0xa40f82e340d8aca6ULL}},
};

TEST(CompiledTree, PredictComposesSectionsAndMatchesGolden) {
  for (const GoldenRow& row : kPredictGolden) {
    const ProgramTree t = random_tree(row.seed);
    const CompiledTree ct = CompiledTree::compile(t);
    const PredictOptions o = report::paper_options(Method::Synthesizer);
    util::Fnv64 d;
    for (const CoreCount threads : {2u, 6u}) {
      // §IV-E composition read off the source tree: top-level U glue plus
      // each section's emulation times its repeat.
      Cycles parallel = 0;
      std::uint32_t s = 0;
      for (const auto& child : t.root->children()) {
        if (child->kind() == NodeKind::U) {
          parallel += child->length() * child->repeat();
        } else {
          parallel += core::predict_section_cycles(ct, s++, threads, o) *
                      child->repeat();
        }
      }
      if (parallel == 0) parallel = 1;
      const core::SpeedupEstimate est = core::predict(ct, threads, o);
      EXPECT_EQ(est.serial_cycles, core::serial_cycles_of(t)) << row.seed;
      EXPECT_EQ(est.parallel_cycles, parallel) << row.seed;
      d.u64(est.serial_cycles);
      d.u64(est.parallel_cycles);
    }
    expect_golden(row, {d.h});
  }
}

// Per seed: emulate_ff and emulate_suitability over the whole tree.
const GoldenRow kWholeTreeGolden[] = {
    {31, {0x1152b386d50de517ULL, 0x96a99bfb00b35ec2ULL}},
    {32, {0x6ffa2259bae087adULL, 0xe5a79bee6413bf93ULL}},
    {33, {0x8d3c76613f8a2d55ULL, 0xd3444ded15342f64ULL}},
};

TEST(CompiledTree, WholeTreeEmulatorsMatchGolden) {
  for (const GoldenRow& row : kWholeTreeGolden) {
    const ProgramTree t = random_tree(row.seed);
    const CompiledTree ct = CompiledTree::compile(t);
    emul::FfConfig ff;
    ff.num_threads = 6;
    const emul::FfResult a = emul::emulate_ff(ct, ff);
    emul::SuitabilityConfig suit;
    suit.num_threads = 6;
    const emul::FfResult b = emul::emulate_suitability(ct, suit);
    std::vector<std::uint64_t> got;
    for (const emul::FfResult& r : {a, b}) {
      util::Fnv64 d;
      d.u64(r.parallel_cycles);
      d.u64(r.serial_cycles);
      got.push_back(d.h);
    }
    expect_golden(row, got);
  }
}

// The memory-model (PredM) variants, which read the burden tables: one
// digest each for FF and SYN over threads × every top-level section.
const GoldenRow kMemoryModelGolden = {
    41, {0xd092eea7eba1d4aaULL, 0x4b440780271de7e6ULL}};

TEST(CompiledTree, MemoryModelPathMatchesGolden) {
  const ProgramTree annotated = annotated_tree(kMemoryModelGolden.seed);
  const CompiledTree ct = CompiledTree::compile(annotated);
  std::vector<std::uint64_t> got;
  for (const Method m : {Method::FastForward, Method::Synthesizer}) {
    PredictOptions o = report::paper_options(m);
    o.memory_model = true;
    util::Fnv64 d;
    for (const CoreCount n : kBurdenThreads) {
      for (std::uint32_t s = 0; s < ct.section_count(); ++s) {
        d.u64(core::predict_section_cycles(ct, s, n, o));
      }
    }
    got.push_back(d.h);
  }
  expect_golden(kMemoryModelGolden, got);
}

// ---- aggregates, run tables, block flags, digests ------------------------

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
