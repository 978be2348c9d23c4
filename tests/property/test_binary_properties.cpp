// Property tests for the PPTB binary format over arbitrary random trees
// (random_trees.hpp): round-trips are exact, every truncation prefix and
// magic/version corruption is rejected with an exception (never a crash),
// and the v2 per-section counter records survive the trip — the contract the
// prediction service's upload path (src/serve) depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "random_trees.hpp"
#include "tree/binary.hpp"
#include "tree/compress.hpp"
#include "tree/node.hpp"
#include "tree/serialize.hpp"

namespace pprophet::tree {
namespace {

std::string packed_bytes(std::uint64_t seed, bool compressed) {
  ProgramTree t = random_tree(seed);
  if (compressed) compress(t);
  return to_binary(pack(t));
}

TEST(BinaryProperty, RoundTripsRandomTreesExactly) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    for (const bool compressed : {false, true}) {
      ProgramTree t = random_tree(seed);
      if (compressed) compress(t);
      const PackedTree packed = pack(t);
      const PackedTree back = from_binary(to_binary(packed));
      const ProgramTree a = unpack(packed);
      const ProgramTree b = unpack(back);
      ASSERT_TRUE(structurally_equal(*a.root, *b.root, 0.0))
          << "seed " << seed << " compressed " << compressed;
      ASSERT_EQ(a.total_serial_cycles(), b.total_serial_cycles());
    }
  }
}

std::uint64_t depth_of(const Node& n) {
  std::uint64_t deepest = 0;
  for (const auto& c : n.children()) deepest = std::max(deepest, depth_of(*c));
  return deepest + 1;
}

TEST(BinaryProperty, MeasuredExtentMatchesTheUnpackedTree) {
  // The upload guard (serve/profile_store.hpp) trusts measure_unpacked in
  // place of unpacking; it must agree with unpack() exactly.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (const bool compressed : {false, true}) {
      const PackedTree packed = from_binary(packed_bytes(seed, compressed));
      const UnpackedExtent ext = measure_unpacked(packed);
      const ProgramTree t = unpack(packed);
      ASSERT_FALSE(ext.overflow) << "seed " << seed;
      EXPECT_EQ(ext.nodes, t.node_count()) << "seed " << seed;
      EXPECT_EQ(ext.serial_cycles, t.total_serial_cycles()) << "seed " << seed;
      EXPECT_EQ(ext.depth, depth_of(*t.root)) << "seed " << seed;
    }
  }
}

TEST(BinaryProperty, SerializationIsDeterministic) {
  // Content addressing (serve/profile_store.hpp) requires equal trees to
  // produce equal bytes.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ASSERT_EQ(packed_bytes(seed, true), packed_bytes(seed, true))
        << "seed " << seed;
  }
}

TEST(BinaryProperty, EveryTruncationPrefixThrows) {
  const std::string bytes = packed_bytes(7, true);
  ASSERT_GT(bytes.size(), 8u);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      const PackedTree p = from_binary(bytes.substr(0, cut));
      // A prefix that still parses must never silently equal the full
      // stream — truncation may only succeed by throwing.
      FAIL() << "undetected truncation at " << cut << " of " << bytes.size();
    } catch (const std::runtime_error&) {
      // expected
    }
  }
}

TEST(BinaryProperty, BadMagicAndVersionAreRejected) {
  const std::string good = packed_bytes(11, true);
  for (std::size_t i = 0; i < 4; ++i) {
    std::string bad = good;
    bad[i] ^= 0x40;
    EXPECT_THROW(from_binary(bad), std::runtime_error) << "magic byte " << i;
  }
  std::string bad_version = good;
  bad_version[4] = 99;
  EXPECT_THROW(from_binary(bad_version), std::runtime_error);
}

TEST(BinaryProperty, UnprofiledTreesKeepVersion1Encoding) {
  // No counters -> no v2 trailer, so pre-existing content hashes of plain
  // trees never change.
  const std::string bytes = packed_bytes(3, true);
  EXPECT_EQ(bytes[4], 1);
}

TEST(BinaryProperty, SectionCountersRoundTripInVersion2) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ProgramTree t = random_tree(seed);
    compress(t);
    // Profile a deterministic subset of top-level sections with
    // seed-dependent counter values (large enough to exercise multi-byte
    // varints).
    std::size_t annotated = 0;
    for (std::size_t i = 0; i < t.root->children().size(); ++i) {
      Node* child = t.root->child(i);
      if (child->kind() != NodeKind::Sec || (seed + i) % 2 != 0) continue;
      SectionCounters c;
      c.instructions = (seed + 1) * 1'000'003 + i;
      c.cycles = (seed + 1) * 7'000'019 + i * 3;
      c.llc_misses = seed * 911 + i;
      c.llc_writebacks = seed * 13 + i;
      child->set_counters(c);
      ++annotated;
    }
    const std::string bytes = to_binary(pack(t));
    if (annotated == 0) {
      EXPECT_EQ(bytes[4], 1) << "seed " << seed;
      continue;
    }
    EXPECT_EQ(bytes[4], 2) << "seed " << seed;
    const ProgramTree back = unpack(from_binary(bytes));
    ASSERT_EQ(back.root->children().size(), t.root->children().size());
    for (std::size_t i = 0; i < t.root->children().size(); ++i) {
      const SectionCounters* want = t.root->child(i)->counters();
      const SectionCounters* got = back.root->child(i)->counters();
      if (want == nullptr) {
        EXPECT_EQ(got, nullptr) << "seed " << seed << " top " << i;
        continue;
      }
      ASSERT_NE(got, nullptr) << "seed " << seed << " top " << i;
      EXPECT_EQ(got->instructions, want->instructions);
      EXPECT_EQ(got->cycles, want->cycles);
      EXPECT_EQ(got->llc_misses, want->llc_misses);
      EXPECT_EQ(got->llc_writebacks, want->llc_writebacks);
    }
  }
}

TEST(BinaryProperty, CounterTrailerCorruptionNeverCrashes) {
  ProgramTree t = random_tree(5);
  compress(t);
  for (std::size_t i = 0; i < t.root->children().size(); ++i) {
    Node* child = t.root->child(i);
    if (child->kind() != NodeKind::Sec) continue;
    SectionCounters c;
    c.instructions = 123'456'789;
    c.cycles = 987'654'321;
    c.llc_misses = 4'242;
    c.llc_writebacks = 17;
    child->set_counters(c);
  }
  const std::string good = to_binary(pack(t));
  ASSERT_EQ(good[4], 2);
  util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = good;
    // Bias flips toward the v2 trailer at the end of the stream.
    const std::size_t lo = trial % 2 == 0 ? bytes.size() * 3 / 4 : 0;
    const std::size_t pos = rng.uniform_u64(lo, bytes.size() - 1);
    bytes[pos] = static_cast<char>(rng.uniform_u64(0, 255));
    try {
      const ProgramTree back = unpack(from_binary(bytes));
      (void)back;
    } catch (const std::runtime_error&) {
      // rejection is fine; crashing or hanging is not
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace pprophet::tree
