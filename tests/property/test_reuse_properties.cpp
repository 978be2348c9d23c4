// Property tests for the reuse-distance layer: histogram merge obeys
// monoid laws, PPTB v3 round-trips histograms exactly over arbitrary random
// trees, truncation and corruption of v3 streams never crash the reader,
// and the text format's R= token survives write/read. These are the
// contracts the cross-machine sweep and the serve upload path depend on
// (docs/MEMMODEL.md).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "random_trees.hpp"
#include "reuse/histogram.hpp"
#include "tree/binary.hpp"
#include "tree/compress.hpp"
#include "tree/node.hpp"
#include "tree/serialize.hpp"

namespace pprophet::tree {
namespace {

using reuse::ProfiledConfig;
using reuse::ReuseHistogram;

ReuseHistogram random_histogram(util::Xoshiro256& rng) {
  ReuseHistogram h;
  h.config = ProfiledConfig{};
  h.cold = rng.uniform_u64(0, 1'000'000);
  h.writes = rng.uniform_u64(0, 1'000'000);
  const int records = static_cast<int>(rng.uniform_u64(0, 64));
  for (int i = 0; i < records; ++i) {
    // Span many octaves so multi-byte varint bucket counts get exercised.
    h.record(rng.uniform_u64(0, 1ULL << rng.uniform_u64(1, 40)));
  }
  h.trim();
  return h;
}

/// Attaches counters and/or histograms to a deterministic subset of the
/// top-level sections; returns the number of histograms attached.
std::size_t annotate(ProgramTree& t, std::uint64_t seed,
                     util::Xoshiro256& rng) {
  std::size_t histograms = 0;
  for (std::size_t i = 0; i < t.root->children().size(); ++i) {
    Node* child = t.root->child(i);
    if (child->kind() != NodeKind::Sec) continue;
    if ((seed + i) % 2 == 0) {
      SectionCounters c;
      c.instructions = (seed + 1) * 1'000'003 + i;
      c.cycles = (seed + 1) * 7'000'019 + i * 3;
      c.llc_misses = seed * 911 + i;
      child->set_counters(c);
    }
    if ((seed + i) % 3 != 2) {
      child->set_reuse_profile(random_histogram(rng));
      ++histograms;
    }
  }
  return histograms;
}

TEST(ReuseMergeProperty, CommutativeAssociativeAndTotalPreserving) {
  util::Xoshiro256 rng(property_seed(31));
  for (int trial = 0; trial < 50; ++trial) {
    const ReuseHistogram a = random_histogram(rng);
    const ReuseHistogram b = random_histogram(rng);
    const ReuseHistogram c = random_histogram(rng);

    ReuseHistogram ab = a;
    ab.merge(b);
    ReuseHistogram ba = b;
    ba.merge(a);
    ab.trim();
    ba.trim();
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.touches(), a.touches() + b.touches());
    EXPECT_EQ(ab.writes, a.writes + b.writes);

    ReuseHistogram ab_c = ab;
    ab_c.merge(c);
    ReuseHistogram bc = b;
    bc.merge(c);
    ReuseHistogram a_bc = a;
    a_bc.merge(bc);
    ab_c.trim();
    a_bc.trim();
    EXPECT_EQ(ab_c, a_bc);
  }
}

TEST(ReuseBinaryProperty, V3RoundTripsHistogramsExactly) {
  util::Xoshiro256 rng(property_seed(59));
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ProgramTree t = random_tree(seed);
    SCOPED_TRACE(seed_trace(seed, t));
    compress(t);
    const std::size_t histograms = annotate(t, seed, rng);
    const std::string bytes = to_binary(pack(t));
    if (histograms == 0) {
      EXPECT_LE(bytes[4], 2);
      continue;
    }
    EXPECT_EQ(bytes[4], 3);
    const ProgramTree back = unpack(from_binary(bytes));
    ASSERT_EQ(back.root->children().size(), t.root->children().size());
    for (std::size_t i = 0; i < t.root->children().size(); ++i) {
      const ReuseHistogram* want = t.root->child(i)->reuse_profile();
      const ReuseHistogram* got = back.root->child(i)->reuse_profile();
      if (want == nullptr) {
        EXPECT_EQ(got, nullptr) << "top " << i;
        continue;
      }
      ASSERT_NE(got, nullptr) << "top " << i;
      EXPECT_EQ(*got, *want) << "top " << i;
      // Counters must survive alongside.
      const SectionCounters* wc = t.root->child(i)->counters();
      const SectionCounters* gc = back.root->child(i)->counters();
      EXPECT_EQ(wc == nullptr, gc == nullptr);
      if (wc != nullptr && gc != nullptr) {
        EXPECT_EQ(gc->instructions, wc->instructions);
      }
    }
  }
}

TEST(ReuseBinaryProperty, TreesWithoutHistogramsNeverEmitV3) {
  // Digest/byte stability for existing stores: adding the v3 trailer must
  // not change the encoding of trees that carry no histograms.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ProgramTree t = random_tree(seed);
    compress(t);
    const std::string bytes = to_binary(pack(t));
    EXPECT_LE(bytes[4], 2) << "seed " << seed;
  }
}

std::string v3_bytes(std::uint64_t seed) {
  util::Xoshiro256 rng(property_seed(83));
  for (;; ++seed) {
    ProgramTree t = random_tree(seed);
    compress(t);
    if (annotate(t, seed, rng) == 0) continue;
    return to_binary(pack(t));
  }
}

TEST(ReuseBinaryProperty, EveryTruncationPrefixThrows) {
  const std::string bytes = v3_bytes(7);
  ASSERT_EQ(bytes[4], 3);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      const PackedTree p = from_binary(bytes.substr(0, cut));
      FAIL() << "undetected truncation at " << cut << " of " << bytes.size();
    } catch (const std::runtime_error&) {
      // expected
    }
  }
}

TEST(ReuseBinaryProperty, V3TrailerCorruptionNeverCrashes) {
  const std::string good = v3_bytes(11);
  ASSERT_EQ(good[4], 3);
  util::Xoshiro256 rng(property_seed(97));
  for (int trial = 0; trial < 400; ++trial) {
    std::string bytes = good;
    // Bias flips toward the trailers at the end of the stream.
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

TEST(ReuseTextProperty, RTokenRoundTripsThroughText) {
  util::Xoshiro256 rng(property_seed(13));
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ProgramTree t = random_tree(seed);
    SCOPED_TRACE(seed_trace(seed, t));
    annotate(t, seed, rng);
    const ProgramTree back = from_text(to_text(t));
    ASSERT_EQ(back.root->children().size(), t.root->children().size());
    for (std::size_t i = 0; i < t.root->children().size(); ++i) {
      const ReuseHistogram* want = t.root->child(i)->reuse_profile();
      const ReuseHistogram* got = back.root->child(i)->reuse_profile();
      ASSERT_EQ(want == nullptr, got == nullptr) << "top " << i;
      if (want != nullptr) {
        EXPECT_EQ(*got, *want) << "top " << i;
      }
    }
  }
}

}  // namespace
}  // namespace pprophet::tree
