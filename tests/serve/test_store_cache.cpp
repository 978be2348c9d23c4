#include "serve/profile_store.hpp"
#include "serve/result_cache.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "tree/binary.hpp"
#include "tree/builder.hpp"
#include "tree/compress.hpp"

namespace pprophet::serve {
namespace {

std::string sample_pptb(Cycles work = 500) {
  tree::TreeBuilder b;
  b.u(1'000);
  b.begin_sec("s");
  b.begin_task("t").u(work).end_task().repeat_last(16);
  b.end_sec();
  tree::ProgramTree t = b.finish();
  tree::compress(t);
  return tree::to_binary(tree::pack(t));
}

TEST(ContentKey, StableAndDiscriminating) {
  const std::string bytes = sample_pptb();
  EXPECT_EQ(content_key(bytes), content_key(bytes));
  EXPECT_EQ(content_key(bytes).size(), 32u);
  EXPECT_NE(content_key(bytes), content_key(sample_pptb(501)));
  EXPECT_NE(content_key(""), content_key(std::string(1, '\0')));
  // Position mixing: permutations of the same bytes get different keys.
  EXPECT_NE(content_key("ab"), content_key("ba"));
}

TEST(ProfileStore, PutIsIdempotent) {
  ProfileStore store;
  const std::string bytes = sample_pptb();
  const auto first = store.put(bytes);
  EXPECT_FALSE(first.existed);
  EXPECT_EQ(first.entry->key, content_key(bytes));
  EXPECT_GT(first.entry->nodes, 0u);
  EXPECT_GT(first.entry->serial_cycles, 0u);

  const auto again = store.put(bytes);
  EXPECT_TRUE(again.existed);
  EXPECT_EQ(again.entry.get(), first.entry.get());  // same stored object
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.total_bytes(), bytes.size());
}

TEST(ProfileStore, FindMissesUnknownKeys) {
  ProfileStore store;
  EXPECT_EQ(store.find("deadbeef"), nullptr);
  store.put(sample_pptb());
  EXPECT_EQ(store.find("deadbeef"), nullptr);
  EXPECT_NE(store.find(content_key(sample_pptb())), nullptr);
}

TEST(ProfileStore, RejectsMalformedUploadWithoutStoringAnything) {
  ProfileStore store;
  EXPECT_THROW(store.put("not a pptb stream"), std::runtime_error);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.total_bytes(), 0u);
}

/// A doubling chain: pattern 0 is a U leaf and every later pattern holds
/// two references to the one before it, so pattern i expands to 2^(i+1)-1
/// nodes. The top level references the last two patterns.
tree::PackedTree doubling_chain(std::uint32_t patterns) {
  tree::PackedTree p;
  tree::PackedTree::Pattern leaf;
  leaf.kind = tree::NodeKind::U;
  leaf.length = 1'000'000;
  p.dictionary.push_back(leaf);
  for (std::uint32_t i = 1; i < patterns; ++i) {
    tree::PackedTree::Pattern pat;
    pat.kind = i % 2 == 1 ? tree::NodeKind::Task : tree::NodeKind::Sec;
    pat.children = {{i - 1, 1}, {i - 1, 1}};
    p.dictionary.push_back(pat);
  }
  p.top = {{patterns - 1, 1}, {patterns - 2, 1}};
  return p;
}

TEST(ProfileStore, ExpansionBombIsTooLargeAndStoresNothing) {
  ProfileStore store;
  store.put(sample_pptb());
  const std::string bomb = tree::to_binary(doubling_chain(31));
  EXPECT_LT(bomb.size(), 600u);
  // 2^31 + 2^30 nodes under the root: ~3.2 billion, measured not built.
  const tree::UnpackedExtent ext =
      tree::measure_unpacked(tree::from_binary(bomb));
  EXPECT_FALSE(ext.overflow);
  EXPECT_EQ(ext.nodes, (std::uint64_t{1} << 31) + (std::uint64_t{1} << 30) - 1);
  EXPECT_EQ(ext.depth, 32u);
  EXPECT_THROW(store.put(bomb), UploadTooLarge);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.total_bytes(), sample_pptb().size());
  EXPECT_EQ(store.find(content_key(bomb)), nullptr);
}

TEST(ProfileStore, OverflowingUploadsAreTooLarge) {
  ProfileStore store;
  // Node count past 2^64: 70 doublings.
  const tree::UnpackedExtent ext = tree::measure_unpacked(doubling_chain(70));
  EXPECT_TRUE(ext.overflow);
  EXPECT_THROW(store.put(tree::to_binary(doubling_chain(70))), UploadTooLarge);
  // A handful of nodes whose repeat x length wraps uint64.
  tree::PackedTree wrap;
  tree::PackedTree::Pattern leaf;
  leaf.kind = tree::NodeKind::U;
  leaf.length = Cycles{1} << 62;
  wrap.dictionary.push_back(leaf);
  wrap.top = {{0, 8}};
  EXPECT_TRUE(tree::measure_unpacked(wrap).overflow);
  EXPECT_THROW(store.put(tree::to_binary(wrap)), UploadTooLarge);
  EXPECT_EQ(store.size(), 0u);
}

TEST(ProfileStore, TooDeepUploadIsTooLarge) {
  // A single-child chain: few nodes, but one level per pattern.
  tree::PackedTree chain;
  tree::PackedTree::Pattern leaf;
  leaf.kind = tree::NodeKind::U;
  leaf.length = 10;
  chain.dictionary.push_back(leaf);
  const auto levels = static_cast<std::uint32_t>(kMaxUploadDepth);
  for (std::uint32_t i = 1; i < levels; ++i) {
    tree::PackedTree::Pattern pat;
    pat.kind = tree::NodeKind::Task;
    pat.children = {{i - 1, 1}};
    chain.dictionary.push_back(pat);
  }
  chain.top = {{levels - 1, 1}};
  const tree::UnpackedExtent ext = tree::measure_unpacked(chain);
  EXPECT_EQ(ext.nodes, kMaxUploadDepth + 1);
  EXPECT_EQ(ext.depth, kMaxUploadDepth + 1);
  ProfileStore store;
  EXPECT_THROW(store.put(tree::to_binary(chain)), UploadTooLarge);
  EXPECT_EQ(store.size(), 0u);
}

TEST(ProfileStore, ConcurrentIdenticalUploadsConvergeOnOneEntry) {
  ProfileStore store;
  const std::string bytes = sample_pptb();
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int r = 0; r < 10; ++r) store.put(bytes);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.total_bytes(), bytes.size());
}

TEST(ResultCache, HitAfterPut) {
  ResultCache cache(1 << 20, 4);
  EXPECT_FALSE(cache.get("k").has_value());
  cache.put("k", "value");
  const auto hit = cache.get("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "value");
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(ResultCache, OverwriteRefreshesValue) {
  ResultCache cache(1 << 20, 1);
  cache.put("k", "v1");
  cache.put("k", "v2");
  EXPECT_EQ(*cache.get("k"), "v2");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  // One shard, tiny budget: each entry costs key+value = 2 bytes, budget
  // fits exactly two entries.
  ResultCache cache(4, 1);
  cache.put("a", "1");
  cache.put("b", "2");
  EXPECT_TRUE(cache.get("a").has_value());  // refresh "a"; "b" becomes LRU
  cache.put("c", "3");                      // evicts "b"
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 4u);
}

TEST(ResultCache, OversizedEntriesAreNotAdmitted) {
  ResultCache cache(8, 1);
  cache.put("big", std::string(100, 'x'));
  EXPECT_FALSE(cache.get("big").has_value());
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, ShardedConcurrentAccessKeepsBudget) {
  ResultCache cache(16 << 10, 8);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string key =
            "k" + std::to_string(t) + "." + std::to_string(i % 37);
        cache.put(key, std::string(64, 'v'));
        cache.get(key);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = cache.stats();
  EXPECT_LE(s.bytes, 16u << 10);
  EXPECT_GT(s.hits, 0u);
}

}  // namespace
}  // namespace pprophet::serve
