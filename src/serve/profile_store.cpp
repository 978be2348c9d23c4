#include "serve/profile_store.hpp"

#include <mutex>

#include "util/fnv.hpp"

namespace pprophet::serve {

std::string content_key(std::string_view bytes) {
  return util::fnv64_two_lane_hex(bytes);
}

ProfileStore::ProfileStore(std::size_t shards)
    : shards_(shards == 0 ? 1 : shards) {}

ProfileStore::Shard& ProfileStore::shard_of(const std::string& key) const {
  return shards_[util::fnv64(key) % shards_.size()];
}

ProfileStore::PutResult ProfileStore::put(const std::string& pptb_bytes) {
  const std::string key = content_key(pptb_bytes);
  Shard& shard = shard_of(key);
  {
    std::shared_lock lock(shard.mu);
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
      return {it->second, true};
    }
  }
  // Parse outside any lock: malformed uploads must not stall readers, and
  // concurrent identical uploads are resolved by the emplace below.
  auto entry = std::make_shared<Entry>();
  entry->key = key;
  entry->packed = tree::from_binary(pptb_bytes);
  const tree::UnpackedExtent extent = tree::measure_unpacked(entry->packed);
  if (extent.overflow || extent.nodes > kMaxUploadNodes ||
      extent.depth > kMaxUploadDepth) {
    throw UploadTooLarge(
        extent.overflow
            ? std::string("tree node or cycle count overflows 64 bits")
            : "tree expands to " + std::to_string(extent.nodes) +
                  " nodes at depth " + std::to_string(extent.depth) +
                  " (limits " + std::to_string(kMaxUploadNodes) + " nodes, " +
                  std::to_string(kMaxUploadDepth) + " levels)");
  }
  entry->nodes = extent.nodes;
  entry->serial_cycles = extent.serial_cycles;
  entry->compiled = std::make_shared<const tree::CompiledTree>(
      tree::CompiledTree::compile(tree::unpack(entry->packed)));
  entry->upload_bytes = pptb_bytes.size();

  std::unique_lock lock(shard.mu);
  const auto [it, inserted] = shard.map.emplace(key, std::move(entry));
  if (inserted) shard.total_bytes += pptb_bytes.size();
  return {it->second, !inserted};
}

std::shared_ptr<const ProfileStore::Entry> ProfileStore::find(
    const std::string& key) const {
  const Shard& shard = shard_of(key);
  std::shared_lock lock(shard.mu);
  const auto it = shard.map.find(key);
  return it == shard.map.end() ? nullptr : it->second;
}

std::size_t ProfileStore::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

std::size_t ProfileStore::total_bytes() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    n += shard.total_bytes;
  }
  return n;
}

}  // namespace pprophet::serve
