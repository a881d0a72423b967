#include "dlfs/directory_view.hpp"

#include <stdexcept>

#include "common/hash.hpp"

namespace dlfs::core {

DirectoryView::DirectoryView(const SampleDirectory& dir, DirectoryConfig cfg,
                             std::vector<std::uint8_t> resident)
    : dir_(&dir), cfg_(cfg), resident_(std::move(resident)) {
  resident_.resize(dir.num_nodes(), 0);
  if (cfg_.lookup_cache_entries == 0) {
    throw std::invalid_argument(
        "DirectoryConfig::lookup_cache_entries must be >= 1");
  }
}

const SampleEntry* DirectoryView::cache_find(std::uint64_t key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  if (it->second.version != row_version(key)) {
    // The repair daemon republished this sample's hop set after the row
    // was cached: a real client's row is stale (it snapshots the routes
    // learned at RPC time) and must be re-fetched from the owner, so the
    // resolution goes remote again and pays the round trip.
    lru_.erase(it->second.lru);
    cache_.erase(it);
    ++stats_.stale_invalidations;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);  // touch
  return it->second.entry;
}

void DirectoryView::cache_insert(std::uint64_t key, const SampleEntry* entry) {
  if (cache_find(key) != nullptr) return;  // raced duplicate: already fresh
  while (cache_.size() >= cfg_.lookup_cache_entries) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.cache_evictions;
  }
  lru_.push_front(key);
  cache_.emplace(key, CacheRow{entry, lru_.begin(), row_version(key)});
}

DirectoryView::Resolution DirectoryView::resolve(std::uint16_t owner_slot,
                                                 std::uint64_t key) {
  Resolution r;
  r.owner_slot = owner_slot;
  r.cache_key = key;
  if (resident(owner_slot)) {
    ++stats_.local_hits;
    r.served = Served::kLocal;
  } else if (const SampleEntry* e = cache_find(key)) {
    ++stats_.cache_hits;
    r.entry = e;
    r.served = Served::kCached;
  } else {
    ++stats_.remote_lookups;
    r.served = Served::kRemote;
  }
  return r;
}

DirectoryView::Resolution DirectoryView::resolve_id(std::size_t sample_id) {
  Resolution r = resolve(dir_->owner_slot_of(sample_id), id_key(sample_id));
  if (r.served == Served::kLocal) r.entry = dir_->lookup_id(sample_id);
  return r;
}

DirectoryView::Resolution DirectoryView::resolve_name(std::string_view name) {
  Resolution r = resolve(dir_->owner_of(name), name_key(hash64(name)));
  if (r.served == Served::kLocal) r.entry = dir_->lookup(name);
  return r;
}

void DirectoryView::complete_remote(const Resolution& r,
                                    const SampleEntry* entry) {
  if (entry != nullptr) cache_insert(r.cache_key, entry);
}

std::uint64_t DirectoryView::resident_bytes() const {
  std::uint64_t bytes =
      kPartitionRowBytes * static_cast<std::uint64_t>(dir_->num_nodes());
  for (std::uint16_t s = 0; s < dir_->num_nodes(); ++s) {
    if (resident_[s] != 0) bytes += dir_->shard_bytes(s);
  }
  bytes += static_cast<std::uint64_t>(cache_.size()) *
           (SampleDirectory::kEntryBytes + SampleDirectory::kIdRowBytes);
  return bytes;
}

}  // namespace dlfs::core
