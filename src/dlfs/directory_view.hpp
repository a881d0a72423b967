// DirectoryView: a client's *partial* view of the sample directory.
//
// The classic DLFS mount (§III-B) all-gathers every shard to every
// client, so per-client directory memory is O(dataset). At FalconFS
// scale (tens of millions of tiny samples, dozens of jobs) that is the
// limit that breaks first. The sharded mount keeps each AVL shard
// resident only where it was built — on its storage node — and gives
// every client this view instead:
//
//   * a partition map (one fixed-size row per storage slot: owner node,
//     entry count) gathered by the same ring collective that used to
//     move whole shards;
//   * the shards co-located with the client's own node, resident at the
//     usual entry + id-row rates;
//   * a bounded lookup cache (LRU over resolved entries) filled by
//     NVMe-oF-style metadata RPCs to the owning node.
//
// So per-client memory is O(dataset / S) + O(cache), proven with the
// same byte accounting `SampleDirectory::shard_bytes` uses for the full
// allgather.
//
// Deviation from a real deployment, consistent with the rest of the
// repo: the fully-built `SampleDirectory` object is shared in-process,
// so a "remote" resolution returns a pointer into the same trees the
// full mount would have copied — results are byte-identical by
// construction, and what the sharded mount changes is *time* (the RPC
// round trip, charged by the caller) and *accounted memory* (this
// class). The view itself is cost-free bookkeeping: it decides how a
// lookup would have been served and maintains the cache; the caller
// charges fabric/CPU accordingly.

#pragma once

#include <cstdint>
#include <list>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dlfs/sample_directory.hpp"

namespace dlfs::core {

/// How a client holds the directory after mount.
enum class DirectoryMode : std::uint8_t {
  kFull,     // classic §III-B: all-gather every shard to every client
  kSharded,  // partition map + co-located shards + lazy remote lookup
};

struct DirectoryConfig {
  DirectoryMode mode = DirectoryMode::kFull;
  /// Capacity of the lookup cache (entries resolved remotely),
  /// LRU-evicted. Each cached entry is accounted at the same
  /// entry + id-row rate as a resident shard entry.
  std::size_t lookup_cache_entries = 4096;
};

struct DirectoryViewStats {
  std::uint64_t local_hits = 0;       // served by a resident shard
  std::uint64_t cache_hits = 0;       // served by the lookup cache
  std::uint64_t remote_lookups = 0;   // resolutions that need an RPC
  std::uint64_t cache_evictions = 0;  // lookup-cache LRU evictions
  /// Cached rows dropped because the sample's route set was republished
  /// (repair daemon) after the row was filled — served stale nowhere.
  std::uint64_t stale_invalidations = 0;
};

class DirectoryView {
 public:
  /// Accounted size of one partition-map row (slot -> owner node id +
  /// entry count); also the per-node slice the sharded mount's ring
  /// exchange moves instead of the whole shard.
  static constexpr std::uint64_t kPartitionRowBytes = 8;

  /// How one resolution was (or must be) served. kRemote means the
  /// caller owes an RPC round trip to the owner before calling
  /// complete_remote() with the result.
  enum class Served : std::uint8_t { kLocal, kCached, kRemote };

  struct Resolution {
    const SampleEntry* entry = nullptr;  // null: absent, or kRemote pending
    Served served = Served::kLocal;
    std::uint16_t owner_slot = 0;
    std::uint64_t cache_key = 0;  // pass through to complete_remote()
  };

  /// `resident[slot]` marks the shards this client holds (its co-located
  /// storage slots; empty client nodes hold none).
  DirectoryView(const SampleDirectory& dir, DirectoryConfig cfg,
                std::vector<std::uint8_t> resident);

  /// Resolution by sample id (the dlfs_sequence / bread hot path). The
  /// id -> owner-slot step reads the partition metadata, not the shard.
  [[nodiscard]] Resolution resolve_id(std::size_t sample_id);

  /// Resolution by name (the dlfs_open path).
  [[nodiscard]] Resolution resolve_name(std::string_view name);

  /// Deliver the owner's answer for a resolution that returned kRemote:
  /// installs the entry in the lookup cache (evicting LRU). A name the
  /// owner reported absent is not cached; each miss pays its own RPC.
  void complete_remote(const Resolution& r, const SampleEntry* entry);

  [[nodiscard]] bool resident(std::uint16_t slot) const {
    return slot < resident_.size() && resident_[slot] != 0;
  }
  [[nodiscard]] const DirectoryViewStats& stats() const { return stats_; }

  /// Directory memory this client actually holds: partition map +
  /// resident shards (at shard_bytes rates) + the lookup cache. The full
  /// allgather equivalent is sum(shard_bytes) over every slot.
  [[nodiscard]] std::uint64_t resident_bytes() const;

 private:
  // Cache keys live in one uint64 space: ids tagged with a low 1-bit,
  // name hashes shifted in with a low 0-bit, so the two access paths can
  // never collide.
  static std::uint64_t id_key(std::size_t sample_id) {
    return (static_cast<std::uint64_t>(sample_id) << 1) | 1u;
  }
  static std::uint64_t name_key(std::uint64_t name_hash) {
    return name_hash << 1;
  }

  /// The ladder both resolve_* share: a resident owner slot answers
  /// kLocal (the caller walks the shard), then the lookup cache, else the
  /// resolution goes remote.
  [[nodiscard]] Resolution resolve(std::uint16_t owner_slot,
                                   std::uint64_t key);
  [[nodiscard]] const SampleEntry* cache_find(std::uint64_t key);
  void cache_insert(std::uint64_t key, const SampleEntry* entry);

  // Route-set version a cache row for `key` must match to be served:
  // id-keyed rows validate against the sample's own version, name-keyed
  // rows (no id available) against the coarse directory epoch.
  [[nodiscard]] std::uint64_t row_version(std::uint64_t key) const {
    return (key & 1u) != 0 ? dir_->route_version(key >> 1)
                           : dir_->route_epoch();
  }

  const SampleDirectory* dir_;
  DirectoryConfig cfg_;
  std::vector<std::uint8_t> resident_;  // index = storage slot

  // Lookup cache: key -> entry, LRU order front = most recent.
  struct CacheRow {
    const SampleEntry* entry;
    std::list<std::uint64_t>::iterator lru;
    std::uint64_t version;  // dir route version when the row was filled
  };
  std::unordered_map<std::uint64_t, CacheRow> cache_;
  std::list<std::uint64_t> lru_;

  DirectoryViewStats stats_;
};

}  // namespace dlfs::core
