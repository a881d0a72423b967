#pragma once

// SampleCache: the huge-page-backed sample cache of §III-C.1, plus the
// per-instance V-bit sidecar.
//
// "We allocate the sample cache on huge pages to store the data read from
// local/remote NVMe devices ... the cache is divided into many fixed-size
// chunks (256 KB by default)."
//
// Completed sample reads are retained keyed by sample id; the V bit of a
// sample is on exactly while a copy is resident here, so a dlfs_read can
// serve a hit with a memcpy and no device I/O. Capacity is counted in
// pool chunks, mirroring how the real cache is carved.
//
// Retention follows the epoch schedule, not recency. Every client
// derives the same global shuffle from the shared seed, and each sample
// is read exactly once per epoch across the fleet, so the installed order
// says when every resident entry is next used. A sample being inserted
// has just been read: its next use is at a uniformly random point of a
// later, independently reshuffled epoch, which makes it worth no more
// than any entry already resident (each of those is due this epoch or,
// if already read, equally random next epoch). Displacing a resident
// entry for it can therefore never raise the expected hit count and
// costs a retract/advertise pair plus chunk churn — so a full cache
// *declines* the insert and keeps its entries. A fleet of full caches
// then serves exactly its resident set every epoch, the most any policy
// can without knowing future epochs' orders.
//
// Entries leave only when the huge-page pool runs dry (evict_one()) or
// on an explicit evict(). The pressure victim is chosen by next use: an
// unpinned entry not due this epoch first (already read, or in another
// client's share with no peer cache to serve it from here), otherwise
// the unpinned entry farthest ahead in the installed order. With no
// order installed nothing is known to be due and any unpinned entry may
// go. Entries pinned by an in-flight copy or peer serve are never
// evicted.
//
// The index is sharded by sample id: each shard owns its own hash map and
// access ledger, so the hot-path operations (valid/pin/unpin/insert) form
// per-shard critical slices instead of funnelling every reader and the
// read-ahead inserter through one cache-wide slice. The chunk budget and
// the victim choice stay global across all shards.

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "mem/hugepage_pool.hpp"
#include "sim/check.hpp"

namespace dlfs::core {

/// Cooperative peer sample cache configuration (nested in DlfsConfig).
/// The dataset is immutable after mount, so serving another instance's
/// cached bytes is coherence-free by construction — the only policy
/// knobs are whether to cooperate at all and how much residency a node
/// may advertise into the cluster cache directory.
struct PeerCacheConfig {
  /// What happens when new residency would push a node past its
  /// advertise budget.
  enum class Eviction : std::uint8_t {
    kLru,        // retract the node's oldest advertisement to make room
    kRefuseNew,  // keep the old set; the new residency goes unadvertised
  };

  bool enabled = false;
  /// Advertised-residency budget per client node, in bytes. 0 means
  /// every resident sample is advertised (already bounded by the cache
  /// capacity itself). Unadvertised residency is served to no peer,
  /// co-located or remote.
  std::uint64_t advertise_budget_bytes = 0;
  Eviction eviction = Eviction::kLru;

  friend bool operator==(const PeerCacheConfig&,
                         const PeerCacheConfig&) = default;
};

class SampleCache {
 public:
  /// `capacity_chunks` bounds the resident set; the pool is where chunk
  /// memory comes from (shared with in-flight I/O buffers).
  SampleCache(mem::HugePagePool& pool, std::size_t capacity_chunks,
              std::size_t num_samples);

  SampleCache(const SampleCache&) = delete;
  SampleCache& operator=(const SampleCache&) = delete;

  /// The per-instance V bit (paper: tracked in the sample entry; here a
  /// sidecar because entries are shared between in-process nodes).
  [[nodiscard]] bool valid(std::size_t sample_id) const {
    return valid_bits_[sample_id] != 0;
  }

  /// A resident sample's bytes, as the list of chunk-piece spans it
  /// occupies (in order). Pins the entry until unpin() and marks it read
  /// this epoch (a pin is a delivery: a local hit or a peer serve).
  /// Returns empty if not resident.
  [[nodiscard]] std::vector<std::span<const std::byte>> pin(
      std::size_t sample_id);
  void unpin(std::size_t sample_id);

  /// Inserts a completed read: takes ownership of the chunk buffers
  /// holding the sample (piece i holds bytes [piece_len[i]] of it). A
  /// cache without room for it declines the insert and keeps every
  /// resident entry (the data still reaches the application; it just
  /// isn't retained).
  void insert(std::size_t sample_id, std::vector<mem::DmaBuffer> pieces,
              std::vector<std::uint32_t> piece_lens);

  /// install_order() position of a sample this cache will not serve
  /// again this epoch; also the state of an entry once it has been read
  /// (or while no order is installed). Sorts after every real position.
  static constexpr std::uint32_t kNotDue =
      std::numeric_limits<std::uint32_t>::max();

  /// Installs an epoch's order: `position[s]` is sample s's place in the
  /// fleet-wide shuffle (see sample_positions()), or kNotDue if it will
  /// not be read from this cache this epoch. Every resident entry becomes
  /// due at its position until it is next read.
  void install_order(std::span<const std::uint32_t> position);

  /// Drops a resident sample (no-op if absent or pinned).
  void evict(std::size_t sample_id);

  /// Evicts the unpinned entry whose next use is farthest away — one not
  /// due this epoch, else the one latest in the installed order; returns
  /// false if nothing unpinned is resident. The I/O engine calls this
  /// under huge-page pool pressure — the cache and in-flight DMA buffers
  /// share the pool, so a full cache must yield chunks back to keep I/O
  /// flowing.
  bool evict_one();

  [[nodiscard]] std::size_t resident_samples() const;
  [[nodiscard]] std::size_t resident_chunks() const;
  [[nodiscard]] std::size_t capacity_chunks() const { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  /// Inserts a full cache declined, keeping its resident entries.
  [[nodiscard]] std::uint64_t declined_inserts() const { return declined_; }
  /// Entries removed by evict_one() (pool pressure) or evict().
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  void note_hit() { ++hits_; }
  void note_miss() { ++misses_; }

  /// Residency listener: fired synchronously with (sample_id, resident)
  /// every time this cache's V bit flips. The cooperative peer cache
  /// uses it to advertise/retract residency in the cluster cache
  /// directory. Must be suspension-free — it runs inside cache slices.
  void set_residency_listener(std::function<void(std::size_t, bool)> fn) {
    residency_listener_ = std::move(fn);
  }

 private:
  static constexpr std::size_t kShards = 4;

  struct Entry {
    std::vector<mem::DmaBuffer> pieces;
    std::vector<std::uint32_t> piece_lens;
    std::uint32_t pins = 0;
    std::uint32_t next_use = kNotDue;  // position in the installed order
  };

  struct Shard {
    explicit Shard(const char* ledger_name) : ledger(ledger_name) {}
    // Each shard's map/chunks_used form one suspension-free slice; the
    // ledger enforces that should a co_await ever creep in.
    mutable dlsim::AccessLedger ledger;
    std::unordered_map<std::size_t, Entry> map;
    std::size_t chunks_used = 0;
  };

  [[nodiscard]] Shard& shard_of(std::size_t sample_id) {
    return shards_[sample_id % kShards];
  }

  /// Removes an unpinned resident entry (caller holds its shard's write
  /// slice) and clears its V bit.
  void erase_entry(Shard& sh,
                   std::unordered_map<std::size_t, Entry>::iterator it);

  mem::HugePagePool* pool_;
  std::size_t capacity_;
  std::vector<std::uint8_t> valid_bits_;
  std::array<Shard, kShards> shards_{
      Shard{"sample-cache-0"}, Shard{"sample-cache-1"},
      Shard{"sample-cache-2"}, Shard{"sample-cache-3"}};
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t declined_ = 0;
  std::uint64_t evictions_ = 0;
  std::function<void(std::size_t, bool)> residency_listener_;
};

/// PeerCacheDirectory: the cooperative cache's one residency index. A
/// consistent-hash cache directory mapping sample id -> the client
/// instances currently holding it in DRAM, with a per-node
/// advertised-bytes budget. Residency deltas are published synchronously
/// by the SampleCache residency listener — the model's stand-in for
/// piggybacking them on existing metadata traffic. Co-located holders
/// (find() with a node filter) are served over shared DRAM; remote ones
/// through the home-directed request/forward hops, whose fabric/CPU cost
/// the DlfsInstance peer-read path charges. A sample resident but not
/// advertised (over budget) is served by nobody but its own cache. The
/// object itself is cost-free bookkeeping.
class PeerCacheDirectory {
 public:
  PeerCacheDirectory(PeerCacheConfig cfg, std::uint32_t num_clients);

  /// Home client of a sample — the consistent-hash probe discipline the
  /// replica placement uses (hash of the key with a '\x1f'-separated
  /// probe rank; rank 0 is the home, the degenerate k=1 chain). The home
  /// answers or forwards peer-read requests for the sample.
  [[nodiscard]] std::uint32_t home_client(std::size_t sample_id) const;

  /// Client `holder` (on `node`) now holds `sample_id` (`bytes` long).
  /// Subject to the node's advertise budget and eviction policy.
  void advertise(std::uint32_t holder, std::uint16_t node,
                 std::size_t sample_id, std::uint32_t bytes);
  void retract(std::uint32_t holder, std::size_t sample_id);
  void retract_all(std::uint32_t holder);

  struct Holder {
    bool found = false;
    std::uint32_t client = 0;
    std::uint16_t node = 0;
  };
  /// Some advertised holder of `sample_id` other than `asking`, on
  /// `node` if one is given (deterministic: first surviving
  /// advertisement wins).
  [[nodiscard]] Holder find(
      std::size_t sample_id, std::uint32_t asking,
      std::optional<std::uint16_t> node = std::nullopt) const;

  [[nodiscard]] std::uint64_t advertised_bytes(std::uint16_t node) const;
  [[nodiscard]] std::uint64_t budget_retractions() const {
    return budget_retractions_;
  }
  [[nodiscard]] std::uint64_t refused_adverts() const { return refused_; }

 private:
  struct Ad {
    std::uint32_t holder = 0;
    std::uint16_t node = 0;
    std::uint32_t bytes = 0;
  };
  struct NodeBook {
    std::uint64_t bytes = 0;
    // Advertise order, front = oldest: the kLru budget policy retracts
    // from the front.
    std::list<std::pair<std::size_t, std::uint32_t>> order;
  };

  void retract_locked(std::uint32_t holder, std::size_t sample_id);

  PeerCacheConfig cfg_;
  std::uint32_t num_clients_;
  mutable dlsim::AccessLedger ledger_{"peer-cache-directory"};
  std::unordered_map<std::size_t, std::vector<Ad>> ads_;
  std::unordered_map<std::uint16_t, NodeBook> books_;
  std::uint64_t budget_retractions_ = 0;
  std::uint64_t refused_ = 0;
};

}  // namespace dlfs::core
