#pragma once

// Opportunistic batching (§III-D): the planner behind dlfs_sequence and
// dlfs_bread.
//
// BatchPlan carves the mounted dataset into *read units*:
//   - chunk-level batching: fixed-size data chunks (256 KB default), each
//     delivering every sample fully contained in it, plus one unit per
//     *edge sample* that crosses a chunk boundary (the paper's data-chunk
//     access list and edge-sample access list);
//   - sample-level batching (and the unbatched DLFS-Base): one unit per
//     sample.
//
// EpochSequence is the per-epoch global random order: every node seeds
// the same RNG (dlfs_sequence's shared seed), derives the same shuffled
// unit list with zero communication, and reads only its strided share —
// "every node only reads its assigned portion on the list" (§III-D.1).
// The delivered sample order under chunk batching is random-chunk /
// sequential-within-chunk; Fig. 13 validates that this relaxation does
// not hurt training accuracy.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dlfs/sample_entry.hpp"

namespace dlfs::core {

enum class BatchingMode {
  kNone,         // DLFS-Base: synchronous per-sample reads
  kSampleLevel,  // batch many per-sample requests up to the queue depth
  kChunkLevel,   // aggregate small samples into data chunks
};

/// Where a sample lives after mount.
struct SampleLocation {
  std::uint16_t nid = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
};

/// One sample delivered by a read unit.
struct UnitSample {
  std::uint32_t sample_id = 0;
  std::uint32_t offset_in_unit = 0;
  std::uint32_t len = 0;
};

/// One device extent the backend fetches as a whole.
struct ReadUnit {
  std::uint16_t nid = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  bool is_chunk = false;
  std::vector<UnitSample> samples;
};

class BatchPlan {
 public:
  /// `layout[i]` locates sample i. For chunk mode, chunks are aligned to
  /// the chunk grid of each node's data region (offset 0 upward).
  BatchPlan(const std::vector<SampleLocation>& layout,
            std::uint64_t chunk_bytes, BatchingMode mode);

  [[nodiscard]] BatchingMode mode() const { return mode_; }
  [[nodiscard]] const std::vector<ReadUnit>& units() const { return units_; }
  [[nodiscard]] std::size_t num_samples() const { return num_samples_; }
  [[nodiscard]] std::size_t num_chunk_units() const { return chunk_units_; }
  [[nodiscard]] std::size_t num_edge_units() const { return edge_units_; }

 private:
  BatchingMode mode_;
  std::vector<ReadUnit> units_;
  std::size_t num_samples_ = 0;
  std::size_t chunk_units_ = 0;
  std::size_t edge_units_ = 0;
};

/// One device extent of a prefetchable read unit. `key` is whatever the
/// provider's consumer uses to recognize the extent when the unit is
/// acquired — the sample id for per-sample extents (a replica-planned
/// chunk unit's included), the slot itself for whole chunks and record
/// files — so a provider may elide extents (e.g. already cache-resident
/// samples) without breaking the mapping.
struct UnitExtent {
  std::uint16_t nid = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  std::uint64_t key = 0;
  // Replica failover order for these bytes (empty without replication).
  std::vector<RouteHop> routes{};
  // Set on the per-sample extents of a chunk unit planned from replicas:
  // the byte offset at which this sample lands in the unit's one pool
  // chunk — its offset in the unit, so the chunk reads like a healthy one.
  std::optional<std::uint32_t> placement{};
};

/// What the asynchronous prefetcher walks: an ordered list of read units,
/// each a small set of device extents fetched as one window entry. One
/// implementation per read path — chunk units, fused groups of per-sample
/// extents, record files — so a single windowed daemon serves them all.
class ReadUnitProvider {
 public:
  virtual ~ReadUnitProvider() = default;
  [[nodiscard]] virtual std::size_t num_units() const = 0;
  /// Extents of unit `slot` worth fetching *at call time*: the provider
  /// may skip extents that are already resident elsewhere (sample cache).
  [[nodiscard]] virtual std::vector<UnitExtent> unit_extents(
      std::size_t slot) const = 0;
  /// True when unit `slot` is read as route-less extents whose bytes also
  /// live elsewhere, so a read stalled on a suspect node is worth
  /// re-planning (a chunk unit whose samples have replicas).
  [[nodiscard]] virtual bool replannable(std::size_t /*slot*/) const {
    return false;
  }
};

class SampleCache;

/// One client's walk through an epoch's shuffled unit list.
class EpochSequence {
 public:
  /// All clients pass the same seed (the dlfs_sequence contract) and get
  /// the same global shuffle; client c of k takes units c, c+k, c+2k, ...
  EpochSequence(const BatchPlan& plan, std::uint64_t seed,
                std::uint32_t client_idx, std::uint32_t num_clients);

  [[nodiscard]] std::size_t my_units() const { return order_.size(); }
  [[nodiscard]] std::size_t remaining_samples() const {
    return total_samples_ - consumed_samples_;
  }

  /// A contiguous run of picks from one unit.
  struct UnitPicks {
    const ReadUnit* unit = nullptr;
    std::size_t unit_slot = 0;       // index into this client's unit order
    std::uint32_t first_sample = 0;  // index into unit->samples
    std::uint32_t count = 0;
  };

  /// Advances the cursor by up to n samples; the final bread of an epoch
  /// may return fewer.
  [[nodiscard]] std::vector<UnitPicks> take(std::size_t n);

  /// Unit pointer for a slot (for fetch bookkeeping in the instance).
  [[nodiscard]] const ReadUnit* unit_at(std::size_t slot) const {
    return order_.at(slot);
  }

  /// Number of unit slots in this client's order.
  [[nodiscard]] std::size_t num_units() const { return order_.size(); }

 private:
  std::vector<const ReadUnit*> order_;
  std::size_t total_samples_ = 0;
  std::size_t consumed_samples_ = 0;
  std::size_t cur_unit_ = 0;
  std::uint32_t cur_sample_ = 0;
};

/// Every sample's position in an epoch's global order — the rank of its
/// unit in the shuffle EpochSequence derives from the same seed. Every
/// client computes it with zero communication; since each sample is read
/// exactly once per epoch fleet-wide, it says when a sample is next used.
[[nodiscard]] std::vector<std::uint32_t> sample_positions(
    const BatchPlan& plan, std::uint64_t seed);

/// ReadUnitProvider over an EpochSequence. Chunk mode maps 1:1 (group =
/// 1, every epoch slot is one chunk/edge unit, keyed by the slot);
/// sample-level and unbatched modes fuse `group` consecutive epoch slots
/// — each a single-sample unit — into one prefetch unit whose extents
/// are keyed by sample id. With a cache attached, extents whose sample
/// is already resident are elided at issue time, so warm epochs cost no
/// device read-ahead.
class EpochUnitProvider final : public ReadUnitProvider {
 public:
  /// `routes` (optional) resolves a sample id to its replica failover
  /// list; per-sample extents carry it so prefetched reads can fail over.
  /// A healthy chunk unit reads a record region, not samples — no routes.
  using RouteResolver = std::function<std::vector<RouteHop>(std::uint32_t)>;

  /// `peers` (optional) answers "is this sample currently resident in a
  /// cooperative peer cache?". Issue-time elision consults it after the
  /// local cache, so a warm peer set costs no device read-ahead either —
  /// the consume path fetches those bytes from the peer instead.
  using PeerProbe = std::function<bool(std::uint32_t)>;

  /// `live` (optional) answers "is this storage node up?". A chunk unit
  /// whose home node is down is planned from replicas instead: one
  /// extent per reachable sample, starting at its first live copy, keyed
  /// by sample id and placed at its offset in the unit (unreachable
  /// samples are left out, so the consumer skips them). `suspect`
  /// (optional, with `routes`) answers "may this node be dead?": a
  /// suspect home is planned around like a down one, and each sample
  /// starts at its first live non-suspect copy — a suspect copy stays
  /// its last resort, so suspicion never leaves a sample out.
  using NodeProbe = std::function<bool(std::uint16_t)>;

  EpochUnitProvider(const EpochSequence& seq, std::uint32_t group,
                    const SampleCache* cache, RouteResolver routes = {},
                    PeerProbe peers = {}, NodeProbe live = {},
                    NodeProbe suspect = {});

  [[nodiscard]] std::size_t num_units() const override;
  [[nodiscard]] std::vector<UnitExtent> unit_extents(
      std::size_t slot) const override;
  [[nodiscard]] bool replannable(std::size_t slot) const override;

  /// The prefetch unit covering epoch slot `epoch_slot`.
  [[nodiscard]] std::size_t unit_of(std::size_t epoch_slot) const {
    return epoch_slot / group_;
  }
  [[nodiscard]] std::uint32_t group() const { return group_; }

 private:
  const EpochSequence* seq_;
  std::uint32_t group_;
  const SampleCache* cache_;  // may be null: no elision
  RouteResolver routes_;      // may be null: no replication
  PeerProbe peers_;           // may be null: no peer cache
  NodeProbe live_;            // may be null: every node counts as up
  NodeProbe suspect_;         // may be null: no node is suspect
};

/// Trivial provider over a precomputed extent list, one unit per extent
/// (keyed by its slot). The record-file streaming path shuffles the
/// mounted record files and hands them here.
class ExtentListProvider final : public ReadUnitProvider {
 public:
  explicit ExtentListProvider(std::vector<UnitExtent> units)
      : units_(std::move(units)) {}

  [[nodiscard]] std::size_t num_units() const override {
    return units_.size();
  }
  [[nodiscard]] std::vector<UnitExtent> unit_extents(
      std::size_t slot) const override {
    return {units_.at(slot)};
  }

 private:
  std::vector<UnitExtent> units_;
};

}  // namespace dlfs::core
