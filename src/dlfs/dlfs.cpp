#include "dlfs/dlfs.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "common/units.hpp"
#include "dataset/record_file.hpp"

namespace dlfs::core {

namespace {
using namespace dlfs::byte_literals;

/// Spans of a [offset, offset+len) window across an ordered list of
/// fixed-size pieces (the chunk-split buffers of one read unit).
std::vector<std::span<const std::byte>> window_views(
    const std::vector<mem::DmaBuffer>& pieces, std::uint64_t piece_size,
    std::uint64_t offset, std::uint32_t len) {
  std::vector<std::span<const std::byte>> out;
  std::uint64_t pos = offset;
  std::uint32_t left = len;
  while (left > 0) {
    const std::size_t idx = static_cast<std::size_t>(pos / piece_size);
    const std::uint64_t in_piece = pos % piece_size;
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, piece_size - in_piece));
    out.push_back(pieces.at(idx).span().subspan(in_piece, n));
    pos += n;
    left -= n;
  }
  return out;
}

/// Piece lengths of a `len`-byte extent split at the chunk size — the
/// split start_extent performs; prefetched buffers come back in exactly
/// these pieces.
std::vector<std::uint32_t> piece_lens_of(std::uint32_t len,
                                         std::uint64_t chunk_bytes) {
  std::vector<std::uint32_t> lens;
  std::uint32_t left = len;
  while (left > 0) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, chunk_bytes));
    lens.push_back(n);
    left -= n;
  }
  return lens;
}

/// Hashed probes at the head of a k-copy replica chain.
constexpr std::uint32_t hash_probes(std::uint32_t k) { return 8 * k + 32; }

/// Slot of probe `r` (r >= 1) in a sample's replica chain: hash(name ‖ r)
/// % S for the hashed probes, then the linear tail (primary + r) % S,
/// which reaches every slot. Mount-time placement and repair both walk
/// it, so a repair lands where placement would have put the next copy.
std::uint16_t replica_probe(const std::string& name, std::uint16_t primary,
                            std::uint32_t r, std::uint32_t k,
                            std::size_t slots) {
  return static_cast<std::uint16_t>(
      r <= hash_probes(k)
          ? hash64(name + '\x1f' + std::to_string(r)) % slots
          : (primary + r) % slots);
}

/// Metadata-RPC reply payload for the sharded directory: one packed
/// entry plus its id-index row — what the owning node returns.
constexpr std::uint64_t kLookupReplyBytes =
    SampleDirectory::kEntryBytes + SampleDirectory::kIdRowBytes;

/// True when the stored extent error is a node-level fault (survivable:
/// skip the samples); false for media and unknown errors (fatal).
bool is_node_fault(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const IoError& e) {
    return e.kind != IoErrorKind::kMedia;
  } catch (...) {
    return false;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// DlfsFleet

DlfsFleet::DlfsFleet(cluster::Cluster& cluster, cluster::Pfs& pfs,
                     const dataset::Dataset& ds, DlfsConfig config,
                     std::vector<hw::NodeId> client_nodes,
                     std::vector<hw::NodeId> storage_nodes)
    : cluster_(&cluster),
      pfs_(&pfs),
      dataset_(&ds),
      config_(config),
      client_nodes_(std::move(client_nodes)),
      storage_nodes_(std::move(storage_nodes)),
      directory_(storage_nodes_.empty() ? cluster.size()
                                        : static_cast<std::uint32_t>(
                                              storage_nodes_.size())),
      upload_barrier_(cluster.simulator(),
                      storage_nodes_.empty() ? cluster.size()
                                             : storage_nodes_.size()),
      allgather_barrier_(cluster.simulator(),
                         storage_nodes_.empty() ? cluster.size()
                                                : storage_nodes_.size()),
      ready_barrier_(cluster.simulator(), 1) {
  if (config_.tenant.governor) {
    tenant_ = config_.tenant.governor->register_tenant(
        TenantQos{config_.tenant.name, config_.tenant.weight,
                  config_.tenant.priority, config_.tenant.max_inflight});
  }
  if (client_nodes_.empty()) {
    for (std::uint32_t i = 0; i < cluster.size(); ++i) {
      client_nodes_.push_back(i);
    }
  }
  if (storage_nodes_.empty()) {
    for (std::uint32_t i = 0; i < cluster.size(); ++i) {
      storage_nodes_.push_back(i);
    }
  }
  ready_barrier_ = cluster::Barrier(cluster.simulator(), participants());

  // Deterministic layout: every sample is owned by hash(name) % S; shards
  // pack samples back-to-back from device offset 0 in dataset order —
  // either raw (one extent per sample) or grouped into TFRecord-style
  // batched files of record_file_samples each (8-byte header per record;
  // the sample entry points at the payload, so the directory gives
  // direct access to any sample inside a batched file).
  const std::size_t n = dataset_->num_samples();
  layout_.resize(n);
  shard_samples_.resize(storage_nodes_.size());
  record_files_.resize(storage_nodes_.size());
  name_to_id_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& spec = dataset_->sample(i);
    const std::uint16_t slot = directory_.owner_of(spec.name);
    shard_samples_[slot].push_back(static_cast<std::uint32_t>(i));
    name_to_id_.emplace(hash64(spec.name), static_cast<std::uint32_t>(i));
  }
  // device_base lets several fleets (tenants) pack disjoint regions on the
  // same physical devices; each fleet's shards start at its own base.
  std::vector<std::uint64_t> next_offset(storage_nodes_.size(),
                                         config_.device_base);
  const std::uint32_t per_file = config_.record_file_samples;
  for (std::uint16_t slot = 0; slot < storage_nodes_.size(); ++slot) {
    auto& files = record_files_[slot];
    for (std::size_t k = 0; k < shard_samples_[slot].size(); ++k) {
      const std::uint32_t id = shard_samples_[slot][k];
      const std::uint32_t size = dataset_->sample(id).size;
      if (per_file > 0) {
        if (k % per_file == 0) {
          files.push_back(RecordFileInfo{
              "rf" + std::to_string(slot) + "_" +
                  std::to_string(files.size()),
              next_offset[slot], 0, {}});
        }
        next_offset[slot] += 8;  // record header
        files.back().sample_ids.push_back(id);
      }
      layout_[id] = SampleLocation{slot, next_offset[slot], size};
      next_offset[slot] += size;
      if (per_file > 0) {
        auto& f = files.back();
        const std::uint64_t len = next_offset[slot] - f.offset;
        if (len > core::SampleEntry::kMaxLen) {
          throw std::invalid_argument(
              "record_file_samples groups more than 8 MiB per file; the "
              "23-bit length field cannot address it");
        }
        f.len = static_cast<std::uint32_t>(len);
      }
    }
  }
  // Replica placement (replication > 1): sample i's copy r lives on
  // hash(name ‖ r) % S, skipping nodes that already hold one; a bounded
  // linear fallback guarantees k distinct nodes when the hash keeps
  // colliding. Replica bytes are always raw per-sample extents (no
  // record headers — replica reads return exactly the payload) appended
  // after each slot's primary region, so primary offsets — and therefore
  // every healthy run — stay byte-identical to replication = 1.
  const std::uint32_t reps = std::min<std::uint32_t>(
      std::max<std::uint32_t>(config_.fault.replication.k, 1),
      static_cast<std::uint32_t>(storage_nodes_.size()));
  effective_reps_ = reps;
  if (reps > 1) {
    replica_layout_.resize(n);
    shard_replicas_.resize(storage_nodes_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint16_t primary = layout_[i].nid;
      std::vector<std::uint16_t> chosen{primary};
      for (std::uint32_t r = 1; chosen.size() < reps; ++r) {
        const std::uint16_t cand =
            replica_probe(dataset_->sample(i).name, primary, r, reps,
                          storage_nodes_.size());
        if (std::find(chosen.begin(), chosen.end(), cand) != chosen.end()) {
          continue;
        }
        chosen.push_back(cand);
        const std::uint64_t off = next_offset[cand];
        next_offset[cand] += layout_[i].len;
        shard_replicas_[cand].push_back(
            ReplicaRow{static_cast<std::uint32_t>(i), off});
        replica_layout_[i].push_back(RouteHop{cand, off});
      }
    }
  }
  for (std::uint16_t s = 0; s < storage_nodes_.size(); ++s) {
    const auto cap =
        cluster_->node(storage_nodes_[s]).device().capacity();
    if (next_offset[s] > cap) {
      throw std::invalid_argument(
          "dataset shard exceeds device capacity on storage slot " +
          std::to_string(s));
    }
  }
  plan_ = std::make_unique<BatchPlan>(layout_, config_.chunk_bytes,
                                      config_.batching);
  targets_.resize(storage_nodes_.size());
  instances_.resize(client_nodes_.size());
  // Self-healing replication: remember where each slot's data region ends
  // so repair extents can be allocated after it, and start with no slot
  // declared dead.
  declared_dead_.assign(storage_nodes_.size(), 0);
  repair_next_offset_ = std::move(next_offset);
  if (config_.peer_cache.enabled) {
    // Cooperative peer cache: one cluster-wide consistent-hash directory
    // of advertised residency, consulted for co-located and remote
    // holders alike.
    peer_directory_ = std::make_shared<PeerCacheDirectory>(
        config_.peer_cache, static_cast<std::uint32_t>(client_nodes_.size()));
  }
}

DlfsFleet::~DlfsFleet() = default;

std::optional<std::uint32_t> DlfsFleet::sample_id_of(
    std::string_view name) const {
  auto it = name_to_id_.find(hash64(name));
  if (it == name_to_id_.end()) return std::nullopt;
  return it->second;
}

dlsim::Task<void> DlfsFleet::mount_participant(std::uint32_t p) {
  auto& sim = cluster_->simulator();

  // --- storage role: upload shard, build directory slice ------------------
  if (p < storage_nodes_.size()) {
    cluster::Node& node = cluster_->node(storage_nodes_[p]);
    const auto& ids = shard_samples_[p];
    std::uint64_t shard_bytes = 0;
    for (auto id : ids) shard_bytes += layout_[id].len;
    // Replica rows hosted on this slot ride the same PFS stream.
    static const std::vector<ReplicaRow> kNoReplicas;
    const auto& replicas =
        p < shard_replicas_.size() ? shard_replicas_[p] : kNoReplicas;
    for (const auto& row : replicas) shard_bytes += layout_[row.sample_id].len;

    // One streamed PFS request for the whole shard.
    co_await pfs_->stream_samples(ids.empty() ? 0 : ids.front(),
                                  ids.size() + replicas.size(), shard_bytes);

    // Write the shard to the local device in 1 MiB segments, pipelined at
    // queue depth 8. Contents are generated from the dataset's content
    // function into a staging buffer (functionally real bytes).
    {
      auto qp = node.device().create_qpair(8);
      constexpr std::uint64_t kSegment = 1_MiB;
      std::vector<std::byte> staging(kSegment);
      std::uint64_t seg_start = 0;  // device offset of the staged segment
      std::uint64_t seg_fill = 0;
      auto flush = [&]() -> dlsim::Task<void> {
        if (seg_fill == 0) co_return;
        while (qp->outstanding() >= qp->depth()) {
          co_await qp->wait_for_completion();
          (void)qp->poll();
        }
        const auto st =
            qp->submit(hw::IoOp::kWrite, seg_start,
                       std::span<std::byte>(staging.data(), seg_fill), 0);
        if (st != hw::IoStatus::kOk) {
          throw std::runtime_error("device write failed during mount");
        }
        seg_start += seg_fill;
        seg_fill = 0;
      };
      // Staging is a plain synchronous copy: only a full segment's flush
      // may suspend. (A per-sample co_await that completes inline nests
      // one frame per sample in builds without guaranteed tail calls,
      // such as sanitizer builds, and overflows the stack on large
      // shards.)
      auto stage = [&](std::span<const std::byte> bytes) {
        const std::uint64_t ncopy =
            std::min<std::uint64_t>(bytes.size(), kSegment - seg_fill);
        std::memcpy(staging.data() + seg_fill, bytes.data(), ncopy);
        seg_fill += ncopy;
        return bytes.subspan(ncopy);
      };
      std::vector<std::byte> scratch;
      for (auto id : ids) {
        const SampleLocation& loc = layout_[id];
        scratch.resize(loc.len);
        dataset_->fill_content(id, 0, scratch);
        if (config_.record_file_samples > 0) {
          // TFRecord-style header: length | crc32(payload).
          std::array<std::byte, 8> header;
          dataset::write_record_header(header, loc.len,
                                       dataset::crc32(scratch));
          for (auto rest = stage(header); !rest.empty(); rest = stage(rest)) {
            co_await flush();
          }
        }
        for (auto rest = stage(scratch); !rest.empty(); rest = stage(rest)) {
          co_await flush();
        }
      }
      // Replica region: the rows were assigned contiguous offsets right
      // after the primary region in this exact order, so the sequential
      // staging stream lands each copy at its planned offset.
      for (const auto& row : replicas) {
        scratch.resize(layout_[row.sample_id].len);
        dataset_->fill_content(row.sample_id, 0, scratch);
        for (auto rest = stage(scratch); !rest.empty(); rest = stage(rest)) {
          co_await flush();
        }
      }
      co_await flush();
      while (qp->outstanding() > 0) {
        co_await qp->wait_for_completion();
        (void)qp->poll();
      }
    }

    // Build this node's AVL slice (host-side insert; ~300 ns/sample of
    // simulated CPU — tree construction is pointer chasing + rebalance).
    for (auto id : ids) {
      const SampleLocation& loc = layout_[id];
      directory_.insert(id, dataset_->sample(id).name, loc.nid, loc.offset,
                        loc.len);
      // The primary owner registers the sample's replica hops (its
      // insert just created the id-index row they attach to); every
      // registration lands before the upload barrier, so the allgather
      // slices below already account the replica rows.
      if (!replica_layout_.empty()) {
        for (const RouteHop& h : replica_layout_[id]) {
          directory_.add_replica(id, h.nid, h.offset);
        }
      }
    }
    // File-oriented entries for the batched record files on this node.
    for (const auto& f : record_files_[p]) {
      directory_.insert_file(f.name, p, f.offset, f.len);
    }
    co_await node.core(0).compute(
        300ull * std::max<std::size_t>(ids.size() + record_files_[p].size(),
                                       1));

    co_await upload_barrier_.arrive();
    if (config_.directory.mode == DirectoryMode::kSharded) {
      // Sharded mount: only the partition map (one fixed-size row per
      // node) crosses the fabric; shard trees stay on their owners and
      // foreign samples resolve lazily through the metadata RPC.
      co_await cluster::ring_allgather_rows(
          sim, cluster_->fabric(), allgather_barrier_, p,
          static_cast<std::uint32_t>(storage_nodes_.size()),
          DirectoryView::kPartitionRowBytes);
    } else {
      // Full mount: all-gather every directory slice (data is shared
      // in-process; the ring models the communication time of moving
      // every slice to every node).
      std::vector<std::uint64_t> slice_bytes(storage_nodes_.size());
      for (std::uint16_t s = 0; s < storage_nodes_.size(); ++s) {
        slice_bytes[s] = directory_.shard_bytes(s);
      }
      co_await cluster::ring_allgather(sim, cluster_->fabric(),
                                       allgather_barrier_, p, slice_bytes);
    }
  }

  co_await ready_barrier_.arrive();

  // --- client role: build the instance and its queues ---------------------
  if (p < client_nodes_.size()) {
    cluster::Node& node = cluster_->node(client_nodes_[p]);
    // One I/O thread per client, pinned to the next free core of its node.
    // client_core_base shifts the whole range so co-located fleets
    // (multi-tenant runs) do not time-share a core.
    std::size_t ordinal = config_.client_core_base;
    for (std::uint32_t q = 0; q < p; ++q) {
      if (client_nodes_[q] == client_nodes_[p]) ++ordinal;
    }
    auto inst = std::unique_ptr<DlfsInstance>(
        new DlfsInstance(*this, p, node, node.core(ordinal)));
    for (std::uint16_t s = 0; s < storage_nodes_.size(); ++s) {
      cluster::Node& snode = cluster_->node(storage_nodes_[s]);
      std::unique_ptr<spdk::IoQueue> q;
      if (storage_nodes_[s] == client_nodes_[p]) {
        inst->driver_->attach(snode.device());
        q = inst->driver_->create_io_queue(snode.device(),
                                           config_.queue_depth);
      } else {
        if (!targets_[s]) {
          targets_[s] = std::make_unique<spdk::NvmfTarget>(
              sim, cluster_->fabric(), storage_nodes_[s], snode.device());
        }
        q = targets_[s]->connect(client_nodes_[p], *inst->pool_,
                                 config_.queue_depth, config_.fault.nvmf);
      }
      inst->engine_->attach_target(s, std::move(q));
    }
    instances_[p] = std::move(inst);
  }
  mounted_ = true;
}

void DlfsFleet::mount() {
  dlsim::Simulator& sim = cluster_->simulator();
  for (std::uint32_t p = 0; p < participants(); ++p) {
    sim.spawn(mount_participant(p));
  }
  sim.run();
  sim.rethrow_failures();
  if (!mounted_) {
    throw std::runtime_error(
        "DlfsFleet::mount: collective did not complete (a participant "
        "blocked before the ready barrier)");
  }
}

// ---------------------------------------------------------------------------
// DlfsInstance

DlfsInstance::DlfsInstance(DlfsFleet& fleet, std::uint32_t client_idx,
                           cluster::Node& node, dlsim::CpuCore& core)
    : fleet_(&fleet),
      client_idx_(client_idx),
      node_(&node),
      io_core_(&core) {
  const DlfsConfig& cfg = fleet.config_;
  pool_ = std::make_unique<mem::HugePagePool>(cfg.pool_bytes,
                                              cfg.chunk_bytes);
  pool_->set_scribble_on_free(cfg.scribble_on_free);
  cache_ = std::make_unique<SampleCache>(*pool_, cfg.cache_chunks,
                                         fleet.dataset_->num_samples());
  driver_ = std::make_unique<spdk::NvmeDriver>(node.simulator(), *pool_);
  IoEngineConfig ecfg;
  ecfg.chunk_bytes = cfg.chunk_bytes;
  ecfg.copy_threads = cfg.copy_threads;
  ecfg.reprobe_interval = cfg.fault.reprobe_interval;
  engine_ = std::make_unique<IoEngine>(node.simulator(), *pool_, *cache_,
                                       cfg.calibration, ecfg);
  // Multi-tenant QoS: every queue this instance owns submits through the
  // fleet's tenant handle, so one governor arbitrates all of the job's
  // traffic against co-located jobs.
  engine_->set_tenant(fleet.tenant_);
  if (cfg.directory.mode == DirectoryMode::kSharded) {
    // Resident shards are the slots co-located with this client's node
    // (their trees are in local memory anyway); everything else resolves
    // lazily through the owner's metadata RPC.
    std::vector<std::uint8_t> resident(fleet.storage_nodes_.size(), 0);
    for (std::size_t s = 0; s < fleet.storage_nodes_.size(); ++s) {
      if (fleet.storage_nodes_[s] == fleet.client_nodes_[client_idx]) {
        resident[s] = 1;
      }
    }
    view_ = std::make_unique<DirectoryView>(fleet.directory_, cfg.directory,
                                            std::move(resident));
  }
  // Node fault domain: when a storage node's reconnect budget is
  // exhausted the engine reports it down and the shared directory's
  // wholesale V bit clears, so every path fails over (or skips) its
  // samples; a successful reprobe — epoch-boundary or the mid-epoch
  // probe daemon — restores it and retries read-ahead that failed while
  // the node was down.
  engine_->set_node_down_handler([this](std::uint16_t nid, bool up) {
    fleet_->directory_.set_node_available(nid, up);
    if (up) (void)prefetcher_->reissue_failed();
    // Failure detector + late-rejoin reconciliation ride the same
    // transition (suspect timer on down, undeclare on up).
    on_node_transition(nid, up);
  });
  if (cfg.fault.replication.k > 1) {
    // Background re-replication: one daemon per instance, parked on
    // repair_wake_ until a permanent-loss declaration (or a rejoin)
    // creates work. Its own core — repairs never steal frontend cycles;
    // the traffic budget bounds how hard they compete for the fabric.
    repair_wake_ = std::make_unique<dlsim::Event>(node.simulator());
    repair_core_ = std::make_unique<dlsim::CpuCore>(
        node.simulator(), "dlfs-repair-" + std::to_string(client_idx));
    node.simulator().spawn_daemon(
        repair_loop(repair_alive_),
        "dlfs-repair-" + std::to_string(client_idx));
  }
  // Every read of the epoch order goes through the prefetcher; with
  // prefetch.enabled off it runs synchronously (no daemon).
  prefetcher_ = std::make_unique<Prefetcher>(
      node.simulator(), *engine_, *pool_, cfg.chunk_bytes, cfg.prefetch,
      "dlfs-prefetch-" + std::to_string(client_idx));
  engine_->set_pressure_reliever(
      [this] { return prefetcher_->relieve_pressure(); });
  if (cfg.peer_cache.enabled) {
    // Cooperative peer cache: mirror V-bit flips into the cluster
    // directory so co-located and remote instances can find this cache.
    // The listener runs inside cache slices, so it must stay
    // suspension-free — directory updates are plain bookkeeping (the
    // model's stand-in for residency deltas piggybacked on existing
    // metadata traffic).
    cache_->set_residency_listener(
        [this, pnode = static_cast<std::uint16_t>(
                   fleet.client_nodes_[client_idx])](std::size_t id,
                                                     bool resident) {
          PeerCacheDirectory* dir = fleet_->peer_directory_.get();
          if (dir == nullptr) return;
          if (resident) {
            dir->advertise(client_idx_, pnode, id,
                           fleet_->layout_[id].len);
          } else {
            dir->retract(client_idx_, id);
          }
        });
  }
}

// ---------------------------------------------------------------------------
// Self-healing replication (fleet side)

void DlfsFleet::declare_dead(std::uint16_t slot) {
  if (slot >= storage_nodes_.size()) {
    throw std::invalid_argument("declare_dead: storage slot out of range");
  }
  if (declared_dead_[slot] != 0) return;
  declared_dead_[slot] = 1;
  // Atomic route retirement: one call, no suspension — route snapshots
  // already issued are unaffected, every new issue stops seeing the slot.
  (void)directory_.drop_replicas_on(slot);
  // A declaration can come from a test before any transport transition
  // cleared the V bit; reads must stop targeting the slot either way.
  directory_.set_node_available(slot, false);
  for (auto& inst : instances_) {
    if (inst) inst->note_declared_dead();
  }
}

void DlfsFleet::undeclare(std::uint16_t slot) {
  if (slot >= storage_nodes_.size()) {
    throw std::invalid_argument("undeclare: storage slot out of range");
  }
  if (declared_dead_[slot] == 0) return;
  declared_dead_[slot] = 0;
  // Fresh rejoin: the slot's primary shard serves again (the dataset is
  // immutable, so its on-device bytes are still valid) and it is a repair
  // target again. Hops dropped at declaration stay dropped — repair
  // re-converges instead; samples repaired meanwhile are merely
  // over-replicated, which is harmless for an immutable dataset. Reads
  // still require the per-instance transport to agree the node answers
  // (node_up() ANDs the engine state with this V bit).
  directory_.set_node_available(slot, true);
  for (auto& inst : instances_) {
    if (inst) inst->note_rejoined();
  }
}

std::uint32_t DlfsFleet::live_copies(std::uint32_t sample_id) const {
  std::uint32_t live = declared_dead_[layout_[sample_id].nid] == 0 ? 1u : 0u;
  for (const RouteHop& h : directory_.replicas(sample_id)) {
    if (declared_dead_[h.nid] == 0) ++live;
  }
  return live;
}

std::vector<std::uint32_t> DlfsFleet::repair_backlog() const {
  std::vector<std::uint32_t> out;
  if (effective_reps_ <= 1) return out;
  const std::uint32_t alive_slots =
      static_cast<std::uint32_t>(storage_nodes_.size()) - num_declared_dead();
  const std::uint32_t target = std::min(effective_reps_, alive_slots);
  for (std::uint32_t id = 0; id < layout_.size(); ++id) {
    if (live_copies(id) < target) out.push_back(id);
  }
  return out;
}

std::optional<RouteHop> DlfsFleet::claim_repair_target(
    std::uint32_t sample_id, const std::function<bool(std::uint16_t)>& usable) {
  const SampleLocation& loc = layout_[sample_id];
  const std::size_t num_slots = storage_nodes_.size();
  // The mount-time probe chain, continued. Walking the same chain here
  // (skipping dead/occupied/unusable slots) makes the replacement
  // deterministic — every instance, and every rerun of the same seed,
  // picks the same node for the same loss. The bound covers the hashed
  // probes plus one full lap of the linear tail.
  for (std::uint32_t r = 1; r <= hash_probes(effective_reps_) + num_slots;
       ++r) {
    const std::uint16_t cand =
        replica_probe(dataset_->sample(sample_id).name, loc.nid, r,
                      effective_reps_, num_slots);
    if (declared_dead_[cand] != 0 || cand == loc.nid) continue;
    bool holds = false;
    for (const RouteHop& h : directory_.replicas(sample_id)) {
      if (h.nid == cand) {
        holds = true;
        break;
      }
    }
    if (holds) continue;
    if (usable && !usable(cand)) continue;
    const std::uint64_t off = repair_next_offset_[cand];
    if (off + loc.len >
            cluster_->node(storage_nodes_[cand]).device().capacity() ||
        off > SampleEntry::kMaxOffset) {
      continue;  // slot full; keep probing
    }
    repair_next_offset_[cand] += loc.len;
    return RouteHop{cand, off};
  }
  return std::nullopt;
}

void DlfsFleet::publish_repair(std::uint32_t sample_id, RouteHop hop) {
  directory_.add_replica(sample_id, hop.nid, hop.offset);
}

DlfsInstance::~DlfsInstance() {
  // Invalidate the repair daemon and any pending death timers. Do NOT set
  // repair_wake_: a frame parked on it would resume into a destroyed
  // member; the alive token (checked after every suspension) is the only
  // teardown signal.
  *repair_alive_ = false;
  // Leave the cooperative cache before members start dying: advertised
  // residency must vanish from the cluster directory, so no peer probes
  // this cache again (the cache tears entries down without firing the
  // listener).
  if (fleet_->peer_directory_) {
    fleet_->peer_directory_->retract_all(client_idx_);
  }
  if (cache_) cache_->set_residency_listener({});
}

dlsim::Task<void> DlfsInstance::charge_lookup() {
  lookup_time_total_ += fleet_->config_.calibration.dlfs.dir_lookup;
  co_await io_core_->compute(fleet_->config_.calibration.dlfs.dir_lookup);
}

dlsim::Task<void> DlfsInstance::charge_remote_lookup(std::uint16_t slot) {
  const dlsim::SimDuration walk = fleet_->config_.calibration.dlfs.dir_lookup;
  lookup_time_total_ += walk;
  spdk::NvmfTarget* t =
      slot < fleet_->targets_.size() ? fleet_->targets_[slot].get() : nullptr;
  if (t != nullptr && t->accepting()) {
    const bool replied = co_await t->metadata_rpc(
        fleet_->client_nodes_[client_idx_], walk, kLookupReplyBytes);
    if (replied) co_return;
  }
  // No transport path (the owner slot is co-located with another client
  // and never grew a target, the target is down, or a leg dropped): fall
  // back to a local-rate walk so lookups never stall on a fault — the
  // read path's skip/failover semantics decide the sample's fate.
  co_await io_core_->compute(walk);
}

dlsim::Task<DlfsInstance::Resolved> DlfsInstance::resolve(
    std::uint32_t sample_id) {
  // Out-of-range ids keep the classic path (and its error) in both modes:
  // the partition map cannot route an id it has no row for.
  if (view_ == nullptr || sample_id >= fleet_->directory_.num_samples()) {
    co_return Resolved{fleet_->directory_.lookup_id(sample_id), true};
  }
  // Resident shards did the real tree walk inside resolve_id; cache hits
  // owe the same local rate (the RPC round trip is the saving, not the
  // probe).
  const DirectoryView::Resolution r = view_->resolve_id(sample_id);
  if (r.served != DirectoryView::Served::kRemote) {
    co_return Resolved{r.entry, true};
  }
  co_await charge_remote_lookup(r.owner_slot);
  const SampleEntry* e = fleet_->directory_.lookup_id(sample_id);
  view_->complete_remote(r, e);
  co_return Resolved{e, false};
}

std::uint64_t DlfsInstance::directory_bytes() const {
  return view_ ? view_->resident_bytes() : fleet_->full_directory_bytes();
}

dlsim::Task<void> DlfsInstance::maybe_reprobe() {
  if (!reprobe_pending_) co_return;
  reprobe_pending_ = false;
  if (engine_->nodes_down() == 0) co_return;
  const std::uint32_t recovered =
      co_await engine_->reprobe_down_nodes(*io_core_);
  // Read-ahead issued while the node was down carries baked-in
  // failures; retry it now that the node answers again.
  if (recovered > 0) (void)prefetcher_->reissue_failed();
}

std::vector<RouteHop> DlfsInstance::sample_routes(
    std::uint32_t sample_id) const {
  return fleet_->directory_.replicas(sample_id);
}

bool DlfsInstance::node_up(std::uint16_t nid) const {
  return engine_->node_available(nid) &&
         fleet_->directory_.node_available(nid);
}

bool DlfsInstance::sample_reachable(std::uint32_t sample_id) const {
  if (node_up(fleet_->layout_[sample_id].nid)) return true;
  for (const RouteHop& h : fleet_->directory_.replicas(sample_id)) {
    if (node_up(h.nid)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Cooperative peer cache (read side)

dlsim::Task<bool> DlfsInstance::try_peer_read(std::uint32_t sample_id,
                                              std::uint32_t len,
                                              std::byte* dst) {
  PeerCacheDirectory* dir = fleet_->peer_directory_.get();
  if (dir == nullptr) co_return false;  // peer cache off
  const DlfsCosts& costs = fleet_->config_.calibration.dlfs;
  const hw::NodeId me = fleet_->client_nodes_[client_idx_];

  // Intra-node first: a co-located instance's resident copy is one pin
  // plus one DRAM copy away — no fabric, and no tenant admission (same
  // treatment as own-cache hits: host-memory copies never compete with
  // other tenants for the devices or the wire).
  const PeerCacheDirectory::Holder local =
      dir->find(sample_id, client_idx_, static_cast<std::uint16_t>(me));
  if (local.found) {
    SampleCache& holder = *fleet_->instances_[local.client]->cache_;
    auto views = holder.pin(sample_id);
    if (!views.empty()) {
      co_await io_core_->compute(costs.peer_serve);
      CopyJob job;
      job.views = std::move(views);
      job.dst = dst;
      co_await engine_->run_copy_inline(*io_core_, std::move(job));
      holder.unpin(sample_id);
      ++peer_hits_local_;
      peer_bytes_ += len;
      co_return true;
    }
  }

  // Cross-node: ask the sample's consistent-hash home for a holder, then
  // pull the bytes from the holder's DRAM over the fabric. Every refusal
  // along the way (no holder, dropped leg, raced eviction) unwinds to a
  // miss; the caller falls back to the normal replica read path.
  hw::Fabric& fabric = fleet_->cluster_->fabric();
  const std::uint32_t home = dir->home_client(sample_id);
  const hw::NodeId home_node = fleet_->client_nodes_[home];
  if (home != client_idx_) {
    // Request hop (skipped when this client is the home — the directory
    // slice is then local memory).
    const bool asked =
        co_await fabric.send(me, home_node, hw::kControlMessageBytes);
    if (!asked) {
      ++peer_misses_;
      co_return false;
    }
  }
  const PeerCacheDirectory::Holder h = dir->find(sample_id, client_idx_);
  if (!h.found) {
    if (home != client_idx_) {
      // Miss reply from the home.
      co_await fabric.transfer(home_node, me, hw::kControlMessageBytes);
    }
    ++peer_misses_;
    co_return false;
  }
  const hw::NodeId holder_node = fleet_->client_nodes_[h.client];
  if (h.client != home) {
    // Forward hop: the home passes the request on to the holder
    // (loopback when they share a node).
    const bool forwarded =
        co_await fabric.send(home_node, holder_node, hw::kControlMessageBytes);
    if (!forwarded) {
      ++peer_misses_;
      co_return false;
    }
  }
  // Pin the holder's entry. The fabric hops above suspended, so the
  // holder may have evicted (and retracted) meanwhile — an empty pin is
  // that race, answered with a miss reply.
  DlfsInstance& holder = *fleet_->instances_[h.client];
  std::vector<std::span<const std::byte>> views =
      holder.cache_->pin(sample_id);
  if (views.empty()) {
    co_await fabric.transfer(holder_node, me, hw::kControlMessageBytes);
    ++peer_misses_;
    co_return false;
  }
  // The bulk transfer is charged to the requesting tenant exactly like a
  // device read of the same bytes — a peer read must not let a capped
  // job dodge its QoS share.
  if (fleet_->tenant_) co_await engine_->admit(*io_core_, len);
  // Holder-side serve (verbs recv + RDMA post) on the holder's core; the
  // data path itself is one-sided, so there is no holder-side copy.
  co_await holder.io_core_->compute(costs.peer_serve);
  const bool delivered = co_await fabric.send(holder_node, me, len);
  if (!delivered) {
    holder.cache_->unpin(sample_id);
    if (fleet_->tenant_) fleet_->tenant_->on_complete(len);
    ++peer_misses_;
    co_return false;
  }
  // Requester-side placement of the landed bytes (real memcpy: delivery
  // stays byte-identical to the device path).
  CopyJob job;
  job.views = std::move(views);
  job.dst = dst;
  co_await engine_->run_copy_inline(*io_core_, std::move(job));
  holder.cache_->unpin(sample_id);
  if (fleet_->tenant_) fleet_->tenant_->on_complete(len);
  ++peer_hits_remote_;
  peer_bytes_ += len;
  co_return true;
}

// ---------------------------------------------------------------------------
// Self-healing replication (instance side)

void DlfsInstance::note_declared_dead() {
  ++nodes_declared_dead_;
  if (repair_wake_) repair_wake_->set();
}

void DlfsInstance::note_rejoined() {
  // A rejoined slot is a fresh repair target; re-walk the backlog.
  if (repair_wake_) repair_wake_->set();
}

void DlfsInstance::on_node_transition(std::uint16_t nid, bool up) {
  if (down_epoch_.size() <= nid) down_epoch_.resize(nid + 1, 0);
  ++down_epoch_[nid];
  if (!up) {
    // Suspect: arm the one-shot promotion timer. A transient fault heals
    // before it fires (the transition bumps the epoch and disarms it).
    const dlsim::SimDuration deadline =
        fleet_->config_.fault.replication.declare_dead_after;
    if (deadline > 0 && !fleet_->declared_dead(nid)) {
      node_->simulator().spawn_daemon(
          death_timer(nid, down_epoch_[nid], repair_alive_),
          "dlfs-death-timer");
    }
    return;
  }
  // Up transition of a declared-dead node: late rejoin — reconcile it as
  // a fresh node.
  if (fleet_->declared_dead(nid)) fleet_->undeclare(nid);
}

dlsim::Task<void> DlfsInstance::death_timer(std::uint16_t nid,
                                            std::uint64_t epoch,
                                            std::shared_ptr<bool> alive) {
  co_await node_->simulator().delay(
      fleet_->config_.fault.replication.declare_dead_after);
  if (!*alive) co_return;
  // Promote only if this exact outage is still in progress: any
  // transition meanwhile bumped the epoch — the node bounced, which is a
  // transient link fault, not permanent loss.
  if (nid >= down_epoch_.size() || down_epoch_[nid] != epoch) co_return;
  if (node_up(nid)) co_return;
  fleet_->declare_dead(nid);
}

dlsim::Task<void> DlfsInstance::repair_loop(std::shared_ptr<bool> alive) {
  for (;;) {
    {
      // Park until membership changes. The wait is hoisted to its own
      // statement (never inside a condition) per the repo's coroutine
      // conventions.
      dlsim::Task<void> parked = repair_wake_->wait();
      co_await std::move(parked);
    }
    if (!*alive) co_return;
    repair_wake_->reset();
    // Walk the backlog until a full pass makes no progress. Samples that
    // cannot be repaired right now — no live source, no viable target,
    // or a transient op failure — wait for the next membership
    // transition: every transition sets the wake, so parking loses
    // nothing, and a parked daemon holds no timers, so the simulator can
    // quiesce once churn stops.
    bool progress = true;
    while (progress) {
      progress = false;
      const std::vector<std::uint32_t> backlog = fleet_->repair_backlog();
      for (const std::uint32_t id : backlog) {
        if (fleet_->repair_claims_.contains(id)) continue;
        fleet_->repair_claims_.insert(id);
        const bool repaired = co_await repair_one(id, alive);
        if (!*alive) co_return;  // fleet_ may be mid-destruction
        fleet_->repair_claims_.erase(id);
        if (repaired) progress = true;
      }
    }
  }
}

dlsim::Task<bool> DlfsInstance::repair_one(std::uint32_t sample_id,
                                           std::shared_ptr<bool> alive) {
  // Recheck under-replication at run time: the backlog snapshot may be
  // stale by the time this sample's turn comes (a rejoin, or another
  // instance's repair, may already have restored it).
  const std::uint32_t alive_slots =
      fleet_->num_storage() - fleet_->num_declared_dead();
  const std::uint32_t target =
      std::min(fleet_->effective_reps_, alive_slots);
  if (fleet_->live_copies(sample_id) >= target) co_return false;

  // Source: every copy on a non-dead node this instance can reach, in
  // failover order (first is the read target, the rest ride as routes).
  const SampleLocation& loc = fleet_->layout_[sample_id];
  std::vector<RouteHop> sources;
  if (!fleet_->declared_dead(loc.nid) && node_up(loc.nid)) {
    sources.push_back(RouteHop{loc.nid, loc.offset});
  }
  for (const RouteHop& h : fleet_->directory_.replicas(sample_id)) {
    if (!fleet_->declared_dead(h.nid) && node_up(h.nid)) sources.push_back(h);
  }
  if (sources.empty()) co_return false;
  const std::optional<RouteHop> dst = fleet_->claim_repair_target(
      sample_id, [this](std::uint16_t nid) { return node_up(nid); });
  if (!dst) co_return false;

  // Traffic budget: pace repairs to repair_bytes_per_sec so they never
  // starve demand reads of fabric/device bandwidth.
  const std::uint64_t budget =
      fleet_->config_.fault.replication.repair_bytes_per_sec;
  if (budget > 0) {
    auto& sim = node_->simulator();
    const dlsim::SimTime now = sim.now();
    if (repair_next_allowed_ > now) {
      ++repair_throttles_;
      co_await sim.delay(repair_next_allowed_ - now);
      if (!*alive) co_return false;
    }
    const dlsim::SimTime start = std::max(repair_next_allowed_, now);
    repair_next_allowed_ =
        start + static_cast<dlsim::SimDuration>(
                    loc.len * 1'000'000'000ull / budget);
  }

  // Stream the bytes from a surviving copy through the shared engine —
  // same pump, tag space and queue-depth budget as demand reads.
  ReadExtent x;
  x.nid = sources.front().nid;
  x.offset = sources.front().offset;
  x.len = loc.len;
  x.routes.assign(sources.begin() + 1, sources.end());
  const ExtentOpPtr rop = engine_->start_extent(std::move(x));
  co_await engine_->await_op(*repair_core_, rop, 0);
  if (!*alive) co_return false;
  if (rop->error()) co_return false;  // next membership wake retries

  const ExtentOpPtr wop = engine_->start_write(
      dst->nid, dst->offset, rop->take_buffers(),
      piece_lens_of(loc.len, fleet_->config_.chunk_bytes));
  co_await engine_->await_op(*repair_core_, wop, 0);
  if (!*alive) co_return false;
  if (wop->error()) co_return false;  // allocated extent is wasted, not wrong

  // Atomic publication: one directory call, no suspension — failover,
  // the prefetcher's RouteResolver and advance_route see the new hop on
  // their next issue, mid-epoch.
  fleet_->publish_repair(sample_id, *dst);
  ++samples_rereplicated_;
  repair_bytes_ += loc.len;
  co_return true;
}

dlsim::Task<void> DlfsInstance::charge_frontend(
    std::span<const EpochSequence::UnitPicks> picks) {
  std::size_t total = 0;
  std::size_t local = 0;  // resolutions served at the local walk rate
  for (const auto& pk : picks) {
    total += pk.count;
    for (std::uint32_t i = 0; i < pk.count; ++i) {
      // Foreign ids pay their RPC here and fill the lookup cache, so a
      // steady epoch's bread converges to mostly cache hits.
      const std::uint32_t id = pk.unit->samples[pk.first_sample + i].sample_id;
      if ((co_await resolve(id)).local) ++local;
    }
  }
  lookup_time_total_ += local * fleet_->config_.calibration.dlfs.dir_lookup;
  co_await io_core_->compute(
      local * fleet_->config_.calibration.dlfs.dir_lookup +
      total * fleet_->config_.calibration.dlfs.bread_per_sample);
}

dlsim::Task<DlfsInstance::FetchedUnit*> DlfsInstance::acquire_unit(
    std::size_t uslot, std::exception_ptr* fatal) {
  if (auto it = fetched_.find(uslot); it != fetched_.end()) {
    co_return &it->second;
  }
  const bool chunk = fleet_->config_.batching == BatchingMode::kChunkLevel;
  // A chunk-level unit lends its bytes as spans: a replica-planned unit's
  // samples sit at their in-unit offsets in its landing chunk, so it
  // settles exactly like a healthy unit, and any failed extent leaves its
  // samples missing. Media and unknown faults stay fatal, rethrown once
  // the batch's copies drain. A sample-level unit keeps its per-sample
  // extents, errors included, for the consume loop's ladder.
  auto settle = [&](AcquiredUnit au) {
    FetchedUnit fu;
    fu.lends_spans = chunk;
    if (!chunk) {
      fu.extents = std::move(au.extents);
      return fu;
    }
    const bool placed = au.landing.valid();
    if (placed) fu.buffers.push_back(std::move(au.landing));
    std::unordered_set<std::uint64_t> landed;
    bool whole = false;
    for (AcquiredExtent& x : au.extents) {
      if (x.error) {
        if (!is_node_fault(x.error) && !*fatal) *fatal = x.error;
      } else if (placed) {
        landed.insert(x.key);
      } else {
        fu.buffers = std::move(x.buffers);
        whole = true;
      }
    }
    for (const UnitSample& us : seq_->unit_at(uslot)->samples) {
      if (!whole && !landed.contains(us.sample_id)) {
        fu.missing.insert(us.sample_id);
      }
    }
    return fu;
  };
  FetchedUnit fu = settle(co_await prefetcher_->acquire(uslot, *io_core_));
  if (!*fatal && std::any_of(fu.missing.begin(), fu.missing.end(),
                             [this](std::uint32_t id) {
                               return sample_reachable(id);
                             })) {
    // The plan is stale: a node died after the unit was issued, or came
    // back since. Re-plan around the nodes up now, with all the unit's
    // samples in flight at once.
    prefetcher_->replan(uslot);
    fu = settle(co_await prefetcher_->acquire(uslot, *io_core_));
  }
  // The unit covers every sample of its epoch slots.
  const std::size_t begin = uslot * epoch_provider_->group();
  const std::size_t end = std::min<std::size_t>(
      begin + epoch_provider_->group(), seq_->num_units());
  for (std::size_t s = begin; s < end; ++s) {
    fu.covers += static_cast<std::uint32_t>(seq_->unit_at(s)->samples.size());
  }
  co_return &fetched_.emplace(uslot, std::move(fu)).first->second;
}

dlsim::Task<SampleHandle> DlfsInstance::open(std::string_view name) {
  const SampleEntry* e = nullptr;
  if (view_) {
    DirectoryView::Resolution r = view_->resolve_name(name);
    if (r.served == DirectoryView::Served::kRemote) {
      co_await charge_remote_lookup(r.owner_slot);
      e = fleet_->directory_.lookup(name);
      view_->complete_remote(r, e);
    } else {
      co_await charge_lookup();  // answered from client-held state
      e = r.entry;
    }
  } else {
    co_await charge_lookup();
    e = fleet_->directory_.lookup(name);
  }
  if (e == nullptr) {
    throw std::invalid_argument("dlfs_open: no such sample '" +
                                std::string(name) + "'");
  }
  const auto id = fleet_->sample_id_of(name);
  assert(id.has_value());
  co_return SampleHandle{*id, e};
}

dlsim::Task<SampleHandle> DlfsInstance::open_id(std::uint32_t sample_id) {
  const Resolved r = co_await resolve(sample_id);
  if (r.local) co_await charge_lookup();
  if (r.entry == nullptr) {
    throw std::invalid_argument("dlfs_open: bad sample id " +
                                std::to_string(sample_id));
  }
  co_return SampleHandle{sample_id, r.entry};
}

dlsim::Task<SampleHandle> DlfsInstance::open_file(std::string_view name) {
  co_await charge_lookup();
  const SampleEntry* e = fleet_->directory_.lookup_file(name);
  if (e == nullptr) {
    throw std::invalid_argument("dlfs_open: no such batched file '" +
                                std::string(name) + "'");
  }
  co_return SampleHandle{SampleHandle::kNoSample, e};
}

dlsim::Task<void> DlfsInstance::read(const SampleHandle& h,
                                     std::span<std::byte> dst) {
  const SampleEntry& e = *h.entry;
  if (dst.size() < e.len()) {
    throw std::invalid_argument("dlfs_read: destination too small");
  }
  if (h.sample_id == SampleHandle::kNoSample) {
    // File-oriented read, no sample cache. When the handle is the next
    // file of the installed streaming order (sequence_files), the
    // prefetch daemon already has its extent in flight — consume it;
    // out-of-order / unsequenced file reads go straight through the
    // engine as before.
    if (file_seq_active_ &&
        file_cursor_ < file_extents_.size() &&
        file_extents_[file_cursor_].nid == e.nid() &&
        file_extents_[file_cursor_].offset == e.offset() &&
        file_extents_[file_cursor_].len == e.len()) {
      const std::size_t slot = file_cursor_;
      ++file_cursor_;
      AcquiredUnit au = co_await prefetcher_->acquire(slot, *io_core_);
      if (!au.extents.empty() && au.extents.front().error) {
        std::rethrow_exception(au.extents.front().error);
      }
      if (au.extents.empty()) {
        co_await engine_->read_one(*io_core_, e.nid(), e.offset(), e.len(),
                                   dst.data());
      } else {
        CopyJob job;
        job.owned_pieces = std::move(au.extents.front().buffers);
        job.piece_lens =
            piece_lens_of(e.len(), fleet_->config_.chunk_bytes);
        job.dst = dst.data();
        co_await engine_->run_copy_inline(*io_core_, std::move(job));
      }
    } else {
      co_await engine_->read_one(*io_core_, e.nid(), e.offset(), e.len(),
                                 dst.data());
    }
    ++samples_delivered_;
    bytes_delivered_ += e.len();
    co_return;
  }
  if (cache_->valid(h.sample_id)) {
    cache_->note_hit();
    auto views = cache_->pin(h.sample_id);
    CopyJob job;
    job.views = std::move(views);
    job.dst = dst.data();
    co_await engine_->run_copy_inline(*io_core_, std::move(job));
    cache_->unpin(h.sample_id);
  } else {
    cache_->note_miss();
    // A cooperating peer's DRAM beats any device: try it first, fall
    // back to the normal (replica-routed) read on a peer miss.
    const bool peer_served =
        co_await try_peer_read(h.sample_id, e.len(), dst.data());
    if (!peer_served) {
      co_await engine_->read_one(*io_core_, e.nid(), e.offset(), e.len(),
                                 dst.data(), h.sample_id,
                                 sample_routes(h.sample_id));
    }
  }
  ++samples_delivered_;
  bytes_delivered_ += e.len();
}

void DlfsInstance::sequence(std::uint64_t seed) {
  for (const auto& [slot, fu] : fetched_) {
    if (fu.view_pins > 0) {
      throw std::logic_error(
          "dlfs_sequence: zero-copy batches from the previous epoch are "
          "still pinned; release_views() them first");
    }
  }
  seq_.emplace(*fleet_->plan_, seed, client_idx_, fleet_->num_clients());
  // Retention follows the order in which this cache's entries are read:
  // with the peer cache on, any client may read them; without it only
  // this client's strided share (global rank % k == client) does, so the
  // rest are not due here this epoch.
  std::vector<std::uint32_t> order = sample_positions(*fleet_->plan_, seed);
  if (!fleet_->config_.peer_cache.enabled) {
    const std::uint32_t k = fleet_->num_clients();
    for (std::uint32_t& pos : order) {
      if (pos % k != client_idx_) pos = SampleCache::kNotDue;
    }
  }
  cache_->install_order(order);
  fetched_.clear();
  file_seq_active_ = false;
  reprobe_pending_ = true;  // epoch boundary: revalidate down nodes once
  // Chunk mode prefetches 1 unit = 1 chunk/edge extent (always fetched
  // whole); sample-level and unbatched modes fuse group_samples
  // consecutive per-sample slots into one unit (one slot each when
  // synchronous: there is no window to amortize) and elide extents whose
  // sample is already cache-resident.
  const bool chunk = fleet_->config_.batching == BatchingMode::kChunkLevel;
  const bool fuse = !chunk && prefetcher_->reads_ahead();
  // With replication, per-sample extents (sample-level/unbatched units
  // and chunk-mode edge samples) carry their replica failover list so
  // read-ahead re-routes inside the engine instead of failing.
  EpochUnitProvider::RouteResolver routes;
  if (fleet_->config_.fault.replication.k > 1) {
    routes = [this](std::uint32_t id) { return sample_routes(id); };
  }
  // Samples another instance advertised in the peer directory are elided
  // from read-ahead like cache hits: the consume path pulls them from
  // the peer instead of the device.
  // Chunk units always fetch whole (their samples never populate the
  // sample cache), so chunk mode takes no probe.
  EpochUnitProvider::PeerProbe peers;
  if (fleet_->config_.peer_cache.enabled && !chunk) {
    peers = [this](std::uint32_t id) {
      return fleet_->peer_directory_->find(id, client_idx_).found;
    };
  }
  // A chunk unit whose home node is down when it is issued is planned
  // from replicas instead, and read ahead like any other unit; with
  // replicas, so is one whose home the engine suspects (hedged failover).
  EpochUnitProvider::NodeProbe live;
  EpochUnitProvider::NodeProbe suspect;
  if (chunk) {
    live = [this](std::uint16_t nid) { return node_up(nid); };
    suspect = [this](std::uint16_t nid) { return engine_->suspect(nid); };
  }
  epoch_provider_ = std::make_unique<EpochUnitProvider>(
      *seq_, fuse ? fleet_->config_.prefetch.group_samples : 1u,
      chunk ? nullptr : cache_.get(), std::move(routes), std::move(peers),
      std::move(live), std::move(suspect));
  prefetcher_->start_epoch(epoch_provider_.get());
}

const std::vector<std::string>& DlfsInstance::sequence_files(
    std::uint64_t seed) {
  const auto& per_slot = fleet_->record_files_;
  std::vector<const DlfsFleet::RecordFileInfo*> all;
  std::vector<std::uint16_t> owner;
  for (std::uint16_t s = 0; s < per_slot.size(); ++s) {
    for (const auto& f : per_slot[s]) {
      all.push_back(&f);
      owner.push_back(s);
    }
  }
  if (all.empty()) {
    throw std::logic_error(
        "sequence_files: fleet mounted without record_file_samples");
  }
  // Same contract as sequence(): every client passes the same seed, gets
  // the same global shuffle, and streams its strided share.
  Rng rng(seed);
  auto perm = rng.permutation(all.size());
  file_order_.clear();
  file_extents_.clear();
  file_cursor_ = 0;
  for (std::size_t i = client_idx_; i < perm.size();
       i += fleet_->num_clients()) {
    const DlfsFleet::RecordFileInfo* f = all[perm[i]];
    file_extents_.push_back(UnitExtent{owner[perm[i]], f->offset, f->len,
                                       file_extents_.size()});
    file_order_.push_back(f->name);
  }
  file_provider_ = std::make_unique<ExtentListProvider>(file_extents_);
  prefetcher_->start_epoch(file_provider_.get());
  // Without the daemon nothing streams ahead, so file reads stay plain
  // engine reads.
  file_seq_active_ = prefetcher_->reads_ahead();
  // The sample epoch ends here: bread and bread_views throw until the
  // next sequence(). Units still pinned by live views stay until then.
  std::erase_if(fetched_,
                [](const auto& kv) { return kv.second.view_pins == 0; });
  epoch_provider_.reset();
  seq_.reset();
  return file_order_;
}

dlsim::Task<Batch> DlfsInstance::bread(std::size_t max_samples,
                                       std::span<std::byte> arena) {
  Batch batch;
  co_await consume(max_samples, arena, &batch, nullptr);
  co_return batch;
}

dlsim::Task<void> DlfsInstance::consume(std::size_t max_samples,
                                        std::span<std::byte> arena,
                                        Batch* copies, ViewBatch* views) {
  if (!seq_) {
    throw std::logic_error("dlfs_bread: call dlfs_sequence(seed) first");
  }
  co_await maybe_reprobe();
  BatchMeta& meta =
      copies != nullptr ? static_cast<BatchMeta&>(*copies) : *views;
  const auto picks = seq_->take(max_samples);
  meta.end_of_epoch = picks.empty();
  if (picks.empty()) co_return;
  const DlfsConfig& cfg = fleet_->config_;
  // DLFS-Base is a loop of synchronous dlfs_reads: each sample pays its
  // own directory lookup and copies on the I/O core, and its units are
  // demanded one at a time (the daemon, if on, reads ahead).
  const bool base = cfg.batching == BatchingMode::kNone;
  std::size_t total = 0;
  std::uint64_t need = 0;
  for (const auto& pk : picks) {
    total += pk.count;
    for (std::uint32_t i = 0; i < pk.count; ++i) {
      need += pk.unit->samples[pk.first_sample + i].len;
    }
  }
  if (copies != nullptr && need > arena.size()) {
    throw std::invalid_argument("dlfs_bread: arena too small for batch");
  }
  if (!base) {
    // Frontend: directory lookups for every sample in the mini-batch.
    co_await charge_frontend(picks);
    // The daemon keeps a window of units in flight between bread calls;
    // here we only make sure every unit this batch needs has been issued
    // (the window may be shallower than the batch; synchronous chunk mode
    // issues initial_units of read-ahead with it).
    prefetcher_->ensure_issued_through(
        epoch_provider_->unit_of(picks.back().unit_slot),
        cfg.batching == BatchingMode::kChunkLevel ? cfg.prefetch.initial_units
                                                  : 0);
  }
  // One count per picked sample: a copy counts down when it lands, a
  // view, skip or fatal fault at once.
  dlsim::CountdownLatch landed(node_->simulator(), total);
  // Injected poll-loop compute (Fig. 7b) overlaps the acquires. The
  // synchronous prefetcher folds it into this core's waits; with the
  // daemon pumping it runs beside the fetches as its own task, so it
  // hides under the batch's stalls.
  dlsim::CountdownLatch inj_done(node_->simulator(), 1);
  if (injected_ <= 0 || prefetcher_->fold_compute(injected_)) {
    inj_done.count_down();
  } else {
    node_->simulator().spawn(
        [](dlsim::CpuCore* core, dlsim::SimDuration d,
           dlsim::CountdownLatch* latch) -> dlsim::Task<void> {
          co_await core->compute(d);
          latch->count_down();
        }(io_core_, injected_, &inj_done));
  }
  // Skip accounting: one entry per unreachable sample, no matter how
  // many paths (unit-level skip, per-request fault, precheck) notice it.
  std::unordered_set<std::uint32_t> skipped;
  std::exception_ptr fatal;
  // Arena layout: delivered samples packed in pick order.
  auto place = [&](const UnitSample& us) {
    std::byte* dst = arena.data() + copies->bytes;
    copies->samples.push_back(BatchSample{
        us.sample_id, fleet_->dataset_->sample(us.sample_id).class_id,
        static_cast<std::uint32_t>(copies->bytes), us.len});
    copies->bytes += us.len;
    return dst;
  };
  // Without a copy pool the I/O core copies spans itself, serially after
  // the loop (it cannot poll and memcpy at once).
  std::vector<CopyJob> after_loop;
  // Span copies go out per run: a sample joins the pick's open job while
  // that job's memcpy time is still below a job's fixed cost (completion
  // handling, plus the cross-core handoff on a copy thread), so small
  // samples share one descriptor and large ones keep one job each for
  // the copy pool's parallelism.
  const DlfsCosts& costs = cfg.calibration.dlfs;
  const dlsim::SimDuration job_fixed_cost =
      costs.completion_handling +
      (cfg.copy_threads > 0 ? costs.cross_core_handoff : 0);
  for (const auto& pk : picks) {
    const std::size_t uslot = epoch_provider_->unit_of(pk.unit_slot);
    std::vector<CopyJob> span_copies;  // this pick's copies out of spans
    for (std::uint32_t i = 0; i < pk.count; ++i) {
      const UnitSample& us = pk.unit->samples[pk.first_sample + i];
      const std::uint32_t id = us.sample_id;
      if (base && (co_await resolve(id)).local) co_await charge_lookup();
      FetchedUnit* fu = co_await acquire_unit(uslot, &fatal);
      ++fu->delivered;
      if (fu->lends_spans) {
        if (fu->missing.contains(id)) {
          skipped.insert(id);
          landed.count_down();
          continue;
        }
        auto spans = window_views(fu->buffers, cfg.chunk_bytes,
                                  us.offset_in_unit, us.len);
        if (views != nullptr) {
          // Handing out a view costs no extra CPU: the frontend's
          // bread_per_sample charge already covers per-sample accounting.
          views->samples.push_back(ViewSample{
              id, fleet_->dataset_->sample(id).class_id, us.len,
              std::move(spans)});
          views->bytes += us.len;
          landed.count_down();
          continue;
        }
        // Delivered samples pack back to back, so the open job's bytes
        // stay contiguous in the arena even across a skipped sample.
        std::byte* dst = place(us);
        if (!span_copies.empty() &&
            engine_->copy_cost(span_copies.back()) < job_fixed_cost) {
          CopyJob& open = span_copies.back();
          open.views.insert(open.views.end(), spans.begin(), spans.end());
          ++open.samples;
          continue;
        }
        CopyJob job;
        job.views = std::move(spans);
        job.dst = dst;
        job.latch = &landed;
        job.origin = io_core_;
        span_copies.push_back(std::move(job));
        continue;
      }
      // The unit owns per-sample pieces: misses copy through the SCQ
      // pool, cache hits inline; samples elided at issue time or whose
      // read failed on a node fault fall back to a peer, then a demand
      // read with the failover route.
      const auto ax =
          std::find_if(fu->extents.begin(), fu->extents.end(),
                       [id](const AcquiredExtent& x) { return x.key == id; });
      const bool prefetched = ax != fu->extents.end();
      if (cache_->valid(id)) {
        // Hit: memcpy out of the cache; a prefetched duplicate (the
        // sample became resident after issue) just drops with the unit.
        cache_->note_hit();
        CopyJob job;
        job.views = cache_->pin(id);
        job.dst = place(us);
        co_await engine_->run_copy_inline(*io_core_, std::move(job));
        cache_->unpin(id);
        landed.count_down();
      } else if (prefetched && !ax->error) {
        cache_->note_miss();
        CopyJob job;
        job.owned_pieces = std::move(ax->buffers);
        job.piece_lens = piece_lens_of(us.len, cfg.chunk_bytes);
        job.dst = place(us);
        job.cache_sample_id = id;
        job.latch = &landed;
        if (base || cfg.copy_threads == 0) {
          co_await engine_->run_copy_inline(*io_core_, std::move(job));
        } else {
          co_await engine_->enqueue_copy(std::move(job));
        }
      } else if (prefetched && !is_node_fault(ax->error)) {
        // Read-ahead media/unknown errors surface on the bread that
        // owns the sample and stay fatal (after the latches settle).
        if (!fatal) fatal = ax->error;
        landed.count_down();
      } else if (!cfg.peer_cache.enabled && !sample_reachable(id)) {
        // No live copy anywhere: degrade by skipping just this sample.
        // (With the peer cache on, an unreachable sample may still be
        // servable from a peer's DRAM — decided below.)
        skipped.insert(id);
        landed.count_down();
      } else {
        // Elided at issue time (the sample was cache- or peer-resident
        // then but evicted since), or its read died on a node fault
        // while a replica — or the recovered primary — can still serve
        // it: serve from a peer if one holds it, else demand-fetch with
        // the failover route attached. The skipped set keeps accounting
        // exactly-once even when a sample falls through both attempts.
        cache_->note_miss();
        std::byte* dst = arena.data() + copies->bytes;
        const bool peer_served = co_await try_peer_read(id, us.len, dst);
        if (peer_served) {
          (void)place(us);
        } else if (!sample_reachable(id)) {
          skipped.insert(id);
        } else {
          const SampleLocation& loc = fleet_->layout_[id];
          try {
            co_await engine_->read_one(*io_core_, loc.nid, loc.offset,
                                       loc.len, dst, id, sample_routes(id));
            (void)place(us);
          } catch (const IoError& e) {
            if (e.kind == IoErrorKind::kMedia) {
              if (!fatal) fatal = std::current_exception();
            } else {
              skipped.insert(id);
            }
          }
        }
        landed.count_down();
      }
      // The copies own their pieces: the unit goes with its last pick.
      maybe_release_unit(uslot);
    }
    if (span_copies.empty()) continue;
    if (cfg.copy_threads == 0) {
      for (CopyJob& job : span_copies) after_loop.push_back(std::move(job));
      continue;
    }
    // A detached process pushes the unit's copies (channel pushes never
    // stall the I/O loop); the copy threads run them while later units
    // are still in flight.
    node_->simulator().spawn_daemon(
        [](IoEngine* engine,
           std::vector<CopyJob> jobs) -> dlsim::Task<void> {
          for (CopyJob& job : jobs) {
            co_await engine->enqueue_copy(std::move(job));
          }
        }(engine_.get(), std::move(span_copies)),
        "bread-copies");
  }
  co_await inj_done.wait();
  co_await prefetcher_->settle(io_core_);
  for (CopyJob& job : after_loop) {
    co_await engine_->run_copy_inline(*io_core_, std::move(job));
  }
  co_await landed.wait();
  // Fatal (media/unknown) faults abort the batch before any unit is
  // pinned.
  if (fatal) std::rethrow_exception(fatal);
  for (const auto& pk : picks) {
    const std::size_t uslot = epoch_provider_->unit_of(pk.unit_slot);
    if (views == nullptr) {
      maybe_release_unit(uslot);  // its spans' copies have landed
      continue;
    }
    ++fetched_.at(uslot).view_pins;
    views->pinned_slots.push_back(uslot);
  }
  meta.samples_skipped = skipped.size();
  samples_skipped_ += skipped.size();
  samples_delivered_ += total - skipped.size();
  if (copies != nullptr) {
    bytes_delivered_ += copies->bytes;
  } else {
    views->token = 1;
    bytes_delivered_ += views->bytes;
    bytes_zero_copy_ += views->bytes;
  }
}

void DlfsInstance::maybe_release_unit(std::size_t uslot) {
  auto it = fetched_.find(uslot);
  if (it != fetched_.end() && it->second.view_pins == 0 &&
      it->second.delivered == it->second.covers) {
    fetched_.erase(it);
  }
}

dlsim::Task<ViewBatch> DlfsInstance::bread_views(std::size_t max_samples) {
  if (fleet_->config_.batching != BatchingMode::kChunkLevel) {
    throw std::logic_error(
        "bread_views requires chunk-level batching (samples must live in "
        "resident data chunks)");
  }
  ViewBatch batch;
  co_await consume(max_samples, {}, nullptr, &batch);
  co_return batch;
}

void DlfsInstance::release_views(ViewBatch& batch) {
  if (batch.token == 2) {
    throw std::logic_error("release_views: batch already released");
  }
  if (batch.token == 0) return;  // empty batch (end of epoch)
  batch.token = 2;
  for (std::size_t slot : batch.pinned_slots) {
    auto it = fetched_.find(slot);
    if (it == fetched_.end()) continue;
    if (it->second.view_pins == 0) {
      throw std::logic_error("release_views: pin underflow");
    }
    --it->second.view_pins;
    maybe_release_unit(slot);
  }
  batch.pinned_slots.clear();
  batch.samples.clear();
}

}  // namespace dlfs::core
