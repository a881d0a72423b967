#pragma once

// The four benchmark workloads. Each is a closed loop: one trainer per
// client instance issues its next bread only after the previous batch
// returned. Every node uses a RAM-backed store so delivered bytes can be
// checked against Dataset::fill_content. workloads.json beside this file
// records why each workload exists and which layers it stresses.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/time.hpp"

namespace perfbench {

using namespace dlsim::literals;
using namespace dlfs::byte_literals;

struct Workload {
  std::string name;
  std::uint32_t num_nodes = 1;
  std::vector<dlfs::hw::NodeId> clients;
  std::vector<dlfs::hw::NodeId> storage;
  // Mean sample size. With size_jitter j > 0 every sample's size is
  // drawn from the seed, uniformly in [(1-j), (1+j)] x sample_bytes, so
  // chunk packing, edge samples and copy costs differ from seed to seed.
  std::uint32_t sample_bytes = 4096;
  double size_jitter = 0.0;
  std::size_t samples = 0;
  std::size_t batch = 32;
  // Fixed trainer compute between two bread calls (0 = none).
  dlsim::SimDuration compute = 0;
  // Double-buffered zero-copy bread_views instead of bread.
  bool zero_copy = false;
  // Epochs run during set-up (caches warm) and excluded from the metrics.
  std::uint32_t warmup_epochs = 0;
  std::uint32_t measured_epochs = 1;
  // Crash one storage node, chosen by the seed, after a seed-derived
  // number of batches of the first measured epoch. It never heals.
  bool crash = false;
  dlfs::core::DlfsConfig cfg{};
};

inline std::optional<Workload> make_workload(std::string_view name) {
  namespace core = dlfs::core;
  Workload w;
  w.name = std::string(name);
  if (name == "small-local") {
    // One node holds client and device: local user-level queue only.
    w.num_nodes = 1;
    w.clients = {0};
    w.storage = {0};
    w.sample_bytes = 512;
    w.size_jitter = 0.25;
    w.samples = 65536;  // 32 MiB: 4x the pool, 8x the sample cache
    w.batch = 32;
    w.measured_epochs = 2;
    w.cfg.batching = core::BatchingMode::kChunkLevel;
    w.cfg.cache_chunks = 16;
    w.cfg.pool_bytes = 8_MiB;
    return w;
  }
  if (name == "large-remote") {
    // Client-only nodes 4..7 read storage-only nodes 0..3 over NVMe-oF.
    w.num_nodes = 8;
    w.clients = {4, 5, 6, 7};
    w.storage = {0, 1, 2, 3};
    w.sample_bytes = 128 * 1024;
    w.size_jitter = 0.25;
    w.samples = 2048;  // 256 MiB
    w.batch = 2;
    w.compute = 50_us;  // shorter than a batch's I/O time
    w.measured_epochs = 4;
    w.cfg.batching = core::BatchingMode::kSampleLevel;
    w.cfg.chunk_bytes = w.sample_bytes;
    w.cfg.cache_chunks = 64;  // 8 MiB per client, far below its share
    w.cfg.pool_bytes = 24_MiB;
    return w;
  }
  if (name == "peer-warm") {
    // Three client nodes share one storage node; the clients' combined
    // sample cache holds about half the dataset and the sharded
    // directory's lookup cache holds a quarter of it.
    w.num_nodes = 4;
    w.clients = {1, 2, 3};
    w.storage = {0};
    w.sample_bytes = 64 * 1024;
    w.samples = 2048;  // 128 MiB
    w.batch = 2;
    w.warmup_epochs = 1;
    w.measured_epochs = 6;
    w.cfg.batching = core::BatchingMode::kSampleLevel;
    w.cfg.chunk_bytes = w.sample_bytes;
    w.cfg.cache_chunks = 340;
    w.cfg.pool_bytes = (340 + 256) * std::uint64_t{64 * 1024};
    w.cfg.peer_cache.enabled = true;
    w.cfg.directory.mode = core::DirectoryMode::kSharded;
    w.cfg.directory.lookup_cache_entries = 512;
    return w;
  }
  if (name == "repair-contended") {
    // One client-only node reads four storage nodes with two copies of
    // every sample; a storage node dies in the first measured epoch and
    // re-replication competes with the training reads.
    w.num_nodes = 5;
    w.clients = {4};
    w.storage = {0, 1, 2, 3};
    w.sample_bytes = 4096;
    w.size_jitter = 0.25;
    w.samples = 8192;  // 32 MiB, 64 MiB with both copies
    w.batch = 16;
    w.zero_copy = true;
    w.measured_epochs = 6;
    w.crash = true;
    w.cfg.batching = core::BatchingMode::kChunkLevel;
    w.cfg.fault.replication = core::ReplicationConfig(2);
    w.cfg.fault.replication.declare_dead_after = 6_ms;
    w.cfg.fault.replication.repair_bytes_per_sec = 64_MiB;
    w.cfg.fault.reprobe_interval = 2_ms;
    w.cfg.fault.nvmf.command_timeout = 5_ms;
    w.cfg.fault.nvmf.reconnect_backoff = 200_us;
    w.cfg.fault.nvmf.reconnect_backoff_max = 1_ms;
    w.cfg.fault.nvmf.reconnect_attempts = 4;
    return w;
  }
  return std::nullopt;
}

}  // namespace perfbench
