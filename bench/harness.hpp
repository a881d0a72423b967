#pragma once

// Shared workload harness for the figure-reproduction benches: builds a
// cluster, stages a fixed-size dataset on DLFS / Ext4 / OctoFS, runs one
// epoch of random sample reads, and reports throughput and CPU numbers
// out of the deterministic simulation.
//
// Methodology notes (mirrors the paper's §IV setup):
//  * random reads, batch of 32 samples unless a figure says otherwise;
//  * DLFS and Ext4 issue I/O from one core per client (the paper's
//    single-core configuration) unless a sweep varies it;
//  * multi-node Ext4 reads its node-local shard (the paper: "Ext4 reads
//    data locally"); DLFS and OctoFS read the global dataset;
//  * results come from simulated time, so one run is exact — the paper's
//    five-run averaging guards against noise we don't have.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/calibration.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/time.hpp"
#include "spdk/io_queue.hpp"

namespace dlfs::bench {

struct Workload {
  std::uint32_t num_nodes = 1;
  std::uint32_t clients = 0;  // 0 = every node
  std::uint32_t storage = 0;  // 0 = every node
  // Client i runs on node (client_node_offset + i) % num_nodes. Fig. 11's
  // single-client case sets this past the storage nodes so every device
  // is remote.
  std::uint32_t client_node_offset = 0;
  std::uint32_t sample_bytes = 4096;
  std::size_t samples_per_node = 2000;
  std::size_t batch_size = 32;
  std::uint64_t seed = 42;
  // DLFS runs only: read the epoch through dlfs_bread_views (zero-copy
  // view batches, chunk-level batching required) instead of dlfs_bread.
  // The reader double-buffers: each batch stays pinned while the next
  // one is fetched, then its ViewLease releases it.
  bool zero_copy = false;
  Calibration calibration{};
};

/// Scheduled storage-node failure for an availability run: crash storage
/// slot `crash_slot` at `crash_at` (relative to the epoch start), and
/// optionally bring it back at `recover_at`. Default = no fault.
struct FaultPlan {
  std::int32_t crash_slot = -1;  // storage slot to crash; -1 = healthy run
  dlsim::SimDuration crash_at = 0;
  std::optional<dlsim::SimDuration> recover_at;
};

struct RunResult {
  double samples_per_sec = 0.0;
  double bytes_per_sec = 0.0;
  double client_cpu_util = 0.0;  // mean across client I/O cores
  dlsim::SimDuration elapsed = 0;
  std::uint64_t samples = 0;
  double lookup_us_avg = 0.0;  // mean per-sample lookup/open time
  // DLFS-only counters (zero for the baselines): sample-cache traffic and
  // the async prefetcher's window statistics, summed over clients (window
  // high-water mark and target are maxima).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Retention: inserts declined by a full cache and entries evicted (pool
  // pressure plus explicit evict), summed over clients.
  std::uint64_t cache_declined_inserts = 0;
  std::uint64_t cache_evictions = 0;
  // Delivery-path byte split (DLFS only): memcpy'd bytes vs bytes handed
  // out as zero-copy views, plus units still pinned at epoch end and
  // copy jobs that ran on a core other than their producer's.
  std::uint64_t bytes_copied = 0;
  std::uint64_t bytes_zero_copy = 0;
  std::uint64_t view_pins_active = 0;
  std::uint64_t cross_core_handoffs = 0;
  // Busy-poll idling summed over clients: busy ns spent spinning with
  // nothing to harvest, and the waits that ended.
  std::uint64_t poll_wait_ns = 0;
  std::uint64_t poll_wakeups = 0;
  // Hedged failover, summed over clients: replica re-posts of pieces
  // stuck on a suspect node, and those that delivered first.
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;
  core::PrefetchStats prefetch{};
  // Fault-domain counters, summed over clients: device-level retries, the
  // transport's timeout/reconnect tallies, samples the degraded epoch
  // skipped, and how many storage nodes were still down at the end.
  std::uint64_t io_retries = 0;
  spdk::IoQueueStats transport{};
  std::uint64_t samples_skipped = 0;
  std::uint32_t nodes_down = 0;
  // Self-healing counters, summed over clients: permanent-loss
  // declarations observed, samples re-replicated by the repair engine,
  // bytes of repair traffic, and repair submissions delayed by the
  // repair-bandwidth budget.
  std::uint64_t nodes_declared_dead = 0;
  std::uint64_t samples_rereplicated = 0;
  std::uint64_t repair_bytes = 0;
  std::uint64_t repair_throttles = 0;
  // Multi-tenant QoS and sharded-directory counters, summed over
  // clients: posting-loop stalls where the WFQ tenant governor refused
  // admission, the directory view's hit/miss split, and bytes of
  // directory fill traffic. (tools/dlfslint/telemetry_check enforces that
  // every InstanceStats counter reaches this struct and the json report.)
  std::uint64_t qos_deferrals = 0;
  core::DirectoryViewStats directory{};
  std::uint64_t directory_bytes = 0;
  // Cooperative peer-cache counters, summed over clients: samples served
  // out of a co-located instance's cache, samples pulled from a remote
  // client's DRAM over the fabric, peer lookups that fell back to the
  // replica read path, and total peer-served bytes.
  std::uint64_t peer_hits_local = 0;
  std::uint64_t peer_hits_remote = 0;
  std::uint64_t peer_misses = 0;
  std::uint64_t peer_bytes = 0;
};

/// One epoch of dlfs_bread across all clients. A FaultPlan crashes one
/// storage node mid-epoch; the epoch then completes over the surviving
/// subset (RunResult::samples_skipped counts what was lost).
[[nodiscard]] RunResult run_dlfs(const Workload& w, core::DlfsConfig cfg,
                                 dlsim::SimDuration injected_poll_compute = 0,
                                 const FaultPlan& faults = {});

/// One epoch of open/pread/close over node-local Ext4, `threads_per_node`
/// reader threads per node (1 = Ext4-Base, >1 = Ext4-MC).
[[nodiscard]] RunResult run_ext4(const Workload& w,
                                 std::uint32_t threads_per_node = 1);

/// One epoch of open+RDMA-read over OctoFS (one client per node).
[[nodiscard]] RunResult run_octopus(const Workload& w);

/// Fig. 10: per-lookup metadata cost (directory lookup for DLFS, open for
/// Ext4, lookup RPC for OctoFS) measured over `measure_count` random
/// samples with `files_per_node` staged per node.
struct LookupTimes {
  double dlfs_us = 0.0;
  double ext4_us = 0.0;
  double octopus_us = 0.0;
};
[[nodiscard]] LookupTimes measure_lookup_times(std::uint32_t num_nodes,
                                               std::size_t files_per_node,
                                               std::uint32_t sample_bytes,
                                               std::size_t measure_count);

/// Accumulates bench results and writes them as BENCH_<name>.json in the
/// current directory — one flat JSON object per row, newline-separated
/// inside a top-level array, so figure scripts and CI can diff runs.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  /// Adds one row; `config` tags the sweep point (e.g. "depth=4 mode=async").
  void add(const std::string& config, const RunResult& r);

  /// Writes BENCH_<name>.json; returns the path written.
  std::string write() const;

 private:
  struct Row {
    std::string config;
    RunResult result;
  };
  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace dlfs::bench
