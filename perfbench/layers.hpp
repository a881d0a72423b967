#pragma once

// Per-layer measurement from outside the library: the simulated cluster a
// round runs on, snapshots of every public counter the per-layer metrics
// are derived from, and the metrics of the interval between two
// snapshots.

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One round's simulated cluster, dataset and mounted DLFS job. Every
/// node keeps a RAM-backed store so delivered bytes can be checked.
struct Rig {
  dlsim::Simulator sim;
  dlfs::cluster::Cluster cluster;
  dlfs::dataset::Dataset ds;
  dlfs::cluster::Pfs pfs;
  dlfs::core::DlfsFleet fleet;

  Rig(const Workload& w, std::uint64_t seed)
      : cluster(sim, w.num_nodes, node_config(w)),
        ds(make_dataset(w, seed)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, w.cfg, w.clients, w.storage) {}

  /// The dataset the seed generates: names and classes as in the
  /// repository's fixed-size generator, sizes drawn per size_jitter.
  static dlfs::dataset::Dataset make_dataset(const Workload& w,
                                             std::uint64_t seed) {
    dlfs::Rng rng(dlfs::hash_combine(seed, 0x5a3e));
    const auto lo = static_cast<std::uint64_t>(
        std::llround(w.sample_bytes * (1.0 - w.size_jitter)));
    const auto hi = static_cast<std::uint64_t>(
        std::llround(w.sample_bytes * (1.0 + w.size_jitter)));
    std::vector<dlfs::dataset::SampleSpec> specs(w.samples);
    for (std::size_t i = 0; i < w.samples; ++i) {
      specs[i].name = "s" + std::to_string(i);
      specs[i].class_id = static_cast<std::uint32_t>(rng.next_below(10));
      specs[i].size =
          static_cast<std::uint32_t>(lo + rng.next_below(hi - lo + 1));
    }
    return dlfs::dataset::Dataset(w.name, seed, std::move(specs));
  }

  static dlfs::cluster::NodeConfig node_config(const Workload& w) {
    dlfs::cluster::NodeConfig nc;
    nc.synthetic_store = false;
    // Room for every copy of the whole dataset plus repair extents on any
    // one node; the RAM store only allocates pages that are written.
    nc.device_capacity = 4 * std::uint64_t{w.sample_bytes} * w.samples *
                         w.cfg.fault.replication.k;
    return nc;
  }
};

/// Every public counter the per-layer metrics are derived from, summed
/// over the fleet's instances and the cluster's nodes.
struct Counters {
  dlsim::SimTime now = 0;
  std::uint64_t events = 0;
  std::uint64_t samples_delivered = 0, bytes_delivered = 0;
  std::uint64_t samples_skipped = 0;
  dlsim::SimDuration lookup_ns = 0, io_busy_ns = 0, copy_busy_ns = 0;
  std::uint64_t bytes_copied = 0, bytes_zero_copy = 0;
  std::uint64_t cross_core_handoffs = 0;
  std::uint64_t posted = 0, harvested = 0, retries = 0, timeouts = 0;
  dlfs::core::PrefetchStats prefetch{};
  std::uint64_t cache_hits = 0, cache_misses = 0;
  dlfs::core::DirectoryViewStats directory{};
  std::uint64_t directory_bytes = 0;
  std::uint64_t peer_hits_local = 0, peer_hits_remote = 0;
  std::uint64_t peer_misses = 0, peer_bytes = 0;
  std::uint64_t budget_retractions = 0, refused_adverts = 0;
  std::uint64_t nodes_declared_dead = 0, samples_rereplicated = 0;
  std::uint64_t repair_bytes = 0, repair_throttles = 0;
  dlfs::spdk::IoQueueStats transport{};
  double pool_peak_frac = 0.0;
  std::uint64_t nvme_read = 0, nvme_written = 0, nvme_commands = 0;
  std::vector<double> pipe_busy_ns;  // per node
  std::uint64_t net_messages = 0, net_dropped = 0;
  std::vector<std::uint64_t> net_sent, net_received;  // per node
};

/// Reads every counter of `rig` now.
Counters snapshot(Rig& rig);

/// One named metric. A metric the workload does not exercise has no
/// value; `note` then says why, and otherwise what the value is based on.
struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;  // nullopt = not exercised by this workload
  std::string note;             // why it is null, or what it is based on
};

Metric measured(std::string name, std::string unit, double v,
                std::string note = {});
Metric unmeasured(std::string name, std::string unit, std::string why);

/// a / b, or 0 when b is 0.
double ratio(double a, double b);

/// Shortest text that reads back as `v`.
std::string num(double v);

/// Per-layer metrics of the interval between two snapshots. `host_s` is
/// the host time the interval took (0 when unknown).
std::vector<Metric> layer_metrics(const Workload& w, Rig& rig,
                                  const Counters& a, const Counters& b,
                                  double host_s);

}  // namespace perfbench
