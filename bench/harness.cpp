#include "harness.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "octofs/octofs.hpp"
#include "osfs/ext4.hpp"
#include "sim/simulator.hpp"

namespace dlfs::bench {

namespace {

using dlsim::SimTime;
using dlsim::Task;
using namespace dlfs::byte_literals;

cluster::NodeConfig node_config(const Workload& w) {
  cluster::NodeConfig nc;
  nc.synthetic_store = true;
  nc.device_capacity = std::max<std::uint64_t>(
      1_GiB, 2ull * w.sample_bytes * w.samples_per_node * w.num_nodes);
  nc.nvme = w.calibration.nvme;
  return nc;
}

}  // namespace

RunResult run_dlfs(const Workload& w, core::DlfsConfig cfg,
                   dlsim::SimDuration injected_poll_compute,
                   const FaultPlan& faults) {
  dlsim::Simulator sim;
  cluster::Cluster cluster(sim, w.num_nodes, node_config(w),
                           w.calibration.nic);
  const std::uint32_t n_storage = w.storage == 0 ? w.num_nodes : w.storage;
  const std::uint32_t n_clients = w.clients == 0 ? w.num_nodes : w.clients;
  auto ds = dataset::make_fixed_size_dataset(
      w.samples_per_node * n_storage, w.sample_bytes, w.seed);
  cluster::Pfs pfs(sim, ds, w.calibration.pfs);
  cfg.calibration = w.calibration;
  std::vector<hw::NodeId> client_nodes, storage_nodes;
  for (std::uint32_t i = 0; i < n_clients; ++i) {
    client_nodes.push_back((w.client_node_offset + i) % w.num_nodes);
  }
  for (std::uint32_t i = 0; i < n_storage; ++i) storage_nodes.push_back(i);
  core::DlfsFleet fleet(cluster, pfs, ds, cfg, client_nodes, storage_nodes);
  fleet.mount();

  const SimTime start = sim.now();
  if (faults.crash_slot >= 0) {
    auto* target = fleet.target(static_cast<std::uint32_t>(faults.crash_slot));
    target->crash_at(start + faults.crash_at);
    if (faults.recover_at) target->recover_at(start + *faults.recover_at);
  }
  for (std::uint32_t c = 0; c < n_clients; ++c) {
    auto& inst = fleet.instance(c);
    inst.set_injected_poll_compute(injected_poll_compute);
    inst.io_core().reset_accounting();
    inst.sequence(w.seed + 1);
  }
  std::uint64_t total_samples = 0;
  // Epoch end is when the last reader finishes, not when the event queue
  // drains — a scheduled recovery can outlive the epoch.
  SimTime readers_done = start;
  for (std::uint32_t c = 0; c < n_clients; ++c) {
    sim.spawn([](dlsim::Simulator& sim, core::DlfsInstance& inst,
                 const Workload& w, std::uint64_t& total,
                 SimTime& done) -> Task<void> {
      if (w.zero_copy) {
        // Double-buffered zero-copy reader: each view batch stays pinned
        // (consumed by "the application") while the next is fetched; the
        // lease handoff releases the previous batch's units.
        core::ViewLease prev;
        for (;;) {
          auto vb = co_await inst.bread_views(w.batch_size);
          if (vb.end_of_epoch) break;
          total += vb.samples.size();
          prev = core::ViewLease(inst, std::move(vb));
        }
      } else {
        std::vector<std::byte> arena(
            (w.batch_size + 1) * static_cast<std::size_t>(w.sample_bytes));
        for (;;) {
          auto batch = co_await inst.bread(w.batch_size, arena);
          if (batch.end_of_epoch) break;
          total += batch.samples.size();
        }
      }
      done = std::max(done, sim.now());
    }(sim, fleet.instance(c), w, total_samples, readers_done));
  }
  sim.run();
  sim.rethrow_failures();

  RunResult r;
  r.elapsed = readers_done - start;
  r.samples = total_samples;
  r.samples_per_sec =
      static_cast<double>(total_samples) / dlsim::to_seconds(r.elapsed);
  r.bytes_per_sec = r.samples_per_sec * w.sample_bytes;
  double util = 0.0;
  double lookup_us = 0.0;
  std::uint64_t delivered_samples = 0;
  std::uint64_t delivered_bytes = 0;
  for (std::uint32_t c = 0; c < n_clients; ++c) {
    auto& inst = fleet.instance(c);
    util += inst.io_core().utilization();
    const core::InstanceStats st = inst.stats();
    lookup_us += dlsim::to_micros(st.lookup_time_total);
    r.cache_hits += inst.cache().hits();
    r.cache_misses += inst.cache().misses();
    r.cache_declined_inserts += st.cache_declined_inserts;
    r.cache_evictions += st.cache_evictions;
    r.bytes_copied += st.bytes_copied;
    r.bytes_zero_copy += st.bytes_zero_copy;
    r.view_pins_active += st.view_pins_active;
    r.cross_core_handoffs += st.cross_core_handoffs;
    r.poll_wait_ns += st.poll_wait_ns;
    r.poll_wakeups += st.poll_wakeups;
    r.hedges_issued += st.hedges_issued;
    r.hedges_won += st.hedges_won;
    const core::PrefetchStats& ps = st.prefetch;
    r.prefetch.units_issued += ps.units_issued;
    r.prefetch.units_resident_at_pick += ps.units_resident_at_pick;
    r.prefetch.units_stalled += ps.units_stalled;
    r.prefetch.stall_ns += ps.stall_ns;
    r.prefetch.window_grows += ps.window_grows;
    r.prefetch.window_shrinks += ps.window_shrinks;
    r.prefetch.units_dropped += ps.units_dropped;
    r.prefetch.units_reissued += ps.units_reissued;
    r.prefetch.units_replanned += ps.units_replanned;
    r.prefetch.in_flight_hwm =
        std::max(r.prefetch.in_flight_hwm, ps.in_flight_hwm);
    r.prefetch.window_target =
        std::max(r.prefetch.window_target, ps.window_target);
    auto& eng = inst.engine();
    r.io_retries += eng.retries();
    const spdk::IoQueueStats ts = eng.transport_stats();
    r.transport.timeouts += ts.timeouts;
    r.transport.connections_lost += ts.connections_lost;
    r.transport.reconnects += ts.reconnects;
    r.transport.replays += ts.replays;
    r.samples_skipped += st.samples_skipped;
    r.nodes_down = std::max(r.nodes_down, eng.nodes_down());
    r.nodes_declared_dead += st.nodes_declared_dead;
    r.samples_rereplicated += st.samples_rereplicated;
    r.repair_bytes += st.repair_bytes;
    r.repair_throttles += st.repair_throttles;
    r.qos_deferrals += st.qos_deferrals;
    r.directory.local_hits += st.directory.local_hits;
    r.directory.cache_hits += st.directory.cache_hits;
    r.directory.remote_lookups += st.directory.remote_lookups;
    r.directory.cache_evictions += st.directory.cache_evictions;
    r.directory.stale_invalidations += st.directory.stale_invalidations;
    r.directory_bytes += st.directory_bytes;
    r.peer_hits_local += st.peer_hits_local;
    r.peer_hits_remote += st.peer_hits_remote;
    r.peer_misses += st.peer_misses;
    r.peer_bytes += st.peer_bytes;
    delivered_samples += st.samples_delivered;
    delivered_bytes += st.bytes_delivered;
  }
  // Cross-check the instances' own delivery counters against the
  // reader-side tally: a mismatch means a batch was double-counted or
  // silently dropped between the instance and the application.
  if (delivered_samples != total_samples ||
      delivered_bytes != total_samples * w.sample_bytes) {
    throw std::logic_error(
        "run_dlfs: delivery counters disagree with the reader tally: "
        "instances report " +
        std::to_string(delivered_samples) + " samples / " +
        std::to_string(delivered_bytes) + " bytes, readers saw " +
        std::to_string(total_samples) + " samples / " +
        std::to_string(total_samples * w.sample_bytes) + " bytes");
  }
  r.client_cpu_util = util / n_clients;
  r.lookup_us_avg =
      total_samples ? lookup_us / static_cast<double>(total_samples) : 0.0;
  return r;
}

RunResult run_ext4(const Workload& w, std::uint32_t threads_per_node) {
  dlsim::Simulator sim;
  cluster::Cluster cluster(sim, w.num_nodes, node_config(w),
                           w.calibration.nic);
  // One Ext4 per node over its own device, holding that node's shard.
  std::vector<std::unique_ptr<osfs::Ext4Fs>> fss;
  for (std::uint32_t n = 0; n < w.num_nodes; ++n) {
    fss.push_back(std::make_unique<osfs::Ext4Fs>(
        sim, cluster.node(n).device(), w.calibration));
  }
  // Stage: each node's files written by one staging thread.
  for (std::uint32_t n = 0; n < w.num_nodes; ++n) {
    sim.spawn([](osfs::Ext4Fs& fs, cluster::Node& node,
                 const Workload& w) -> Task<void> {
      osfs::OsThread staging(fs, node.core(15));
      std::vector<std::byte> data(w.sample_bytes);
      for (std::size_t i = 0; i < w.samples_per_node; ++i) {
        const int fd =
            co_await fs.create(staging, "s" + std::to_string(i));
        co_await fs.append(staging, fd, data);
        co_await fs.close(staging, fd);
      }
    }(*fss[n], cluster.node(n), w));
  }
  sim.run();
  sim.rethrow_failures();
  for (auto& fs : fss) fs->drop_caches();

  const SimTime start = sim.now();
  std::uint64_t total_samples = 0;
  std::vector<dlsim::CpuCore*> cores;
  std::vector<std::unique_ptr<osfs::OsThread>> threads;
  double open_us_total = 0.0;
  for (std::uint32_t n = 0; n < w.num_nodes; ++n) {
    for (std::uint32_t t = 0; t < threads_per_node; ++t) {
      auto& core = cluster.node(n).core(t);
      core.reset_accounting();
      cores.push_back(&core);
      threads.push_back(std::make_unique<osfs::OsThread>(*fss[n], core));
      sim.spawn([](dlsim::Simulator& sim, osfs::Ext4Fs& fs,
                   osfs::OsThread& thread, const Workload& w,
                   std::uint32_t tid, std::uint32_t nthreads,
                   std::uint64_t& total, double& open_us) -> Task<void> {
        // This thread reads its strided slice of the node's shuffled list.
        Rng rng(w.seed + 7);
        auto order = rng.permutation(w.samples_per_node);
        std::vector<std::byte> buf(w.sample_bytes);
        for (std::size_t i = tid; i < order.size(); i += nthreads) {
          const SimTime t0 = sim.now();
          auto fd =
              co_await fs.open(thread, "s" + std::to_string(order[i]));
          open_us += dlsim::to_micros(sim.now() - t0);
          (void)co_await fs.pread(thread, *fd, buf, 0);
          co_await fs.close(thread, *fd);
          ++total;
        }
      }(sim, *fss[n], *threads.back(), w, t, threads_per_node, total_samples,
        open_us_total));
    }
  }
  sim.run();
  sim.rethrow_failures();

  RunResult r;
  r.elapsed = sim.now() - start;
  r.samples = total_samples;
  r.samples_per_sec =
      static_cast<double>(total_samples) / dlsim::to_seconds(r.elapsed);
  r.bytes_per_sec = r.samples_per_sec * w.sample_bytes;
  double util = 0.0;
  for (auto* c : cores) util += c->utilization();
  r.client_cpu_util = util / static_cast<double>(cores.size());
  r.lookup_us_avg =
      total_samples ? open_us_total / static_cast<double>(total_samples) : 0.0;
  return r;
}

RunResult run_octopus(const Workload& w) {
  dlsim::Simulator sim;
  cluster::Cluster cluster(sim, w.num_nodes, node_config(w),
                           w.calibration.nic);
  octofs::OctoFs fs(cluster, w.calibration);
  const std::size_t total = w.samples_per_node * w.num_nodes;
  // Stage the global dataset (hash-placed on owners).
  sim.spawn([](octofs::OctoFs& fs, const Workload& w,
               std::size_t total) -> Task<void> {
    std::vector<std::byte> data(w.sample_bytes);
    for (std::size_t i = 0; i < total; ++i) {
      co_await fs.stage_file("s" + std::to_string(i), data);
    }
  }(fs, w, total));
  sim.run();
  sim.rethrow_failures();

  const SimTime start = sim.now();
  std::uint64_t read_count = 0;
  double lookup_us_total = 0.0;
  std::vector<std::unique_ptr<octofs::OctoFs::Client>> clients;
  std::vector<dlsim::CpuCore*> cores;
  for (std::uint32_t n = 0; n < w.num_nodes; ++n) {
    auto& core = cluster.node(n).core(0);
    core.reset_accounting();
    cores.push_back(&core);
    clients.push_back(fs.make_client(n, core));
    sim.spawn([](dlsim::Simulator& sim, octofs::OctoFs::Client& client,
                 const Workload& w, std::uint32_t nid, std::size_t total,
                 std::uint64_t& count, double& lookup_us) -> Task<void> {
      // Client n reads its strided share of a global shuffled order.
      Rng rng(w.seed + 11);
      auto order = rng.permutation(total);
      std::vector<std::byte> buf(w.sample_bytes);
      for (std::size_t i = nid; i < order.size(); i += w.num_nodes) {
        const SimTime t0 = sim.now();
        auto meta = co_await client.open("s" + std::to_string(order[i]));
        lookup_us += dlsim::to_micros(sim.now() - t0);
        co_await client.read(*meta, buf);
        ++count;
      }
    }(sim, *clients.back(), w, n, total, read_count, lookup_us_total));
  }
  sim.run();
  sim.rethrow_failures();

  RunResult r;
  r.elapsed = sim.now() - start;
  r.samples = read_count;
  r.samples_per_sec =
      static_cast<double>(read_count) / dlsim::to_seconds(r.elapsed);
  r.bytes_per_sec = r.samples_per_sec * w.sample_bytes;
  double util = 0.0;
  for (auto* c : cores) util += c->utilization();
  r.client_cpu_util = util / static_cast<double>(cores.size());
  r.lookup_us_avg =
      read_count ? lookup_us_total / static_cast<double>(read_count) : 0.0;
  return r;
}

LookupTimes measure_lookup_times(std::uint32_t num_nodes,
                                 std::size_t files_per_node,
                                 std::uint32_t sample_bytes,
                                 std::size_t measure_count) {
  LookupTimes out;
  Workload w;
  w.num_nodes = num_nodes;
  w.sample_bytes = sample_bytes;
  w.samples_per_node = files_per_node;
  {
    // DLFS: mount, then time raw directory lookups from node 0.
    dlsim::Simulator sim;
    cluster::Cluster cluster(sim, num_nodes, node_config(w));
    auto ds = dataset::make_fixed_size_dataset(files_per_node * num_nodes,
                                               sample_bytes, 1);
    cluster::Pfs pfs(sim, ds);
    core::DlfsFleet fleet(cluster, pfs, ds, core::DlfsConfig{});
    fleet.mount();
    auto& inst = fleet.instance(0);
    const SimTime t0 = sim.now();
    sim.spawn([](core::DlfsInstance& inst, const dataset::Dataset& ds,
                 std::size_t count) -> Task<void> {
      Rng rng(3);
      for (std::size_t i = 0; i < count; ++i) {
        const auto id =
            static_cast<std::uint32_t>(rng.next_below(ds.num_samples()));
        (void)co_await inst.open_id(id);
      }
    }(inst, ds, measure_count));
    sim.run();
    sim.rethrow_failures();
    out.dlfs_us = dlsim::to_micros(sim.now() - t0) /
                  static_cast<double>(measure_count);
  }
  {
    // Ext4: cold opens on one node. Beyond the metadata-cache capacity the
    // per-open cost is flat, so staging is capped for host-time reasons.
    const std::size_t ext4_files = std::min<std::size_t>(files_per_node, 30000);
    dlsim::Simulator sim;
    cluster::Cluster cluster(sim, 1, node_config(w));
    osfs::Ext4Fs fs(sim, cluster.node(0).device(), default_calibration());
    sim.spawn([](osfs::Ext4Fs& fs, cluster::Node& node, std::size_t n,
                 std::uint32_t bytes) -> Task<void> {
      osfs::OsThread staging(fs, node.core(15));
      std::vector<std::byte> data(bytes);
      for (std::size_t i = 0; i < n; ++i) {
        const int fd = co_await fs.create(staging, "s" + std::to_string(i));
        co_await fs.append(staging, fd, data);
        co_await fs.close(staging, fd);
      }
    }(fs, cluster.node(0), ext4_files, sample_bytes));
    sim.run();
    sim.rethrow_failures();
    fs.drop_caches();
    const SimTime t0 = sim.now();
    sim.spawn([](osfs::Ext4Fs& fs, cluster::Node& node, std::size_t files,
                 std::size_t count) -> Task<void> {
      osfs::OsThread thread(fs, node.core(0));
      Rng rng(3);
      for (std::size_t i = 0; i < count; ++i) {
        const auto id = rng.next_below(files);
        auto fd = co_await fs.open(thread, "s" + std::to_string(id));
        co_await fs.close(thread, *fd);
      }
    }(fs, cluster.node(0), ext4_files, measure_count));
    sim.run();
    sim.rethrow_failures();
    out.ext4_us = dlsim::to_micros(sim.now() - t0) /
                  static_cast<double>(measure_count);
  }
  {
    // OctoFS: lookups from node 0 over the partitioned namespace.
    dlsim::Simulator sim;
    cluster::Cluster cluster(sim, num_nodes, node_config(w));
    octofs::OctoFs fs(cluster, default_calibration());
    // Lookup cost does not depend on file count; cap staging for host time.
    const std::size_t total =
        std::min<std::size_t>(files_per_node * num_nodes, 100000);
    sim.spawn([](octofs::OctoFs& fs, std::size_t n,
                 std::uint32_t bytes) -> Task<void> {
      std::vector<std::byte> data(bytes);
      for (std::size_t i = 0; i < n; ++i) {
        co_await fs.stage_file("s" + std::to_string(i), data);
      }
    }(fs, total, sample_bytes));
    sim.run();
    sim.rethrow_failures();
    auto client = fs.make_client(0, cluster.node(0).core(0));
    const SimTime t0 = sim.now();
    sim.spawn([](octofs::OctoFs::Client& client, std::size_t files,
                 std::size_t count) -> Task<void> {
      Rng rng(3);
      for (std::size_t i = 0; i < count; ++i) {
        const auto id = rng.next_below(files);
        (void)co_await client.open("s" + std::to_string(id));
      }
    }(*client, total, measure_count));
    sim.run();
    sim.rethrow_failures();
    out.octopus_us = dlsim::to_micros(sim.now() - t0) /
                     static_cast<double>(measure_count);
  }
  return out;
}

void JsonReport::add(const std::string& config, const RunResult& r) {
  rows_.push_back(Row{config, r});
}

std::string JsonReport::write() const {
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto& [config, r] = rows_[i];
    const auto& p = r.prefetch;
    out << "  {\"config\": \"" << config << "\""
        << ", \"samples_per_sec\": " << r.samples_per_sec
        << ", \"bytes_per_sec\": " << r.bytes_per_sec
        << ", \"client_cpu_util\": " << r.client_cpu_util
        << ", \"elapsed_us\": " << dlsim::to_micros(r.elapsed)
        << ", \"samples\": " << r.samples
        << ", \"lookup_us_avg\": " << r.lookup_us_avg
        << ", \"cache_hits\": " << r.cache_hits
        << ", \"cache_misses\": " << r.cache_misses
        << ", \"cache_declined_inserts\": " << r.cache_declined_inserts
        << ", \"cache_evictions\": " << r.cache_evictions
        << ", \"bytes_copied\": " << r.bytes_copied
        << ", \"bytes_zero_copy\": " << r.bytes_zero_copy
        << ", \"view_pins_active\": " << r.view_pins_active
        << ", \"cross_core_handoffs\": " << r.cross_core_handoffs
        << ", \"poll_wait_ns\": " << r.poll_wait_ns
        << ", \"poll_wakeups\": " << r.poll_wakeups
        << ", \"hedges_issued\": " << r.hedges_issued
        << ", \"hedges_won\": " << r.hedges_won
        << ", \"prefetch_units_issued\": " << p.units_issued
        << ", \"prefetch_units_resident_at_pick\": "
        << p.units_resident_at_pick
        << ", \"prefetch_units_stalled\": " << p.units_stalled
        << ", \"prefetch_stall_us\": " << dlsim::to_micros(p.stall_ns)
        << ", \"prefetch_in_flight_hwm\": " << p.in_flight_hwm
        << ", \"prefetch_window_grows\": " << p.window_grows
        << ", \"prefetch_window_shrinks\": " << p.window_shrinks
        << ", \"prefetch_units_dropped\": " << p.units_dropped
        << ", \"prefetch_units_reissued\": " << p.units_reissued
        << ", \"prefetch_units_replanned\": " << p.units_replanned
        << ", \"prefetch_window_target\": " << p.window_target
        << ", \"io_retries\": " << r.io_retries
        << ", \"io_timeouts\": " << r.transport.timeouts
        << ", \"connections_lost\": " << r.transport.connections_lost
        << ", \"reconnects\": " << r.transport.reconnects
        << ", \"replays\": " << r.transport.replays
        << ", \"samples_skipped\": " << r.samples_skipped
        << ", \"nodes_down\": " << r.nodes_down
        << ", \"nodes_declared_dead\": " << r.nodes_declared_dead
        << ", \"samples_rereplicated\": " << r.samples_rereplicated
        << ", \"repair_bytes\": " << r.repair_bytes
        << ", \"repair_throttles\": " << r.repair_throttles
        << ", \"qos_deferrals\": " << r.qos_deferrals
        << ", \"directory_local_hits\": " << r.directory.local_hits
        << ", \"directory_cache_hits\": " << r.directory.cache_hits
        << ", \"directory_remote_lookups\": " << r.directory.remote_lookups
        << ", \"directory_cache_evictions\": " << r.directory.cache_evictions
        << ", \"directory_stale_invalidations\": "
        << r.directory.stale_invalidations
        << ", \"directory_bytes\": " << r.directory_bytes
        << ", \"peer_hits_local\": " << r.peer_hits_local
        << ", \"peer_hits_remote\": " << r.peer_hits_remote
        << ", \"peer_misses\": " << r.peer_misses
        << ", \"peer_bytes\": " << r.peer_bytes << "}"
        << (i + 1 < rows_.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return path;
}

}  // namespace dlfs::bench
