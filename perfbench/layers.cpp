#include "layers.hpp"

#include <algorithm>
#include <charconv>
#include <string>
#include <vector>

namespace perfbench {

namespace core = dlfs::core;
using dlsim::SimDuration;

Counters snapshot(Rig& rig) {
  Counters c;
  c.now = rig.sim.now();
  c.events = rig.sim.events_processed();
  for (std::uint32_t i = 0; i < rig.fleet.num_clients(); ++i) {
    auto& inst = rig.fleet.instance(i);
    const core::InstanceStats st = inst.stats();
    c.samples_delivered += st.samples_delivered;
    c.bytes_delivered += st.bytes_delivered;
    c.samples_skipped += st.samples_skipped;
    c.lookup_ns += st.lookup_time_total;
    c.io_busy_ns += inst.io_core().busy_ns();
    c.copy_busy_ns += inst.engine().copy_busy_ns();
    c.bytes_copied += st.bytes_copied;
    c.bytes_zero_copy += st.bytes_zero_copy;
    c.cross_core_handoffs += st.cross_core_handoffs;
    c.posted += inst.engine().requests_posted();
    c.harvested += inst.engine().completions_harvested();
    c.retries += inst.engine().retries();
    c.timeouts += inst.engine().timeouts();
    const core::PrefetchStats& p = st.prefetch;
    c.prefetch.units_issued += p.units_issued;
    c.prefetch.units_resident_at_pick += p.units_resident_at_pick;
    c.prefetch.units_stalled += p.units_stalled;
    c.prefetch.stall_ns += p.stall_ns;
    c.prefetch.in_flight_hwm = std::max(c.prefetch.in_flight_hwm,
                                        p.in_flight_hwm);
    c.prefetch.window_grows += p.window_grows;
    c.prefetch.window_shrinks += p.window_shrinks;
    c.prefetch.units_dropped += p.units_dropped;
    c.prefetch.units_reissued += p.units_reissued;
    c.cache_hits += inst.cache().hits();
    c.cache_misses += inst.cache().misses();
    c.directory.local_hits += st.directory.local_hits;
    c.directory.cache_hits += st.directory.cache_hits;
    c.directory.remote_lookups += st.directory.remote_lookups;
    c.directory.cache_evictions += st.directory.cache_evictions;
    c.directory.stale_invalidations += st.directory.stale_invalidations;
    c.directory_bytes += st.directory_bytes;
    c.peer_hits_local += st.peer_hits_local;
    c.peer_hits_remote += st.peer_hits_remote;
    c.peer_misses += st.peer_misses;
    c.peer_bytes += st.peer_bytes;
    c.nodes_declared_dead += st.nodes_declared_dead;
    c.samples_rereplicated += st.samples_rereplicated;
    c.repair_bytes += st.repair_bytes;
    c.repair_throttles += st.repair_throttles;
    const dlfs::spdk::IoQueueStats t = inst.engine().transport_stats();
    c.transport.timeouts += t.timeouts;
    c.transport.connections_lost += t.connections_lost;
    c.transport.reconnects += t.reconnects;
    c.transport.replays += t.replays;
    const auto& pool = inst.pool();
    c.pool_peak_frac = std::max(
        c.pool_peak_frac, static_cast<double>(pool.peak_used_chunks()) /
                              static_cast<double>(pool.total_chunks()));
  }
  if (const auto* dir = rig.fleet.peer_directory()) {
    c.budget_retractions = dir->budget_retractions();
    c.refused_adverts = dir->refused_adverts();
  }
  auto& fabric = rig.cluster.fabric();
  c.net_messages = fabric.messages();
  c.net_dropped = fabric.messages_dropped();
  for (std::uint32_t n = 0; n < rig.cluster.size(); ++n) {
    auto& dev = rig.cluster.node(n).device();
    c.nvme_read += dev.bytes_read();
    c.nvme_written += dev.bytes_written();
    c.nvme_commands += dev.commands_completed();
    // The device has never been reset, so utilization is busy time over
    // the whole simulation; busy ns = utilization x now.
    c.pipe_busy_ns.push_back(dev.pipe_utilization() *
                             static_cast<double>(c.now));
    c.net_sent.push_back(fabric.bytes_sent(n));
    c.net_received.push_back(fabric.bytes_received(n));
  }
  return c;
}

Metric measured(std::string name, std::string unit, double v,
                std::string note) {
  return Metric{std::move(name), std::move(unit), v, std::move(note)};
}

Metric unmeasured(std::string name, std::string unit, std::string why) {
  return Metric{std::move(name), std::move(unit), std::nullopt,
                std::move(why)};
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::vector<Metric> layer_metrics(const Workload& w, Rig& rig,
                                  const Counters& a, const Counters& b,
                                  double host_s) {
  std::vector<Metric> m;
  const double samples =
      static_cast<double>(b.samples_delivered - a.samples_delivered);
  const double delivered =
      static_cast<double>(b.bytes_delivered - a.bytes_delivered);
  const double vt = static_cast<double>(b.now - a.now);
  const double events = static_cast<double>(b.events - a.events);
  const double clients = static_cast<double>(rig.fleet.num_clients());
  auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };

  m.push_back(measured("sim.events", "count", events));
  m.push_back(measured("sim.events_per_sample", "events/sample",
                       ratio(events, samples)));
  if (host_s > 0) {
    m.push_back(measured("sim.host_ns_per_event", "ns",
                         ratio(host_s * 1e9, events)));
  }

  const bool sharded = w.cfg.directory.mode == core::DirectoryMode::kSharded;
  const std::string full_dir = "full directory: every lookup is local";
  m.push_back(measured("dlfs.directory.lookup_ns_per_sample", "ns",
                       ratio(d(a.lookup_ns, b.lookup_ns), samples)));
  auto dir_metric = [&](const char* name, std::uint64_t x, std::uint64_t y) {
    m.push_back(sharded ? measured(name, "count", d(x, y))
                        : unmeasured(name, "count", full_dir));
  };
  dir_metric("dlfs.directory.local_hits", a.directory.local_hits,
             b.directory.local_hits);
  dir_metric("dlfs.directory.cache_hits", a.directory.cache_hits,
             b.directory.cache_hits);
  dir_metric("dlfs.directory.remote_lookups", a.directory.remote_lookups,
             b.directory.remote_lookups);
  dir_metric("dlfs.directory.cache_evictions", a.directory.cache_evictions,
             b.directory.cache_evictions);
  dir_metric("dlfs.directory.stale_invalidations",
             a.directory.stale_invalidations,
             b.directory.stale_invalidations);
  m.push_back(measured("dlfs.directory.bytes_per_client", "bytes",
                       static_cast<double>(b.directory_bytes) / clients));

  const double posted = d(a.posted, b.posted);
  const double io_busy = d(a.io_busy_ns, b.io_busy_ns);
  m.push_back(measured("dlfs.io_engine.requests_posted", "count", posted));
  m.push_back(measured("dlfs.io_engine.requests_per_sample", "requests/sample",
                       ratio(posted, samples)));
  m.push_back(measured("dlfs.io_engine.completions_harvested", "count",
                       d(a.harvested, b.harvested)));
  m.push_back(measured("dlfs.io_engine.io_core_busy_ns", "ns", io_busy));
  m.push_back(measured("dlfs.io_engine.io_core_util", "fraction",
                       ratio(io_busy, vt * clients)));
  m.push_back(measured("dlfs.io_engine.copy_busy_ns", "ns",
                       d(a.copy_busy_ns, b.copy_busy_ns)));
  m.push_back(measured("dlfs.io_engine.bytes_copied", "bytes",
                       d(a.bytes_copied, b.bytes_copied)));
  m.push_back(measured("dlfs.io_engine.bytes_zero_copy", "bytes",
                       d(a.bytes_zero_copy, b.bytes_zero_copy)));
  m.push_back(measured("dlfs.io_engine.cross_core_handoffs", "count",
                       d(a.cross_core_handoffs, b.cross_core_handoffs)));
  m.push_back(measured("dlfs.io_engine.retries", "count",
                       d(a.retries, b.retries)));
  m.push_back(measured("dlfs.io_engine.timeouts", "count",
                       d(a.timeouts, b.timeouts)));

  const auto& pa = a.prefetch;
  const auto& pb = b.prefetch;
  const double resident =
      d(pa.units_resident_at_pick, pb.units_resident_at_pick);
  const double stalled = d(pa.units_stalled, pb.units_stalled);
  m.push_back(measured("dlfs.prefetcher.units_issued", "count",
                       d(pa.units_issued, pb.units_issued)));
  m.push_back(measured("dlfs.prefetcher.resident_at_pick_ratio", "fraction",
                       ratio(resident, resident + stalled),
                       "base: " + num(resident + stalled) + " units acquired"));
  m.push_back(measured("dlfs.prefetcher.units_stalled", "count", stalled));
  m.push_back(measured("dlfs.prefetcher.stall_us", "us",
                       d(pa.stall_ns, pb.stall_ns) / 1e3));
  m.push_back(measured("dlfs.prefetcher.in_flight_hwm", "units",
                       pb.in_flight_hwm, "high-water mark since mount"));
  m.push_back(measured("dlfs.prefetcher.window_grows", "count",
                       d(pa.window_grows, pb.window_grows)));
  m.push_back(measured("dlfs.prefetcher.window_shrinks", "count",
                       d(pa.window_shrinks, pb.window_shrinks)));
  m.push_back(measured("dlfs.prefetcher.units_dropped", "count",
                       d(pa.units_dropped, pb.units_dropped)));
  m.push_back(measured("dlfs.prefetcher.units_reissued", "count",
                       d(pa.units_reissued, pb.units_reissued)));

  const double hits = d(a.cache_hits, b.cache_hits);
  const double misses = d(a.cache_misses, b.cache_misses);
  m.push_back(measured("dlfs.sample_cache.hits", "count", hits));
  m.push_back(measured("dlfs.sample_cache.misses", "count", misses));
  m.push_back(measured("dlfs.sample_cache.hit_ratio", "fraction",
                       ratio(hits, hits + misses),
                       "base: " + num(hits + misses) + " lookups"));

  const bool peers = w.cfg.peer_cache.enabled;
  const std::string no_peers = "peer cache disabled";
  const double pl = d(a.peer_hits_local, b.peer_hits_local);
  const double pr = d(a.peer_hits_remote, b.peer_hits_remote);
  const double pmiss = d(a.peer_misses, b.peer_misses);
  auto peer_metric = [&](const char* name, const char* unit, double v,
                         std::string note = {}) {
    m.push_back(peers ? measured(name, unit, v, std::move(note))
                      : unmeasured(name, unit, no_peers));
  };
  peer_metric("dlfs.peer_cache.hits_local", "count", pl);
  peer_metric("dlfs.peer_cache.hits_remote", "count", pr);
  peer_metric("dlfs.peer_cache.misses", "count", pmiss);
  peer_metric("dlfs.peer_cache.bytes", "bytes", d(a.peer_bytes, b.peer_bytes));
  peer_metric("dlfs.peer_cache.hit_ratio", "fraction",
              ratio(pl + pr, pl + pr + pmiss),
              "base: " + num(pl + pr + pmiss) + " peer consultations");
  peer_metric("dlfs.peer_cache.budget_retractions", "count",
              d(a.budget_retractions, b.budget_retractions));
  peer_metric("dlfs.peer_cache.refused_adverts", "count",
              d(a.refused_adverts, b.refused_adverts));

  const bool repl = w.cfg.fault.replication.k > 1;
  const std::string no_repl = "no replication: repair machinery is off";
  auto repair_metric = [&](const char* name, const char* unit, double v) {
    m.push_back(repl ? measured(name, unit, v)
                     : unmeasured(name, unit, no_repl));
  };
  repair_metric("dlfs.repair.nodes_declared_dead", "count",
                d(a.nodes_declared_dead, b.nodes_declared_dead));
  repair_metric("dlfs.repair.samples_rereplicated", "count",
                d(a.samples_rereplicated, b.samples_rereplicated));
  repair_metric("dlfs.repair.repair_bytes", "bytes",
                d(a.repair_bytes, b.repair_bytes));
  repair_metric("dlfs.repair.repair_throttles", "count",
                d(a.repair_throttles, b.repair_throttles));
  m.push_back(measured("dlfs.repair.samples_skipped", "count",
                       d(a.samples_skipped, b.samples_skipped)));

  m.push_back(measured("mem.pool_peak_used_frac", "fraction",
                       b.pool_peak_frac,
                       "peak used / total pool chunks since mount, worst "
                       "client"));

  // NVMe-oF queues exist only where a client reads a storage node that
  // is not its own node.
  bool remote = false;
  for (const auto c : w.clients) {
    for (const auto s : w.storage) remote = remote || c != s;
  }
  const std::string no_nvmf = "no NVMe-oF queue: every device is local";
  auto spdk_metric = [&](const char* name, std::uint64_t x, std::uint64_t y) {
    m.push_back(remote ? measured(name, "count", d(x, y))
                       : unmeasured(name, "count", no_nvmf));
  };
  spdk_metric("spdk.timeouts", a.transport.timeouts, b.transport.timeouts);
  spdk_metric("spdk.connections_lost", a.transport.connections_lost,
              b.transport.connections_lost);
  spdk_metric("spdk.reconnects", a.transport.reconnects,
              b.transport.reconnects);
  spdk_metric("spdk.replays", a.transport.replays, b.transport.replays);

  const double nvme_read = d(a.nvme_read, b.nvme_read);
  m.push_back(measured("hw.nvme.bytes_read", "bytes", nvme_read));
  m.push_back(measured("hw.nvme.bytes_written", "bytes",
                       d(a.nvme_written, b.nvme_written)));
  m.push_back(measured("hw.nvme.commands", "count",
                       d(a.nvme_commands, b.nvme_commands)));
  m.push_back(measured("hw.nvme.read_amplification", "bytes/byte",
                       ratio(nvme_read, delivered),
                       "base: " + num(delivered) + " bytes delivered"));
  double util_max = 0.0, util_sum = 0.0;
  for (const auto s : w.storage) {
    const double u = ratio(b.pipe_busy_ns[s] - a.pipe_busy_ns[s], vt);
    util_max = std::max(util_max, u);
    util_sum += u;
  }
  m.push_back(measured("hw.nvme.pipe_util_max", "fraction", util_max,
                       "worst storage device"));
  m.push_back(measured("hw.nvme.pipe_util_mean", "fraction",
                       util_sum / static_cast<double>(w.storage.size()),
                       "mean over " + std::to_string(w.storage.size()) +
                           " storage devices"));

  double sent = 0.0, nic_max = 0.0;
  const double line = rig.cluster.fabric().params().bw_bytes_per_sec;
  for (std::size_t n = 0; n < b.net_sent.size(); ++n) {
    const double s = d(a.net_sent[n], b.net_sent[n]);
    const double r = d(a.net_received[n], b.net_received[n]);
    sent += s;
    nic_max = std::max(nic_max, ratio(std::max(s, r), line * vt * 1e-9));
  }
  m.push_back(measured("hw.net.bytes_sent", "bytes", sent));
  m.push_back(measured("hw.net.bytes_per_delivered_byte", "bytes/byte",
                       ratio(sent, delivered),
                       "base: " + num(delivered) + " bytes delivered"));
  m.push_back(measured("hw.net.nic_util_max", "fraction", nic_max,
                       "busiest NIC direction vs line rate"));
  m.push_back(measured("hw.net.messages", "count",
                       d(a.net_messages, b.net_messages)));
  m.push_back(measured("hw.net.messages_dropped", "count",
                       d(a.net_dropped, b.net_dropped)));
  return m;
}

}  // namespace perfbench
