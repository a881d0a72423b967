// Cooperative peer sample cache: the consistent-hash PeerCacheDirectory
// (holder discovery for co-located and remote peers, with an advertise
// budget), and the fleet-level read paths — intra-node peer hits, remote
// peer pulls over the fabric, the advertise budget bounding what peers
// serve, pin-protected serving under eviction pressure, and exactly-once
// skip accounting when both the peer and the replica route fail.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "dlfs/sample_cache.hpp"
#include "sim/simulator.hpp"

namespace {

using dlfs::core::PeerCacheConfig;
using dlfs::core::PeerCacheDirectory;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

// ---------------------------------------------------------------------------
// PeerCacheDirectory unit behaviour

TEST(PeerCacheDirectory, HomeClientIsDeterministicAndSpread) {
  PeerCacheConfig cfg;
  cfg.enabled = true;
  PeerCacheDirectory dir(cfg, 4);
  std::array<bool, 4> seen{};
  for (std::size_t id = 0; id < 64; ++id) {
    const std::uint32_t home = dir.home_client(id);
    ASSERT_LT(home, 4u);
    EXPECT_EQ(home, dir.home_client(id));  // stable across calls
    seen[home] = true;
  }
  // The consistent-hash probe spreads homes across clients.
  int distinct = 0;
  for (bool b : seen) distinct += b ? 1 : 0;
  EXPECT_GE(distinct, 2);
}

TEST(PeerCacheDirectory, AdvertiseFindRetractRoundTrip) {
  PeerCacheConfig cfg;
  cfg.enabled = true;  // budget 0 = unlimited
  PeerCacheDirectory dir(cfg, 3);
  dir.advertise(/*holder=*/1, /*node=*/10, /*sample=*/7, /*bytes=*/4096);
  const auto h = dir.find(7, /*asking=*/0);
  ASSERT_TRUE(h.found);
  EXPECT_EQ(h.client, 1u);
  EXPECT_EQ(h.node, 10u);
  // The only holder is the asker itself: no peer to serve it.
  EXPECT_FALSE(dir.find(7, 1).found);
  EXPECT_EQ(dir.advertised_bytes(10), 4096u);
  // Re-advertising the same (holder, sample) is idempotent.
  dir.advertise(1, 10, 7, 4096);
  EXPECT_EQ(dir.advertised_bytes(10), 4096u);
  dir.retract(1, 7);
  EXPECT_FALSE(dir.find(7, 0).found);
  EXPECT_EQ(dir.advertised_bytes(10), 0u);
}

TEST(PeerCacheDirectory, LruBudgetRetractsOldestAdvertisement) {
  PeerCacheConfig cfg;
  cfg.enabled = true;
  cfg.advertise_budget_bytes = 8192;  // room for two 4 KiB samples
  cfg.eviction = PeerCacheConfig::Eviction::kLru;
  PeerCacheDirectory dir(cfg, 4);
  dir.advertise(0, 5, 1, 4096);
  dir.advertise(0, 5, 2, 4096);
  dir.advertise(0, 5, 3, 4096);  // pushes sample 1 out
  EXPECT_FALSE(dir.find(1, 9).found);
  EXPECT_TRUE(dir.find(2, 9).found);
  EXPECT_TRUE(dir.find(3, 9).found);
  EXPECT_EQ(dir.advertised_bytes(5), 8192u);
  EXPECT_EQ(dir.budget_retractions(), 1u);
  EXPECT_EQ(dir.refused_adverts(), 0u);
}

TEST(PeerCacheDirectory, RefuseNewBudgetKeepsOldSet) {
  PeerCacheConfig cfg;
  cfg.enabled = true;
  cfg.advertise_budget_bytes = 8192;
  cfg.eviction = PeerCacheConfig::Eviction::kRefuseNew;
  PeerCacheDirectory dir(cfg, 4);
  dir.advertise(0, 5, 1, 4096);
  dir.advertise(0, 5, 2, 4096);
  dir.advertise(0, 5, 3, 4096);  // refused: the old set stays
  EXPECT_TRUE(dir.find(1, 9).found);
  EXPECT_TRUE(dir.find(2, 9).found);
  EXPECT_FALSE(dir.find(3, 9).found);
  EXPECT_EQ(dir.advertised_bytes(5), 8192u);
  EXPECT_EQ(dir.budget_retractions(), 0u);
  EXPECT_EQ(dir.refused_adverts(), 1u);
  // retract_all clears the holder's whole advertised set.
  dir.retract_all(0);
  EXPECT_FALSE(dir.find(1, 9).found);
  EXPECT_FALSE(dir.find(2, 9).found);
  EXPECT_EQ(dir.advertised_bytes(5), 0u);
}

// ---------------------------------------------------------------------------
// Fleet-level peer reads

// `clients`/`storage` pick the topology: co-located instances share one
// node entry, remote peers get one node each. Sample-level batching so
// every demand read is an individually peer-servable unit.
struct PeerRig {
  static constexpr std::size_t kSamples = 512;

  Simulator sim;
  dlfs::cluster::Cluster cluster;
  dlfs::dataset::Dataset ds;
  dlfs::cluster::Pfs pfs;
  dlfs::core::DlfsFleet fleet;

  PeerRig(std::uint32_t nodes, std::vector<std::uint32_t> clients,
          std::vector<std::uint32_t> storage, const dlfs::core::DlfsConfig& c)
      : cluster(sim, nodes, node_cfg()),
        ds(dlfs::dataset::make_fixed_size_dataset(kSamples, 4096)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, c, std::move(clients), std::move(storage)) {
    fleet.mount();
  }

  static dlfs::cluster::NodeConfig node_cfg() {
    dlfs::cluster::NodeConfig nc;
    nc.synthetic_store = false;  // data-integrity checks need real bytes
    nc.device_capacity = 256_MiB;
    return nc;
  }

  /// `cache_chunks` sizes each instance's resident set (one chunk per
  /// 4 KiB sample here): >= the per-client epoch share keeps a client's
  /// whole share resident, smaller values force eviction pressure.
  static dlfs::core::DlfsConfig cfg(std::size_t cache_chunks) {
    dlfs::core::DlfsConfig c;
    c.batching = dlfs::core::BatchingMode::kSampleLevel;
    c.chunk_bytes = 64 * 1024;  // small pool chunks: many cache slots
    c.cache_chunks = cache_chunks;
    c.peer_cache.enabled = true;
    // Shrunken transport fault budget (only the failover test crashes a
    // target, but a short budget never hurts a healthy run).
    c.fault.nvmf.command_timeout = 5_ms;
    c.fault.nvmf.reconnect_backoff = 200_us;
    c.fault.nvmf.reconnect_backoff_max = 1_ms;
    c.fault.nvmf.reconnect_attempts = 4;
    return c;
  }
};

struct DeliveryLog {
  std::vector<std::uint32_t> order;
  std::uint64_t skipped = 0;
  bool content_ok = true;
};

Task<void> run_epoch_logged(const dlfs::dataset::Dataset& ds,
                            dlfs::core::DlfsInstance& inst,
                            DeliveryLog& log) {
  std::vector<std::byte> arena(64_KiB);
  std::vector<std::byte> want;
  for (;;) {
    auto b = co_await inst.bread(16, arena);
    if (b.end_of_epoch) break;
    // Skip accounting is per sample, exactly once: a batch that asked
    // for 16 samples can never report more than 16 outcomes in total.
    EXPECT_LE(b.samples.size() + b.samples_skipped, 16u);
    for (const auto& s : b.samples) {
      log.order.push_back(s.sample_id);
      want.resize(s.len);
      ds.fill_content(s.sample_id, 0, want);
      if (std::memcmp(arena.data() + s.offset_in_arena, want.data(), s.len) !=
          0) {
        log.content_ok = false;
      }
    }
    log.skipped += b.samples_skipped;
  }
}

TEST(PeerCache, CoLocatedInstancesServePeerHitsAfterReshuffle) {
  // Two instances on one client node. Epoch 1 (seed 1) leaves each
  // client's strided half resident in its own cache; epoch 2 reshuffles
  // with a new seed, so about half of each client's share is resident
  // only at its co-located peer — found through the cache directory's
  // node filter and served with no fabric traffic.
  PeerRig rig(2, /*clients=*/{1, 1}, /*storage=*/{0},
              PeerRig::cfg(/*cache_chunks=*/320));
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);

  a.sequence(1);
  b.sequence(1);
  DeliveryLog a1, b1;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a1), "colocated-a-e1");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b1), "colocated-b-e1");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(a1.order.size() + b1.order.size(), PeerRig::kSamples);
  EXPECT_TRUE(a1.content_ok);
  EXPECT_TRUE(b1.content_ok);

  a.sequence(2);
  b.sequence(2);
  DeliveryLog a2, b2;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a2), "colocated-a-e2");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b2), "colocated-b-e2");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(a2.order.size() + b2.order.size(), PeerRig::kSamples);
  EXPECT_EQ(a2.skipped + b2.skipped, 0u);
  EXPECT_TRUE(a2.content_ok);
  EXPECT_TRUE(b2.content_ok);
  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_GT(sa.peer_hits_local + sb.peer_hits_local, 0u);
  // Same node: a co-located holder always wins before the fabric path.
  EXPECT_EQ(sa.peer_hits_remote + sb.peer_hits_remote, 0u);
  EXPECT_GT(sa.peer_bytes + sb.peer_bytes, 0u);
}

TEST(PeerCache, AdvertiseBudgetBoundsCoLocatedServes) {
  // The cache directory is the only residency index peers consult, so a
  // node's advertise budget bounds what co-located instances serve each
  // other too. Refuse-new keeps the node's first eight adverts; every
  // other resident sample is invisible to the peer and is read from
  // storage instead, with the same bytes.
  auto c = PeerRig::cfg(/*cache_chunks=*/320);
  c.peer_cache.advertise_budget_bytes = 8 * 4096;
  c.peer_cache.eviction = PeerCacheConfig::Eviction::kRefuseNew;
  PeerRig rig(2, /*clients=*/{1, 1}, /*storage=*/{0}, c);
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    a.sequence(seed);
    b.sequence(seed);
    DeliveryLog la, lb;
    rig.sim.spawn(run_epoch_logged(rig.ds, a, la), "budget-a");
    rig.sim.spawn(run_epoch_logged(rig.ds, b, lb), "budget-b");
    rig.sim.run_watchdog(rig.sim.now() + 30_sec);
    rig.sim.rethrow_failures();
    EXPECT_EQ(la.order.size() + lb.order.size(), PeerRig::kSamples);
    EXPECT_EQ(la.skipped + lb.skipped, 0u);
    EXPECT_TRUE(la.content_ok);
    EXPECT_TRUE(lb.content_ok);
  }
  const std::uint64_t local =
      a.stats().peer_hits_local + b.stats().peer_hits_local;
  EXPECT_GT(local, 0u);
  EXPECT_LE(local, 8u);
}

TEST(PeerCache, RemotePeerPullsOverFabricAfterReshuffle) {
  // Two client nodes, one storage node. Epoch 2's reshuffled share pulls
  // samples the other client cached in epoch 1 out of its DRAM over the
  // fabric (peer-read RPC through the consistent-hash home), instead of
  // re-reading the single NVMe device.
  PeerRig rig(3, /*clients=*/{1, 2}, /*storage=*/{0},
              PeerRig::cfg(/*cache_chunks=*/320));
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);

  a.sequence(1);
  b.sequence(1);
  DeliveryLog a1, b1;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a1), "remote-a-e1");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b1), "remote-b-e1");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  ASSERT_EQ(a1.order.size() + b1.order.size(), PeerRig::kSamples);

  a.sequence(2);
  b.sequence(2);
  DeliveryLog a2, b2;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a2), "remote-a-e2");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b2), "remote-b-e2");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(a2.skipped + b2.skipped, 0u);
  EXPECT_TRUE(a2.content_ok);
  EXPECT_TRUE(b2.content_ok);
  const auto sa = a.stats();
  const auto sb = b.stats();
  // Separate nodes: peer service crosses the fabric, never the local path.
  EXPECT_GT(sa.peer_hits_remote + sb.peer_hits_remote, 0u);
  EXPECT_EQ(sa.peer_hits_local + sb.peer_hits_local, 0u);
  EXPECT_GT(sa.peer_bytes + sb.peer_bytes, 0u);
  // Directory bookkeeping stayed consistent with the caches.
  ASSERT_NE(rig.fleet.peer_directory(), nullptr);
  EXPECT_GT(rig.fleet.peer_directory()->advertised_bytes(1) +
                rig.fleet.peer_directory()->advertised_bytes(2),
            0u);
}

TEST(PeerCache, PinnedPeerServeSurvivesEvictionPressure) {
  // Holder caches smaller than the per-client share, in a huge-page pool
  // barely larger than the cache: every epoch-2 read-ahead needs chunks
  // the full cache holds, so the engine evicts while peer serves are
  // pinned, and a pinned entry must survive the eviction scan until the
  // peer copy lands. scribble_on_free turns any violation (a view read
  // out of a recycled chunk) into 0xDD bytes — the content check would
  // fail loudly.
  auto c = PeerRig::cfg(/*cache_chunks=*/96);  // share is 256 samples
  c.pool_bytes = (96 + 24) * c.chunk_bytes;
  c.scribble_on_free = true;
  PeerRig rig(2, /*clients=*/{1, 1}, /*storage=*/{0}, c);
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);

  a.sequence(1);
  b.sequence(1);
  DeliveryLog a1, b1;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a1), "pressure-a-e1");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b1), "pressure-b-e1");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();

  const std::uint64_t evictions_e1 =
      a.stats().cache_evictions + b.stats().cache_evictions;
  a.sequence(2);
  b.sequence(2);
  DeliveryLog a2, b2;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a2), "pressure-a-e2");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b2), "pressure-b-e2");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(a2.order.size() + b2.order.size(), PeerRig::kSamples);
  EXPECT_EQ(a2.skipped + b2.skipped, 0u);
  // The load-bearing assertions: every delivered byte (peer-served or
  // not) matched the canonical content — no serve read a scribbled chunk.
  EXPECT_TRUE(a2.content_ok);
  EXPECT_TRUE(b2.content_ok);
  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_GT(sa.peer_hits_local + sb.peer_hits_local, 0u);
  // The pool really was under pressure during the peer-serving epoch, so
  // the test cannot silently stop exercising the pin-vs-evict race.
  EXPECT_GT(sa.cache_evictions + sb.cache_evictions, evictions_e1);
}

TEST(PeerCache, WarmEpochsServeEveryFleetResidentSample) {
  // Three clients on separate nodes, each cache about half its epoch
  // share. Every sample is read exactly once per epoch fleet-wide, so a
  // retention policy that keeps its full set serves the whole resident
  // set from DRAM — local hits plus peer hits — in every warm epoch. A
  // recency policy instead lets each epoch's inserts evict entries the
  // reshuffled order had not reached yet.
  PeerRig rig(4, /*clients=*/{1, 2, 3}, /*storage=*/{0},
              PeerRig::cfg(/*cache_chunks=*/80));  // share is ~171 samples
  std::array<dlfs::core::DlfsInstance*, 3> inst{};
  for (std::uint32_t c = 0; c < 3; ++c) inst[c] = &rig.fleet.instance(c);
  auto dram_hits = [&] {
    std::uint64_t n = 0;
    for (auto* i : inst) {
      const auto st = i->stats();
      n += i->cache().hits() + st.peer_hits_local + st.peer_hits_remote;
    }
    return n;
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::uint64_t resident = 0;
    for (std::size_t id = 0; id < PeerRig::kSamples; ++id) {
      bool held = false;
      for (auto* i : inst) held = held || i->cache().valid(id);
      resident += held ? 1 : 0;
    }
    std::uint64_t evictions = 0;
    for (auto* i : inst) evictions += i->stats().cache_evictions;
    const std::uint64_t hits_before = dram_hits();
    std::array<DeliveryLog, 3> logs;
    for (std::uint32_t c = 0; c < 3; ++c) {
      inst[c]->sequence(seed);
      rig.sim.spawn(run_epoch_logged(rig.ds, *inst[c], logs[c]), "fleet");
    }
    rig.sim.run_watchdog(rig.sim.now() + 30_sec);
    rig.sim.rethrow_failures();
    std::size_t delivered = 0;
    for (const auto& l : logs) {
      EXPECT_TRUE(l.content_ok);
      EXPECT_EQ(l.skipped, 0u);
      delivered += l.order.size();
    }
    EXPECT_EQ(delivered, PeerRig::kSamples);
    if (seed == 1) {
      EXPECT_EQ(resident, 0u);  // cold epoch
      continue;
    }
    EXPECT_EQ(resident, 3u * 80u) << "epoch " << seed;
    EXPECT_EQ(dram_hits() - hits_before, resident) << "epoch " << seed;
    std::uint64_t evictions_after = 0;
    for (auto* i : inst) evictions_after += i->stats().cache_evictions;
    EXPECT_EQ(evictions_after, evictions) << "epoch " << seed;
  }
  std::uint64_t declined = 0;
  for (auto* i : inst) declined += i->stats().cache_declined_inserts;
  EXPECT_GT(declined, 0u);
}

TEST(PeerCache, CrashFailoverSkipsExactlyOncePerSample) {
  // Two storage nodes, two remote clients, no replication, peer cache on.
  // A mid-epoch-2 crash of one target makes its samples retry through
  // both the peer route and the (dead) replica-less device route; a
  // sample must land in exactly one bucket — served or skipped — never
  // both. Peer hits can rescue some of the dead node's samples (their
  // bytes live in a peer's DRAM), which is the cooperative cache's
  // availability win; the accounting identity must hold regardless.
  PeerRig rig(4, /*clients=*/{2, 3}, /*storage=*/{0, 1},
              PeerRig::cfg(/*cache_chunks=*/320));
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);

  a.sequence(1);
  b.sequence(1);
  DeliveryLog a1, b1;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a1), "failover-a-e1");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b1), "failover-b-e1");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  ASSERT_EQ(a1.skipped + b1.skipped, 0u);

  ASSERT_NE(rig.fleet.target(0), nullptr);
  rig.fleet.target(0)->crash_at(rig.sim.now() + 500_us);
  a.sequence(2);
  b.sequence(2);
  DeliveryLog a2, b2;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a2), "failover-a-e2");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b2), "failover-b-e2");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  // Exactly-once, conservation form: every sample of the epoch is served
  // once or skipped once (run_epoch_logged asserts the per-batch bound).
  EXPECT_EQ(a2.order.size() + a2.skipped + b2.order.size() + b2.skipped,
            PeerRig::kSamples);
  EXPECT_TRUE(a2.content_ok);
  EXPECT_TRUE(b2.content_ok);
  // The per-instance counter agrees with the per-batch tallies — no
  // double count when a sample unwound through peer and replica routes.
  EXPECT_EQ(a.stats().samples_skipped, a2.skipped);
  EXPECT_EQ(b.stats().samples_skipped, b2.skipped);
}

TEST(PeerCache, DisabledConfigKeepsCountersAtZero) {
  // peer_cache.enabled = false must leave the read path untouched: no
  // directory, all peer counters pinned at zero.
  auto c = PeerRig::cfg(/*cache_chunks=*/320);
  c.peer_cache.enabled = false;
  PeerRig rig(2, /*clients=*/{1, 1}, /*storage=*/{0}, c);
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    a.sequence(seed);
    b.sequence(seed);
    DeliveryLog la, lb;
    rig.sim.spawn(run_epoch_logged(rig.ds, a, la), "disabled-a");
    rig.sim.spawn(run_epoch_logged(rig.ds, b, lb), "disabled-b");
    rig.sim.run_watchdog(rig.sim.now() + 30_sec);
    rig.sim.rethrow_failures();
    EXPECT_TRUE(la.content_ok);
    EXPECT_TRUE(lb.content_ok);
  }
  EXPECT_EQ(rig.fleet.peer_directory(), nullptr);
  for (auto* inst : {&a, &b}) {
    const auto s = inst->stats();
    EXPECT_EQ(s.peer_hits_local, 0u);
    EXPECT_EQ(s.peer_hits_remote, 0u);
    EXPECT_EQ(s.peer_misses, 0u);
    EXPECT_EQ(s.peer_bytes, 0u);
  }
}

}  // namespace
