// Tests for the asynchronous epoch-aware prefetcher: warm-window breads
// must not stall (chunk and sample-level alike), the adaptive window must
// shrink under pool pressure, epoch end must drain every pool chunk, the
// record-file streaming order must warm open_file() reads (and end the
// sample epoch), co-located instances must each read ahead within their
// own pool, the synchronous mode must issue nothing beyond each bread's
// own units, and turning the daemon on or off must never change what an
// epoch delivers — only when. The PrefetcherMatrix
// suite is mode-agnostic: the ctest registration runs it once per
// BatchingMode via DLFS_TEST_BATCHING.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dataset/record_file.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/simulator.hpp"

namespace {

using dlfs::cluster::Cluster;
using dlfs::cluster::NodeConfig;
using dlfs::cluster::Pfs;
using dlfs::core::BatchingMode;
using dlfs::core::DlfsConfig;
using dlfs::core::DlfsFleet;
using dlfs::core::DlfsInstance;
using dlfs::dataset::Dataset;
using dlsim::CpuCore;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

struct Rig {
  Simulator sim;
  Cluster cluster;
  Dataset ds;
  Pfs pfs;
  DlfsFleet fleet;

  Rig(Dataset dataset, DlfsConfig cfg, std::uint32_t nodes = 1,
      std::vector<dlfs::hw::NodeId> client_nodes = {},
      std::vector<dlfs::hw::NodeId> storage_nodes = {})
      : cluster(sim, nodes, make_node_config()),
        ds(std::move(dataset)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, cfg, std::move(client_nodes),
              std::move(storage_nodes)) {}

  static NodeConfig make_node_config() {
    NodeConfig nc;
    nc.synthetic_store = false;
    nc.device_capacity = 1_GiB;
    return nc;
  }

  void mount() {
    fleet.mount();
    ASSERT_TRUE(fleet.mounted());
  }
};

DlfsConfig chunk_cfg() {
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  return cfg;
}

DlfsConfig sample_cfg() {
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kSampleLevel;
  return cfg;
}

/// The ctest matrix registers the PrefetcherMatrix suite once per
/// BatchingMode through this environment variable; unset means chunk.
BatchingMode mode_from_env() {
  const char* v = std::getenv("DLFS_TEST_BATCHING");
  if (v == nullptr) return BatchingMode::kChunkLevel;
  const std::string s(v);
  if (s == "none") return BatchingMode::kNone;
  if (s == "sample") return BatchingMode::kSampleLevel;
  return BatchingMode::kChunkLevel;
}

/// Drains a whole epoch with bread(batch) and returns delivered ids.
std::vector<std::uint32_t> drain_epoch(Rig& rig, DlfsInstance& inst,
                                       std::size_t batch,
                                       bool check_content = false) {
  std::vector<std::uint32_t> ids;
  rig.sim.spawn([](Rig& r, DlfsInstance& inst, std::size_t batch,
                   bool check, std::vector<std::uint32_t>& out)
                    -> Task<void> {
    std::vector<std::byte> arena(batch * r.ds.max_sample_bytes());
    for (;;) {
      auto b = co_await inst.bread(batch, arena);
      if (b.end_of_epoch) break;
      for (const auto& s : b.samples) {
        out.push_back(s.sample_id);
        if (check) {
          std::vector<std::byte> want(s.len);
          r.ds.fill_content(s.sample_id, 0, want);
          EXPECT_EQ(std::memcmp(arena.data() + s.offset_in_arena,
                                want.data(), want.size()),
                    0);
        }
      }
    }
  }(rig, inst, batch, check_content, ids));
  rig.sim.run();
  rig.sim.rethrow_failures();
  return ids;
}

// ---------------------------------------------------------------------------

TEST(Prefetcher, WarmWindowBreadDoesNotStall) {
  // A window deep enough to cover the next batch, plus idle time for the
  // daemon to land it: the second bread must find every unit resident and
  // accumulate zero additional stall time.
  auto cfg = chunk_cfg();
  cfg.prefetch.initial_units = 16;
  cfg.prefetch.max_units = 16;
  // 128 KiB samples, 256 KiB chunks: one bread of 8 spans 4 read units.
  Rig rig(dlfs::dataset::make_fixed_size_dataset(128, 128_KiB), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(7);

  dlfs::core::PrefetchStats warm{};
  dlfs::core::PrefetchStats after{};
  rig.sim.spawn([](Rig& r, DlfsInstance& inst,
                   dlfs::core::PrefetchStats& warm,
                   dlfs::core::PrefetchStats& after) -> Task<void> {
    CpuCore train(r.sim, "train");
    std::vector<std::byte> arena(8 * 128_KiB);
    (void)co_await inst.bread(8, arena);  // cold: stalls are expected
    co_await train.compute(10_ms);        // daemon fills the window
    warm = inst.stats().prefetch;
    (void)co_await inst.bread(8, arena);  // warm: everything resident
    after = inst.stats().prefetch;
  }(rig, inst, warm, after));
  rig.sim.run();
  rig.sim.rethrow_failures();

  EXPECT_EQ(after.stall_ns, warm.stall_ns);
  EXPECT_EQ(after.units_stalled, warm.units_stalled);
  EXPECT_GT(after.units_resident_at_pick, warm.units_resident_at_pick);
}

TEST(Prefetcher, SampleLevelWarmWindowBreadDoesNotStall) {
  // Same zero-stall contract on the sample-level path: units are fused
  // groups of per-sample extents, and a warm window means bread finds the
  // whole next group resident.
  auto cfg = sample_cfg();
  cfg.prefetch.initial_units = 16;
  cfg.prefetch.max_units = 16;
  cfg.prefetch.group_samples = 8;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(256, 4096), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(7);

  dlfs::core::PrefetchStats warm{};
  dlfs::core::PrefetchStats after{};
  rig.sim.spawn([](Rig& r, DlfsInstance& inst,
                   dlfs::core::PrefetchStats& warm,
                   dlfs::core::PrefetchStats& after) -> Task<void> {
    CpuCore train(r.sim, "train");
    std::vector<std::byte> arena(8 * 4096);
    (void)co_await inst.bread(8, arena);  // cold: consumes exactly unit 0
    co_await train.compute(10_ms);        // daemon lands units 1..16
    warm = inst.stats().prefetch;
    (void)co_await inst.bread(8, arena);  // warm: unit 1 fully resident
    after = inst.stats().prefetch;
  }(rig, inst, warm, after));
  rig.sim.run();
  rig.sim.rethrow_failures();

  EXPECT_EQ(after.stall_ns, warm.stall_ns);
  EXPECT_EQ(after.units_stalled, warm.units_stalled);
  EXPECT_GT(after.units_resident_at_pick, warm.units_resident_at_pick);
}

TEST(Prefetcher, WindowShrinksUnderPoolPressure) {
  // A pool far smaller than the requested window: top_up must give way
  // (shrink) instead of starving demand fetches, and the epoch must still
  // deliver every sample.
  auto cfg = chunk_cfg();
  cfg.prefetch.initial_units = 32;
  cfg.prefetch.max_units = 32;
  cfg.pool_bytes = 16ull * 256 * 1024;  // 16 chunks for a 32-unit ask
  Rig rig(dlfs::dataset::make_fixed_size_dataset(256, 128_KiB), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(7);
  const auto ids = drain_epoch(rig, inst, 8);
  EXPECT_EQ(ids.size(), 256u);
  const auto s = inst.stats().prefetch;
  EXPECT_GE(s.window_shrinks + s.units_dropped, 1u);
  EXPECT_LT(s.window_target, 32u);
}

TEST(Prefetcher, EpochEndDrainsPoolAndNextEpochWorks) {
  // Read-ahead never outlives its epoch: after the last bread every pool
  // chunk is back on the free list, and a fresh sequence starts clean.
  auto cfg = chunk_cfg();
  cfg.prefetch.initial_units = 8;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(128, 128_KiB), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);

  inst.sequence(1);
  EXPECT_EQ(drain_epoch(rig, inst, 8).size(), 128u);
  EXPECT_EQ(inst.pool().used_chunks(), 0u);

  inst.sequence(2);
  EXPECT_EQ(drain_epoch(rig, inst, 8).size(), 128u);
  EXPECT_EQ(inst.pool().used_chunks(), 0u);
}

TEST(Prefetcher, DeliveryIdenticalWithChunkEdgeSamples) {
  // Samples spanning chunk boundaries (edge units): same seed, same batch
  // size, same delivered order and bytes whether read-ahead is async or
  // synchronous.
  auto run = [](bool async) {
    auto cfg = chunk_cfg();
    cfg.prefetch.enabled = async;
    cfg.prefetch.initial_units = 8;
    Rig rig(dlfs::dataset::make_fixed_size_dataset(192, 128_KiB), cfg);
    rig.mount();
    auto& inst = rig.fleet.instance(0);
    inst.sequence(42);
    return drain_epoch(rig, inst, 8, /*check_content=*/true);
  };
  const auto with_prefetcher = run(true);
  const auto without = run(false);
  EXPECT_EQ(with_prefetcher.size(), 192u);
  EXPECT_EQ(with_prefetcher, without);
}

TEST(Prefetcher, RecordFileSequenceWarmsWholeFileReads) {
  // sequence_files() re-targets the daemon at whole record files; reads
  // that follow the returned order find their file already resident, and
  // the bytes delivered are byte-identical to the prefetch-off path
  // (every record's CRC validates either way).
  auto run = [](bool async, std::vector<std::vector<std::byte>>& files,
                dlfs::core::PrefetchStats& stats) {
    DlfsConfig cfg;
    cfg.record_file_samples = 8;
    cfg.prefetch.enabled = async;
    Rig rig(dlfs::dataset::make_fixed_size_dataset(64, 2048), cfg);
    rig.mount();
    auto& inst = rig.fleet.instance(0);
    const auto& order = inst.sequence_files(5);
    ASSERT_EQ(order.size(), 8u);
    rig.sim.spawn([](Rig& r, DlfsInstance& inst,
                     const std::vector<std::string>* order,
                     std::vector<std::vector<std::byte>>* out) -> Task<void> {
      CpuCore train(r.sim, "train");
      for (const auto& name : *order) {
        auto h = co_await inst.open_file(name);
        std::vector<std::byte> buf(h.entry->len());
        co_await inst.read(h, buf);
        dlfs::dataset::RecordFileReader reader(buf);
        auto index = reader.scan();  // validates structure + every CRC
        EXPECT_TRUE(index.has_value());
        out->push_back(std::move(buf));
        co_await train.compute(2_ms);  // daemon pulls the next files in
      }
    }(rig, inst, &order, &files));
    rig.sim.run();
    rig.sim.rethrow_failures();
    stats = inst.stats().prefetch;
  };
  std::vector<std::vector<std::byte>> warm_files, cold_files;
  dlfs::core::PrefetchStats warm{}, cold{};
  run(true, warm_files, warm);
  run(false, cold_files, cold);
  EXPECT_EQ(warm_files, cold_files);
  EXPECT_GE(warm.units_issued, 8u);
  // Everything after the first file had idle time to land.
  EXPECT_GE(warm.units_resident_at_pick, 1u);
  EXPECT_EQ(cold.units_issued, 0u);
}

TEST(Prefetcher, SequenceFilesEndsTheSampleEpoch) {
  // sequence_files() moves the prefetcher to the record files, so the
  // sample epoch it abandons is over: bread and bread_views throw until a
  // fresh sequence(), which then delivers a whole epoch with exact bytes.
  DlfsConfig cfg;
  cfg.record_file_samples = 8;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(64, 2048), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(3);
  (void)inst.sequence_files(5);
  EXPECT_EQ(inst.epoch_remaining(), 0u);
  bool bread_threw = false, views_threw = false;
  rig.sim.spawn([](DlfsInstance& inst, bool& bread_threw,
                   bool& views_threw) -> Task<void> {
    std::vector<std::byte> arena(8 * 2048);
    try {
      (void)co_await inst.bread(8, arena);
    } catch (const std::logic_error&) {
      bread_threw = true;
    }
    try {
      (void)co_await inst.bread_views(8);
    } catch (const std::logic_error&) {
      views_threw = true;
    }
  }(inst, bread_threw, views_threw));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_TRUE(bread_threw);
  EXPECT_TRUE(views_threw);

  inst.sequence(4);
  const auto ids = drain_epoch(rig, inst, 8, /*check_content=*/true);
  EXPECT_EQ(ids.size(), 64u);
  EXPECT_EQ(std::set<std::uint32_t>(ids.begin(), ids.end()).size(), 64u);
}

TEST(Prefetcher, CoLocatedReadAheadBoundedByOwnPool) {
  // Two instances on one node, each asking for a 16-unit window out of
  // its own 16-chunk pool: each window shrinks to what its pool holds
  // beyond the reserve, no allocation runs the pool dry, and each
  // instance delivers its whole share of the epoch exactly once.
  auto cfg = chunk_cfg();
  cfg.prefetch.initial_units = 16;
  cfg.prefetch.max_units = 32;
  cfg.pool_bytes = 16ull * 256 * 1024;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(256, 128_KiB), cfg,
          /*nodes=*/1, /*client_nodes=*/{0, 0}, /*storage_nodes=*/{0});
  rig.mount();

  std::vector<std::uint32_t> got[2];
  std::size_t share[2] = {};
  for (std::uint32_t c = 0; c < 2; ++c) {
    rig.fleet.instance(c).sequence(9);
    share[c] = rig.fleet.instance(c).epoch_remaining();
  }
  for (std::uint32_t c = 0; c < 2; ++c) {
    rig.sim.spawn([](DlfsInstance& inst,
                     std::vector<std::uint32_t>& out) -> Task<void> {
      std::vector<std::byte> arena(8 * 128_KiB);
      for (;;) {
        auto b = co_await inst.bread(8, arena);
        if (b.end_of_epoch) break;
        for (const auto& s : b.samples) out.push_back(s.sample_id);
      }
    }(rig.fleet.instance(c), got[c]));
  }
  rig.sim.run();
  EXPECT_NO_THROW(rig.sim.rethrow_failures());
  EXPECT_EQ(share[0] + share[1], 256u);
  std::set<std::uint32_t> all;
  for (std::uint32_t c = 0; c < 2; ++c) {
    EXPECT_EQ(got[c].size(), share[c]);
    all.insert(got[c].begin(), got[c].end());
    const auto s = rig.fleet.instance(c).stats().prefetch;
    EXPECT_GE(s.window_shrinks, 1u);
    EXPECT_LT(s.window_target, 16u);
  }
  EXPECT_EQ(all.size(), 256u);
}

TEST(Prefetcher, SampleLevelDegradedEpochSkipsThenReissuesAfterRecovery) {
  // kSampleLevel over NVMe-oF: a storage node crashes mid-epoch, the
  // epoch completes degraded (every sample either served or skipped, the
  // prefetcher's stored node-fault errors routed to skips, never fatal).
  // After recovery, the epoch boundary reprobes the node and read-ahead
  // issued while it was down is reissued instead of surfacing stale
  // errors — the second epoch is served in full.
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kSampleLevel;
  cfg.fault.nvmf.command_timeout = 5_ms;
  cfg.fault.nvmf.reconnect_backoff = 200_us;
  cfg.fault.nvmf.reconnect_backoff_max = 1_ms;
  cfg.fault.nvmf.reconnect_attempts = 4;
  constexpr std::size_t kSamples = 2048;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(kSamples, 4096), cfg,
          /*nodes=*/3, /*client_nodes=*/{2}, /*storage_nodes=*/{0, 1});
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  const dlsim::SimTime t0 = rig.sim.now();
  rig.fleet.target(0)->crash_at(t0 + 500_us);
  rig.fleet.target(0)->recover_at(t0 + 50_ms);

  std::size_t served1 = 0, served2 = 0;
  std::uint64_t skipped1 = 0, skipped2 = 0;
  rig.sim.spawn(
      [](Rig& r, DlfsInstance& inst, std::size_t* served1,
         std::uint64_t* skipped1, std::size_t* served2,
         std::uint64_t* skipped2, dlsim::SimTime resume_at) -> Task<void> {
        std::vector<std::byte> arena(64_KiB);
        inst.sequence(1);
        for (;;) {
          auto b = co_await inst.bread(16, arena);
          if (b.end_of_epoch) break;
          *served1 += b.samples.size();
          *skipped1 += b.samples_skipped;
        }
        if (r.sim.now() < resume_at) {
          co_await r.sim.delay(resume_at - r.sim.now());
        }
        inst.sequence(2);
        // Give the daemon idle time to issue read-ahead before the first
        // bread reprobes — that read-ahead carries baked-in failures if
        // the reconnect has not happened yet, and must be reissued.
        CpuCore train(r.sim, "train");
        co_await train.compute(1_ms);
        for (;;) {
          auto b = co_await inst.bread(16, arena);
          if (b.end_of_epoch) break;
          *served2 += b.samples.size();
          *skipped2 += b.samples_skipped;
        }
      }(rig, inst, &served1, &skipped1, &served2, &skipped2, t0 + 51_ms),
      "sample-level-degraded-epochs");
  rig.sim.run_watchdog(t0 + 2_sec);
  rig.sim.rethrow_failures();

  EXPECT_GT(served1, 0u);
  EXPECT_GT(skipped1, 0u);
  EXPECT_EQ(served1 + skipped1, kSamples);
  EXPECT_EQ(served2, kSamples);
  EXPECT_EQ(skipped2, 0u);
  EXPECT_EQ(inst.stats().samples_skipped, skipped1);
  EXPECT_GE(inst.engine().transport_stats().reconnects, 1u);
  EXPECT_EQ(inst.engine().nodes_down(), 0u);
}

// ---------------------------------------------------------------------------
// Mode-agnostic matrix: ctest registers this suite once per BatchingMode
// (DLFS_TEST_BATCHING = none | sample | chunk).

TEST(PrefetcherMatrix, DeliveryIsIdenticalWithPrefetchOnAndOff) {
  // The prefetcher changes timing only: same seed, same batch size, same
  // delivered order and bytes whether read-ahead is asynchronous or the
  // legacy synchronous path, for whichever BatchingMode the environment
  // selected.
  const BatchingMode mode = mode_from_env();
  auto run = [mode](bool async) {
    DlfsConfig cfg;
    cfg.batching = mode;
    cfg.prefetch.enabled = async;
    cfg.prefetch.initial_units = 8;
    Rig rig(dlfs::dataset::make_fixed_size_dataset(192, 4096), cfg);
    rig.mount();
    auto& inst = rig.fleet.instance(0);
    inst.sequence(42);
    return drain_epoch(rig, inst, 8, /*check_content=*/true);
  };
  const auto with_prefetcher = run(true);
  const auto without = run(false);
  EXPECT_EQ(with_prefetcher.size(), 192u);
  EXPECT_EQ(with_prefetcher, without);
}

TEST(PrefetcherMatrix, SynchronousModeIssuesOnlyEachBreadsUnits) {
  // prefetch.enabled = false takes the daemon out: the window never tops
  // up between breads. After every bread the units issued are exactly the
  // ones the epoch has consumed so far (one-sample units in the sample
  // modes) — plus, in chunk mode, at most initial_units of the bread's
  // own read-ahead.
  const BatchingMode mode = mode_from_env();
  DlfsConfig cfg;
  cfg.batching = mode;
  cfg.prefetch.enabled = false;
  cfg.prefetch.initial_units = 3;
  // 64 KiB samples: four per chunk, so a bread of 8 spans two chunks.
  Rig rig(dlfs::dataset::make_fixed_size_dataset(192, 64_KiB), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(42);
  std::vector<std::uint64_t> issued;  // units_issued after each bread
  std::size_t delivered = 0;
  rig.sim.spawn(
      [](DlfsInstance& inst, std::vector<std::uint64_t>& issued,
         std::size_t& delivered) -> Task<void> {
        std::vector<std::byte> arena(8 * 64_KiB);
        for (;;) {
          auto b = co_await inst.bread(8, arena);
          if (b.end_of_epoch) break;
          delivered += b.samples.size();
          issued.push_back(inst.stats().prefetch.units_issued);
        }
      }(inst, issued, delivered));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(delivered, 192u);

  // The same walk through the epoch tells which unit each bread ended in.
  dlfs::core::EpochSequence shadow(rig.fleet.plan(), 42, 0, 1);
  const std::size_t units = shadow.num_units();
  ASSERT_EQ(issued.size(), 192u / 8);
  for (std::size_t i = 0; i < issued.size(); ++i) {
    const std::size_t through = shadow.take(8).back().unit_slot + 1;
    if (mode == BatchingMode::kChunkLevel) {
      EXPECT_GE(issued[i], through) << "bread " << i;
      EXPECT_LE(issued[i], std::min(through + 3, units)) << "bread " << i;
    } else {
      EXPECT_EQ(issued[i], through) << "bread " << i;
    }
  }
  EXPECT_EQ(inst.stats().prefetch.window_grows, 0u);
}

TEST(PrefetcherMatrix, BackToBackEpochsDeliverEverySample) {
  // Two epochs through one instance: the second epoch re-targets the
  // daemon (and, in the sample modes, elides cache-resident extents at
  // issue time) yet still delivers every sample with exact content. A
  // batch of 5 does not divide group_samples (8), so in the sample modes
  // fused read units span breads. Once an epoch is drained no acquired
  // unit may outlive it: the only pool chunks still in use are the
  // sample cache's, and no view pins remain.
  for (const std::size_t batch : {std::size_t{8}, std::size_t{5}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    DlfsConfig cfg;
    cfg.batching = mode_from_env();
    Rig rig(dlfs::dataset::make_fixed_size_dataset(192, 4096), cfg);
    rig.mount();
    auto& inst = rig.fleet.instance(0);
    for (const std::uint64_t seed : {1u, 2u}) {
      inst.sequence(seed);
      EXPECT_EQ(drain_epoch(rig, inst, batch, /*check_content=*/true).size(),
                192u);
      EXPECT_EQ(inst.pool().used_chunks(), inst.cache().resident_chunks())
          << "epoch " << seed;
      EXPECT_EQ(inst.stats().view_pins_active, 0u) << "epoch " << seed;
    }
    EXPECT_EQ(inst.stats().samples_delivered, 384u);
  }
}

}  // namespace
