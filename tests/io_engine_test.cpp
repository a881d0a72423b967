// Direct unit tests for the DLFS I/O engine: request splitting at chunk
// granularity, huge-page pool backpressure, multi-target batches,
// queue-depth pipelining, SCQ copy threads, cache interaction, busy-poll
// idling (exact virtual time and CPU over NVMe-oF), and parameterized
// sweeps over (sample size x chunk size).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <tuple>

#include "common/units.hpp"
#include "dlfs/io_engine.hpp"
#include "dlfs/qos.hpp"
#include "hw/net/fabric.hpp"
#include "hw/nvme/backing_store.hpp"
#include "hw/nvme/nvme_device.hpp"
#include "mem/hugepage_pool.hpp"
#include "sim/simulator.hpp"
#include "spdk/nvme_driver.hpp"
#include "spdk/nvmf.hpp"

namespace {

using dlfs::core::ExtentOpPtr;
using dlfs::core::IoEngine;
using dlfs::core::IoError;
using dlfs::core::TenantGovernor;
using dlfs::core::TenantQos;
using dlfs::core::IoEngineConfig;
using dlfs::core::ReadExtent;
using dlfs::core::SampleCache;
using dlfs::hw::Fabric;
using dlfs::hw::NvmeDevice;
using dlfs::hw::SyntheticBackingStore;
using dlfs::mem::HugePagePool;
using dlfs::spdk::IoQueue;
using dlfs::spdk::NvmfFaultParams;
using dlfs::spdk::NvmfTarget;
using dlsim::CpuCore;
using dlsim::SimTime;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

struct EngineRig {
  Simulator sim;
  HugePagePool pool;
  SampleCache cache;
  std::vector<std::unique_ptr<NvmeDevice>> devices;
  std::unique_ptr<dlfs::spdk::NvmeDriver> driver;
  std::unique_ptr<IoEngine> engine;
  CpuCore core{sim, "io"};

  explicit EngineRig(IoEngineConfig cfg = IoEngineConfig{},
                     std::size_t num_devices = 1,
                     std::size_t pool_chunks = 64,
                     std::uint32_t queue_depth = 0)
      : pool(pool_chunks * cfg.chunk_bytes, cfg.chunk_bytes),
        cache(pool, 16, 1000) {
    driver = std::make_unique<dlfs::spdk::NvmeDriver>(sim, pool);
    engine = std::make_unique<IoEngine>(sim, pool, cache,
                                        dlfs::default_calibration(), cfg);
    for (std::size_t d = 0; d < num_devices; ++d) {
      devices.push_back(std::make_unique<NvmeDevice>(
          sim, "nvme" + std::to_string(d),
          std::make_unique<SyntheticBackingStore>(1_GiB, 100 + d)));
      driver->attach(*devices.back());
      engine->attach_target(static_cast<std::uint16_t>(d),
                            driver->create_io_queue(*devices.back(),
                                                    queue_depth));
    }
  }

  /// Starts every extent, then awaits each in order (the pump serves
  /// them all), rethrowing the first extent error. Returns the ops.
  std::vector<ExtentOpPtr> read(std::vector<ReadExtent> extents) {
    std::vector<ExtentOpPtr> ops;
    for (ReadExtent& x : extents) {
      ops.push_back(engine->start_extent(std::move(x)));
    }
    sim.spawn([](IoEngine& e, CpuCore& c,
                 std::vector<ExtentOpPtr> ops) -> Task<void> {
      for (const ExtentOpPtr& op : ops) {
        co_await e.await_op(c, op);
        if (op->error()) std::rethrow_exception(op->error());
      }
    }(*engine, core, ops));
    sim.run();
    sim.rethrow_failures();
    return ops;
  }
};

TEST(IoEngine, SingleExtentCopiesExactBytes) {
  EngineRig rig;
  std::vector<std::byte> dst(10000), want(10000);
  rig.devices[0]->store().read(4096, want);
  rig.read({ReadExtent{0, 4096, 10000, dst.data()}});
  EXPECT_EQ(std::memcmp(dst.data(), want.data(), want.size()), 0);
}

TEST(IoEngine, BorrowedDmaTargetLandsInPlaceWithoutChunkOrCopy) {
  // Three extents post straight into spans of one caller-owned chunk: no
  // chunk is allocated for them, nothing is copied, and each extent's
  // bytes sit at its offset in that chunk.
  EngineRig rig;
  auto landing = rig.pool.allocate();
  const std::uint32_t offs[] = {0, 5000, 70000};
  std::vector<ReadExtent> xs;
  for (const std::uint32_t o : offs) {
    ReadExtent x{0, 1_MiB + o, 3000, nullptr};
    x.dma_target = landing.span().subspan(o);
    xs.push_back(std::move(x));
  }
  rig.read(std::move(xs));
  EXPECT_EQ(rig.pool.used_chunks(), 1u);
  EXPECT_EQ(rig.pool.peak_used_chunks(), 1u);
  EXPECT_EQ(rig.engine->bytes_copied(), 0u);
  std::vector<std::byte> want(3000);
  for (const std::uint32_t o : offs) {
    rig.devices[0]->store().read(1_MiB + o, want);
    EXPECT_EQ(std::memcmp(landing.data() + o, want.data(), want.size()), 0)
        << "extent at " << o;
  }
}

TEST(IoEngine, LargeExtentSplitsIntoChunkRequests) {
  EngineRig rig;
  std::vector<std::byte> dst(1_MiB);
  rig.read({ReadExtent{0, 0, 1_MiB, dst.data()}});
  // 1 MiB at 256 KiB chunks = 4 requests.
  EXPECT_EQ(rig.engine->requests_posted(), 4u);
  EXPECT_EQ(rig.engine->completions_harvested(), 4u);
  EXPECT_EQ(rig.engine->bytes_copied(), 1_MiB);
}

TEST(IoEngine, PoolBackpressureStillCompletes) {
  // 12 extents of one chunk each with only 2 pool chunks: posting must
  // stall on the pool and recycle buffers as copies finish.
  IoEngineConfig cfg;
  EngineRig rig(cfg, 1, /*pool_chunks=*/2);
  std::vector<std::vector<std::byte>> dsts(12,
                                           std::vector<std::byte>(64_KiB));
  std::vector<ReadExtent> xs;
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    xs.push_back(ReadExtent{0, i * 64_KiB, 64_KiB, dsts[i].data()});
  }
  rig.read(std::move(xs));
  EXPECT_EQ(rig.engine->bytes_copied(), 12 * 64_KiB);
  EXPECT_EQ(rig.pool.used_chunks(), 0u);  // everything returned
}

TEST(IoEngine, CacheYieldsChunksUnderPoolPressure) {
  // A cache big enough to absorb the whole pool must yield entries
  // (SampleCache::evict_one) when new reads need DMA chunks (regression
  // test for a livelock where the posting loop waited forever on a pool
  // the cache had swallowed).
  IoEngineConfig cfg;
  EngineRig rig(cfg, 1, /*pool_chunks=*/4);
  // rig.cache capacity is 16 chunks > 4 pool chunks.
  std::vector<std::byte> dst(4096);
  for (std::size_t id = 0; id < 10; ++id) {
    rig.sim.spawn([](IoEngine& e, CpuCore& c, std::byte* d,
                     std::size_t id) -> Task<void> {
      co_await e.read_one(c, 0, id * 4096, 4096, d, id);
    }(*rig.engine, rig.core, dst.data(), id));
    rig.sim.run();
    rig.sim.rethrow_failures();
  }
  // All ten reads completed; the cache holds at most what the pool allows.
  EXPECT_LE(rig.cache.resident_chunks(), 4u);
  EXPECT_GT(rig.cache.resident_samples(), 0u);
}

TEST(IoEngine, MultiTargetBatchReadsInParallel) {
  EngineRig rig(IoEngineConfig{}, /*num_devices=*/4);
  std::vector<std::vector<std::byte>> dsts(4, std::vector<std::byte>(128_KiB));
  std::vector<ReadExtent> xs;
  for (std::uint16_t d = 0; d < 4; ++d) {
    xs.push_back(ReadExtent{d, 0, 128_KiB, dsts[d].data()});
  }
  const auto t0 = rig.sim.now();
  rig.read(std::move(xs));
  const auto elapsed = rig.sim.now() - t0;
  // Four devices in parallel: roughly one device's 128 KiB time (~62us)
  // plus copy; far below 4x serial.
  EXPECT_LT(elapsed, 150_us);
  for (std::uint16_t d = 0; d < 4; ++d) {
    EXPECT_EQ(rig.devices[d]->bytes_read(), 128_KiB);
  }
}

TEST(IoEngine, QueueDepthPipelinesOneTarget) {
  EngineRig rig;
  constexpr std::size_t kN = 32;
  std::vector<std::vector<std::byte>> dsts(kN, std::vector<std::byte>(4096));
  std::vector<ReadExtent> xs;
  for (std::size_t i = 0; i < kN; ++i) {
    xs.push_back(ReadExtent{0, i * 4096, 4096, dsts[i].data()});
  }
  const auto t0 = rig.sim.now();
  rig.read(std::move(xs));
  const auto elapsed = rig.sim.now() - t0;
  // Pipelined 4 KiB commands: ~1.8us occupancy each + one latency tail,
  // not 32 sequential 11.8us round trips (~380us).
  EXPECT_LT(elapsed, 120_us);
}

TEST(IoEngine, FullQueueDoesNotHoldBackOtherTargets) {
  // Two targets at queue depth 1. Target 0's second piece waits for a
  // slot; target 1's piece, queued behind it, must post meanwhile instead
  // of waiting for target 0's first read to complete.
  const auto solo = [] {
    EngineRig rig(IoEngineConfig{}, 2, 64, /*queue_depth=*/1);
    const auto t0 = rig.sim.now();
    rig.read({ReadExtent{1, 0, 128_KiB, nullptr}});
    return rig.sim.now() - t0;
  }();
  EngineRig rig(IoEngineConfig{}, 2, 64, /*queue_depth=*/1);
  std::vector<ExtentOpPtr> ops;
  ops.push_back(rig.engine->start_extent(ReadExtent{0, 0, 128_KiB, nullptr}));
  ops.push_back(
      rig.engine->start_extent(ReadExtent{0, 128_KiB, 128_KiB, nullptr}));
  ops.push_back(rig.engine->start_extent(ReadExtent{1, 0, 128_KiB, nullptr}));
  dlsim::SimTime second_target_done = 0;
  rig.sim.spawn(
      [](EngineRig& r, ExtentOpPtr op, dlsim::SimTime& done) -> Task<void> {
        co_await r.engine->await_op(r.core, op);
        done = r.sim.now();
      }(rig, ops[2], second_target_done),
      "second-target");
  rig.sim.run();
  rig.sim.rethrow_failures();
  for (const auto& op : ops) EXPECT_EQ(op->error(), nullptr);
  // In parallel with target 0's first read, not after it: about one read
  // plus a post, far from two reads in a row.
  EXPECT_LT(second_target_done, solo + solo / 2);
}

TEST(IoEngine, BuffersHandedOverWhenDstIsNull) {
  EngineRig rig;
  const auto ops = rig.read({ReadExtent{0, 0, 600 * 1024, nullptr}});
  const std::vector<dlfs::mem::DmaBuffer> buffers = ops[0]->take_buffers();
  ASSERT_EQ(buffers.size(), 3u);  // ceil(600K / 256K)
  std::vector<std::byte> want(256_KiB);
  rig.devices[0]->store().read(0, want);
  EXPECT_EQ(std::memcmp(buffers[0].data(), want.data(), want.size()), 0);
}

TEST(IoEngine, CacheInsertionSetsVBit) {
  EngineRig rig;
  std::vector<std::byte> dst(4096);
  rig.read({ReadExtent{0, 0, 4096, dst.data(), /*cache_sample_id=*/7}});
  EXPECT_TRUE(rig.cache.valid(7));
  auto views = rig.cache.pin(7);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].size(), 4096u);
  rig.cache.unpin(7);
}

TEST(IoEngine, CopyThreadsAccrueBusyTime) {
  IoEngineConfig cfg;
  cfg.copy_threads = 2;
  EngineRig rig(cfg);
  std::vector<std::byte> dst(1_MiB);
  rig.read({ReadExtent{0, 0, 1_MiB, dst.data()}});
  // 1 MiB at 8 GB/s ~= 131us of copy time across the pool.
  EXPECT_GT(rig.engine->copy_busy_ns(), 100_us);
}

TEST(IoEngine, InlineCopyChargesCallerCore) {
  IoEngineConfig cfg;
  cfg.copy_threads = 0;
  EngineRig rig(cfg);
  std::vector<std::byte> dst(1_MiB);
  const auto busy0 = rig.core.busy_ns();
  rig.read({ReadExtent{0, 0, 1_MiB, dst.data()}});
  EXPECT_GT(rig.core.busy_ns() - busy0, 100_us);
  EXPECT_EQ(rig.engine->copy_busy_ns(), 0u);
}

TEST(IoEngine, UnknownTargetThrows) {
  EngineRig rig;
  std::vector<std::byte> dst(512);
  auto p = rig.sim.spawn([](IoEngine& e, CpuCore& c,
                            std::byte* d) -> Task<void> {
    co_await e.read_one(c, 9, 0, 512, d);
  }(*rig.engine, rig.core, dst.data()));
  rig.sim.run(/*allow_blocked=*/true);
  EXPECT_TRUE(p.failed());
}

// ---------------------------------------------------------------------------
// Busy-poll idling. A pumper with nothing to harvest is charged for its
// spin but resumes only at the look the spin would have reached first
// after a state change; virtual time and busy ns must equal the spin's.
// The exact values below are the ones the 500 ns spin loop produced.

/// Forwards to a real queue and records when commands were submitted and
/// when poll() handed completions back.
class RecordingQueue final : public IoQueue {
 public:
  RecordingQueue(Simulator& sim, std::unique_ptr<IoQueue> inner)
      : sim_(&sim), inner_(std::move(inner)) {}

  dlfs::spdk::IoStatus submit(dlfs::spdk::IoOp op, std::uint64_t offset,
                              std::span<std::byte> buf,
                              std::uint64_t user_tag) override {
    submits.push_back(sim_->now());
    return inner_->submit(op, offset, buf, user_tag);
  }
  std::vector<dlfs::spdk::IoCompletion> poll(std::size_t max) override {
    auto out = inner_->poll(max);
    harvests.insert(harvests.end(), out.size(), sim_->now());
    return out;
  }
  Task<void> wait_for_completion() override {
    return inner_->wait_for_completion();
  }
  std::uint32_t outstanding() const override { return inner_->outstanding(); }
  std::uint32_t depth() const override { return inner_->depth(); }
  std::optional<SimTime> next_completion_at() const override {
    return inner_->next_completion_at();
  }
  std::optional<SimTime> next_timeout_at() const override {
    return inner_->next_timeout_at();
  }
  void set_doorbell(dlsim::Doorbell* bell,
                    dlsim::Doorbell::Lines lines) override {
    inner_->set_doorbell(bell, lines);
  }

  std::vector<SimTime> submits;
  std::vector<SimTime> harvests;

 private:
  Simulator* sim_;
  std::unique_ptr<IoQueue> inner_;
};

TEST(IoEngine, LocalRetryPostsAtItsBackoffWhileLongerReadInFlight) {
  // Device 0 fails every command; device 1 serves one 8 MiB read that
  // takes ~3.4 ms. Only local queues are outstanding, so the pump jumps
  // from one known event to the next: each backed-off retry must still be
  // re-posted at its due time, not when the long read lands.
  IoEngineConfig cfg;
  cfg.chunk_bytes = 8_MiB;
  EngineRig rig(cfg, /*num_devices=*/2, /*pool_chunks=*/4);
  rig.devices[0]->inject_faults(1.0);
  auto rec = std::make_unique<RecordingQueue>(
      rig.sim, rig.driver->create_io_queue(*rig.devices[0]));
  RecordingQueue& q = *rec;
  rig.engine->attach_target(0, std::move(rec));
  std::vector<std::byte> small(4_KiB), big(8_MiB);
  const ExtentOpPtr bad =
      rig.engine->start_extent(ReadExtent{0, 0, 4_KiB, small.data()});
  const ExtentOpPtr slow =
      rig.engine->start_extent(ReadExtent{1, 0, 8_MiB, big.data()});
  SimTime failed_at = 0;
  rig.sim.spawn([](Simulator& sim, IoEngine& e, CpuCore& c, ExtentOpPtr a,
                   ExtentOpPtr b, SimTime& at) -> Task<void> {
    co_await e.await_op(c, a);
    at = sim.now();
    co_await e.await_op(c, b);
  }(rig.sim, *rig.engine, rig.core, bad, slow, failed_at));
  rig.sim.run();
  ASSERT_TRUE(bad->error());
  EXPECT_FALSE(slow->error());
  // Four attempts (kMaxRetries = 3), each failure harvested once.
  ASSERT_EQ(q.submits.size(), 4u);
  ASSERT_EQ(q.harvests.size(), 4u);
  const auto& cal = dlfs::default_calibration().dlfs;
  const dlsim::SimDuration post = cal.prep_request + cal.sq_post;
  for (std::size_t k = 0; k + 1 < q.submits.size(); ++k) {
    // The retry's not_before is its failure's handling plus the doubling
    // backoff (10 us, 20 us, 40 us); the post look at not_before spends
    // prep + post before the command reaches the queue.
    const dlsim::SimDuration backoff = 10_us << k;
    EXPECT_EQ(q.submits[k + 1],
              q.harvests[k] + cal.completion_handling + backoff + post)
        << "retry " << k + 1;
  }
  EXPECT_LT(failed_at, 200_us);  // the 8 MiB read is still in flight
}

/// An engine whose only target is an NVMe-oF queue to a device on node 1
/// (the client is node 0).
struct RemoteRig {
  Simulator sim;
  Fabric fabric;
  HugePagePool pool{64 * 256_KiB, 256_KiB};
  SampleCache cache{pool, 16, 1000};
  NvmeDevice dev{sim, "nvme-remote",
                 std::make_unique<SyntheticBackingStore>(1_GiB, 7)};
  NvmfTarget target{sim, fabric, 1, dev};
  IoEngine engine{sim, pool, cache, dlfs::default_calibration(),
                  IoEngineConfig{}};
  CpuCore core{sim, "io"};

  explicit RemoteRig(dlfs::NicParams nic = {}, NvmfFaultParams fault = {})
      : fabric(sim, 2, nic) {
    engine.attach_target(0, target.connect(0, pool, 0, fault));
  }

  /// Reads one extent on `core`; returns the virtual time it finished.
  SimTime read(std::uint32_t len) {
    std::vector<std::byte> dst(len);
    SimTime done = 0;
    sim.spawn([](Simulator& s, IoEngine& e, CpuCore& c, std::byte* d,
                 std::uint32_t n, SimTime& at) -> Task<void> {
      co_await e.read_one(c, 0, 4_MiB, n, d);
      at = s.now();
    }(sim, engine, core, dst.data(), len, done));
    sim.run(/*allow_blocked=*/true);
    sim.rethrow_failures();
    return done;
  }
};

TEST(IoEngine, RemoteReadTimeAndBusyMatchTheSpin) {
  RemoteRig rig;
  EXPECT_EQ(rig.read(64_KiB), 58'592u);
  EXPECT_EQ(rig.core.busy_ns(), 50'050u);
}

TEST(IoEngine, PollWaitIsTheSpinTimeOfARemoteRead) {
  RemoteRig rig;
  (void)rig.read(64_KiB);
  // One round posts (prep + post) and polls in vain. The completion
  // lands between a poll look and the next post look, so the wait ends at
  // that post look, whose round polls and handles the completion. All
  // other busy time is the spin between.
  const auto& cal = dlfs::default_calibration().dlfs;
  const dlsim::SimDuration work = cal.prep_request + cal.sq_post +
                                  2 * cal.poll_iteration +
                                  cal.completion_handling;
  EXPECT_EQ(rig.engine.poll_wait_ns(), rig.core.busy_ns() - work);
  EXPECT_LE(rig.engine.poll_wait_ns(), rig.core.busy_ns());
  EXPECT_EQ(rig.engine.poll_wakeups(), 1u);
}

TEST(IoEngine, TwoPumpersOnOneEngineMatchTheSpin) {
  // A read-ahead daemon pumps a 1 MiB extent on its own core; a consumer
  // stalls on the second half of it (a separate 512 KiB extent started
  // together) 3 us later and pumps on the I/O core. Either one harvests
  // whatever completes at its looks.
  RemoteRig rig;
  CpuCore daemon{rig.sim, "prefetch"};
  std::vector<std::byte> a(1_MiB), b(512_KiB);
  const ExtentOpPtr ahead =
      rig.engine.start_extent(ReadExtent{0, 0, 1_MiB, a.data()});
  const ExtentOpPtr demand =
      rig.engine.start_extent(ReadExtent{0, 8_MiB, 512_KiB, b.data()});
  SimTime ahead_done = 0, demand_done = 0;
  rig.sim.spawn([](Simulator& s, IoEngine& e, CpuCore& c, ExtentOpPtr x,
                   ExtentOpPtr y, SimTime& at) -> Task<void> {
    co_await e.await_op(c, x);
    at = s.now();
    co_await e.await_op(c, y);
  }(rig.sim, rig.engine, daemon, ahead, demand, ahead_done));
  rig.sim.spawn([](Simulator& s, IoEngine& e, CpuCore& c, ExtentOpPtr y,
                   SimTime& at) -> Task<void> {
    co_await s.delay(3_us);
    co_await e.await_op(c, y);
    at = s.now();
  }(rig.sim, rig.engine, rig.core, demand, demand_done));
  rig.sim.run();
  EXPECT_EQ(ahead_done, 603'622u);
  EXPECT_EQ(demand_done, 747'758u);
  EXPECT_EQ(daemon.busy_ns(), 550'450u);
  EXPECT_EQ(rig.core.busy_ns(), 679'250u);
}

TEST(IoEngine, TimeoutReconnectReplayMatchesTheSpin) {
  // The target dies 5 us into a read and comes back 400 us later: the
  // command's 200 us deadline expires, the queue reconnects after its
  // backoff and replays, and the engine's retry lands on the fresh
  // connection.
  NvmfFaultParams fault;
  fault.command_timeout = 200_us;
  fault.reconnect_backoff = 100_us;
  fault.reconnect_backoff_max = 400_us;
  RemoteRig rig({}, fault);
  rig.target.crash_at(5_us);
  rig.target.recover_at(405_us);
  EXPECT_EQ(rig.read(64_KiB), 621'192u);
  EXPECT_EQ(rig.core.busy_ns(), 612'650u);
  const auto t = rig.engine.transport_stats();
  EXPECT_EQ(t.timeouts, 2u);
  EXPECT_EQ(t.reconnects, 1u);
  EXPECT_EQ(t.replays, 1u);
  EXPECT_EQ(rig.engine.timeouts(), 2u);
  EXPECT_EQ(rig.engine.retries(), 2u);
}

TEST(IoEngine, TenantDeferralMatchesTheSpin) {
  // A tenant capped at one command in flight reads 1 MiB (four pieces):
  // every post look with a command outstanding is deferred, and each of
  // them counts — also the ones an idle pumper only spins through.
  RemoteRig rig;
  TenantGovernor gov;
  TenantQos qos;
  qos.name = "capped";
  qos.max_inflight = 1;
  const auto tenant = gov.register_tenant(qos);
  rig.engine.set_tenant(tenant);
  EXPECT_EQ(rig.read(1_MiB), 763'222u);
  EXPECT_EQ(rig.core.busy_ns(), 631'800u);
  EXPECT_EQ(rig.engine.qos_deferrals(), 792u);
  EXPECT_EQ(tenant->stats().deferred, 792u);
}

TEST(IoEngine, RemoteReadEventsDoNotGrowWithFabricLatency) {
  // The spin cost two events per 500 ns of waiting; an idle pumper costs
  // one wakeup per state change, however long the wait.
  std::uint64_t events[2] = {};
  const dlsim::SimDuration latency[2] = {2_us, 200_us};
  for (int i = 0; i < 2; ++i) {
    dlfs::NicParams nic;
    nic.latency = latency[i];
    RemoteRig rig(nic);
    (void)rig.read(64_KiB);
    events[i] = rig.sim.events_processed();
  }
  EXPECT_LE(events[1], events[0] + 4);
  EXPECT_LE(events[0], events[1] + 4);
}

// Parameterized sweep: every (sample size, chunk size) combination must
// deliver exact bytes and account the right request count.
class EngineSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(EngineSweep, ExactBytesAndRequestAccounting) {
  const auto [len, chunk] = GetParam();
  IoEngineConfig cfg;
  cfg.chunk_bytes = chunk;
  EngineRig rig(cfg, 1, /*pool_chunks=*/256);
  std::vector<std::byte> dst(len), want(len);
  rig.devices[0]->store().read(12345, want);
  rig.read({ReadExtent{0, 12345, len, dst.data()}});
  EXPECT_EQ(std::memcmp(dst.data(), want.data(), len), 0);
  EXPECT_EQ(rig.engine->requests_posted(), dlfs::ceil_div(len, chunk));
  EXPECT_EQ(rig.engine->bytes_copied(), len);
  EXPECT_EQ(rig.pool.used_chunks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EngineSweep,
    ::testing::Combine(::testing::Values(512u, 4096u, 65536u, 300000u,
                                         1048576u),
                       ::testing::Values(64_KiB, 256_KiB, 1_MiB)));

}  // namespace
