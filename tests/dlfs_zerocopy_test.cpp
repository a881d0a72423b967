// Tests for zero-copy dlfs_bread (bread_views) — the paper's §III-C.2
// future-work item: samples delivered as views into resident huge-page
// data chunks, with pin/release lifetime rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/simulator.hpp"

// Mirror of the pool's ASan gating (hugepage_pool.cpp): under ASan a
// released view's bytes are poisoned, so the stale-read test must query
// the poison state instead of dereferencing.
#if defined(__SANITIZE_ADDRESS__)
#define DLFS_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DLFS_TEST_ASAN 1
#endif
#endif
#if defined(DLFS_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace {

using dlfs::core::BatchingMode;
using dlfs::core::DlfsConfig;
using dlfs::core::DlfsFleet;
using dlfs::core::DlfsInstance;
using dlfs::core::ViewBatch;
using dlfs::core::ViewLease;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlfs::byte_literals;

struct Rig {
  Simulator sim;
  dlfs::cluster::Cluster cluster;
  dlfs::dataset::Dataset ds;
  dlfs::cluster::Pfs pfs;
  DlfsFleet fleet;

  explicit Rig(std::size_t samples = 256, std::uint32_t bytes = 2000,
               BatchingMode mode = BatchingMode::kChunkLevel)
      : Rig(samples, bytes, cfg(mode)) {}

  Rig(std::size_t samples, std::uint32_t bytes, DlfsConfig c,
      std::vector<dlfs::hw::NodeId> client_nodes = {})
      : cluster(sim, 1, node_cfg()),
        ds(dlfs::dataset::make_fixed_size_dataset(samples, bytes)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, c, std::move(client_nodes)) {
    fleet.mount();
  }

  static dlfs::cluster::NodeConfig node_cfg() {
    dlfs::cluster::NodeConfig nc;
    nc.synthetic_store = false;
    nc.device_capacity = 256_MiB;
    return nc;
  }
  static DlfsConfig cfg(BatchingMode mode) {
    DlfsConfig c;
    c.batching = mode;
    return c;
  }
};

bool view_matches(const dlfs::dataset::Dataset& ds,
                  const dlfs::core::ViewSample& vs) {
  std::vector<std::byte> got;
  for (const auto& p : vs.pieces) got.insert(got.end(), p.begin(), p.end());
  std::vector<std::byte> want(vs.len);
  ds.fill_content(vs.sample_id, 0, want);
  return got == want;
}

TEST(ZeroCopyBread, ViewsCarryExactContent) {
  Rig rig;
  auto& inst = rig.fleet.instance(0);
  inst.sequence(7);
  bool ok = true;
  rig.sim.spawn([](Rig& r, DlfsInstance& inst, bool& ok) -> Task<void> {
    ViewBatch b = co_await inst.bread_views(32);
    EXPECT_EQ(b.samples.size(), 32u);
    for (const auto& vs : b.samples) {
      if (!view_matches(r.ds, vs)) ok = false;
    }
    inst.release_views(b);
  }(rig, inst, ok));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_TRUE(ok);
}

TEST(ZeroCopyBread, EpochCoversDatasetExactly) {
  Rig rig(300, 1234);
  auto& inst = rig.fleet.instance(0);
  inst.sequence(3);
  std::set<std::uint32_t> seen;
  bool ok = true;
  rig.sim.spawn([](Rig& r, DlfsInstance& inst, std::set<std::uint32_t>& s,
                   bool& ok) -> Task<void> {
    for (;;) {
      ViewBatch b = co_await inst.bread_views(17);
      if (b.end_of_epoch) break;
      for (const auto& vs : b.samples) {
        if (!s.insert(vs.sample_id).second) ok = false;
        if (!view_matches(r.ds, vs)) ok = false;
      }
      inst.release_views(b);
    }
  }(rig, inst, seen, ok));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(seen.size(), 300u);
  EXPECT_TRUE(ok);
}

TEST(ZeroCopyBread, ChunksStayPinnedUntilRelease) {
  Rig rig(512, 512);  // one 256 KiB chunk holds the whole epoch
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  rig.sim.spawn([](DlfsInstance& inst) -> Task<void> {
    ViewBatch b1 = co_await inst.bread_views(32);
    const std::byte first = b1.samples[0].pieces[0][0];
    // Drain the rest of the epoch while b1 stays pinned: the shared chunk
    // must not be recycled underneath b1's views.
    for (;;) {
      ViewBatch b = co_await inst.bread_views(64);
      if (b.end_of_epoch) break;
      inst.release_views(b);
    }
    EXPECT_EQ(b1.samples[0].pieces[0][0], first);  // still readable
    inst.release_views(b1);
  }(inst));
  rig.sim.run();
  rig.sim.rethrow_failures();
}

TEST(ZeroCopyBread, DoubleReleaseThrows) {
  Rig rig;
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  auto p = rig.sim.spawn([](DlfsInstance& inst) -> Task<void> {
    ViewBatch b = co_await inst.bread_views(8);
    inst.release_views(b);
    inst.release_views(b);  // boom
  }(inst));
  rig.sim.run(/*allow_blocked=*/true);
  EXPECT_TRUE(p.failed());
}

TEST(ZeroCopyBread, RequiresChunkMode) {
  Rig rig(64, 1000, BatchingMode::kSampleLevel);
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  auto p = rig.sim.spawn([](DlfsInstance& inst) -> Task<void> {
    (void)co_await inst.bread_views(8);
  }(inst));
  rig.sim.run(/*allow_blocked=*/true);
  EXPECT_TRUE(p.failed());
}

TEST(ZeroCopyBread, NewEpochWithPinnedBatchThrows) {
  Rig rig;
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  ViewBatch held;
  rig.sim.spawn([](DlfsInstance& inst, ViewBatch& out) -> Task<void> {
    out = co_await inst.bread_views(8);
  }(inst, held));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_THROW(inst.sequence(2), std::logic_error);
  inst.release_views(held);
  EXPECT_NO_THROW(inst.sequence(2));
}

// One epoch of 2048 samples of `bytes` each, read in batches of 32 by
// copy or as views: its virtual duration, the bytes the copy stage
// memcpyed and the copy threads' busy time.
struct CopyStageRun {
  dlsim::SimDuration elapsed;
  std::uint64_t bytes_copied;
  dlsim::SimDuration copy_busy;
};

CopyStageRun run_copy_stage_epoch(std::uint32_t bytes, bool zero_copy) {
  Rig rig(2048, bytes);
  auto& inst = rig.fleet.instance(0);
  inst.sequence(5);
  const auto t0 = rig.sim.now();
  rig.sim.spawn([](DlfsInstance& inst, std::uint32_t bytes,
                   bool zc) -> Task<void> {
    std::vector<std::byte> arena(64 * bytes);
    for (;;) {
      if (zc) {
        ViewBatch b = co_await inst.bread_views(32);
        if (b.end_of_epoch) break;
        inst.release_views(b);
      } else {
        auto b = co_await inst.bread(32, arena);
        if (b.end_of_epoch) break;
      }
    }
  }(inst, bytes, zero_copy));
  rig.sim.run();
  rig.sim.rethrow_failures();
  return CopyStageRun{rig.sim.now() - t0, inst.engine().bytes_copied(),
                      inst.engine().copy_busy_ns()};
}

TEST(ZeroCopyBread, EliminatesTheCopyStage) {
  // Zero-copy removes the copy stage: zero bytes memcpyed, zero
  // copy-thread CPU, and wall time no worse than the copying path (the
  // copies overlap I/O, so the win is CPU, not latency, at one device).
  const CopyStageRun with_copy = run_copy_stage_epoch(2000, false);
  const CopyStageRun zero = run_copy_stage_epoch(2000, true);
  EXPECT_EQ(zero.bytes_copied, 0u);
  EXPECT_EQ(zero.copy_busy, 0u);
  EXPECT_EQ(with_copy.bytes_copied, 2048u * 2000u);
  EXPECT_GT(with_copy.copy_busy, 0u);
  EXPECT_LE(zero.elapsed, with_copy.elapsed);
}

TEST(ZeroCopyBread, EliminatesTheCopyStageForSmallSamples) {
  // The 512 B sibling: small samples share copy jobs, which narrows the
  // copying path's gap to zero-copy most — views must still copy nothing
  // and finish no later.
  const CopyStageRun with_copy = run_copy_stage_epoch(512, false);
  const CopyStageRun zero = run_copy_stage_epoch(512, true);
  EXPECT_EQ(zero.bytes_copied, 0u);
  EXPECT_EQ(zero.copy_busy, 0u);
  EXPECT_EQ(with_copy.bytes_copied, 2048u * 512u);
  EXPECT_LE(zero.elapsed, with_copy.elapsed);
}

TEST(ZeroCopyBread, ViewLeaseReleasesOnScopeExitAndMove) {
  Rig rig;
  auto& inst = rig.fleet.instance(0);
  inst.sequence(11);
  rig.sim.spawn([](DlfsInstance& inst) -> Task<void> {
    {
      ViewLease lease(inst, co_await inst.bread_views(8));
      EXPECT_TRUE(lease.held());
      EXPECT_GE(inst.stats().view_pins_active, 1u);
      // Moving transfers ownership: the source must not double-release.
      ViewLease moved(std::move(lease));
      EXPECT_FALSE(lease.held());
      EXPECT_TRUE(moved.held());
      EXPECT_EQ(moved.batch().samples.size(), 8u);
    }  // moved's destructor releases
    EXPECT_EQ(inst.stats().view_pins_active, 0u);
    // Explicit release is idempotent with the destructor.
    ViewLease again(inst, co_await inst.bread_views(8));
    again.release();
    EXPECT_FALSE(again.held());
    EXPECT_EQ(inst.stats().view_pins_active, 0u);
  }(inst));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(inst.stats().bytes_zero_copy, 16u * 2000u);
}

TEST(ZeroCopyBread, ViewsStayByteIdenticalUnderPoolPressure) {
  // 16-chunk dataset through an 8-chunk pool: chunks recycle mid-epoch
  // while the first batch stays pinned. Every batch must match the
  // dataset at handout time and the pinned batch must still match after
  // the churn — recycled chunks must never be ones a live view holds.
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  cfg.pool_bytes = 8ull * 256 * 1024;
  Rig rig(2048, 2000, cfg);
  auto& inst = rig.fleet.instance(0);
  inst.sequence(13);
  bool ok = true;
  rig.sim.spawn([](Rig& r, DlfsInstance& inst, bool& ok) -> Task<void> {
    ViewBatch first = co_await inst.bread_views(32);
    for (;;) {
      ViewBatch b = co_await inst.bread_views(32);
      if (b.end_of_epoch) break;
      for (const auto& vs : b.samples) {
        if (!view_matches(r.ds, vs)) ok = false;
      }
      inst.release_views(b);
    }
    for (const auto& vs : first.samples) {
      if (!view_matches(r.ds, vs)) ok = false;
    }
    inst.release_views(first);
  }(rig, inst, ok));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_TRUE(ok);
}

TEST(ZeroCopyBread, LastReleaseRecyclesTheChunk) {
  Rig rig(512, 512);  // 512 * 512 B = exactly one 256 KiB chunk
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  std::size_t used_while_pinned = 0;
  rig.sim.spawn([](DlfsInstance& inst, std::size_t& used) -> Task<void> {
    ViewBatch b1 = co_await inst.bread_views(64);
    for (;;) {
      ViewBatch b = co_await inst.bread_views(128);
      if (b.end_of_epoch) break;
      inst.release_views(b);
    }
    // Whole epoch delivered, but b1 still pins the chunk.
    used = inst.pool().used_chunks();
    inst.release_views(b1);
  }(inst, used_while_pinned));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_GE(used_while_pinned, 1u);
  // The last release was the only remaining pin on a fully-delivered
  // unit: its chunk must be back on the free list.
  EXPECT_EQ(inst.pool().used_chunks(), 0u);
  EXPECT_EQ(inst.stats().view_pins_active, 0u);
}

TEST(ZeroCopyBread, ViewPinnedChunksMatchPoolAcrossFailover) {
  // A storage node crashes while every batch of the epoch stays leased;
  // the dead node's units are re-planned from replicas into one landing
  // chunk each. Once the epoch is read the window is empty, so every
  // pool chunk in use belongs to a pinned unit — one chunk per unit,
  // replica-planned or not — and the pool is empty once the views are
  // released.
  using namespace dlsim::literals;
  Simulator sim;
  dlfs::cluster::Cluster cluster(sim, 3, Rig::node_cfg());
  const auto ds = dlfs::dataset::make_fixed_size_dataset(2048, 4096);
  dlfs::cluster::Pfs pfs(sim, ds);
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  cfg.fault.replication = 2;
  cfg.fault.nvmf.command_timeout = 5_ms;
  cfg.fault.nvmf.reconnect_backoff = 200_us;
  cfg.fault.nvmf.reconnect_backoff_max = 1_ms;
  cfg.fault.nvmf.reconnect_attempts = 4;
  DlfsFleet fleet(cluster, pfs, ds, cfg, /*client_nodes=*/{2},
                  /*storage_nodes=*/{0, 1});
  fleet.mount();
  auto& inst = fleet.instance(0);
  inst.sequence(1);
  std::size_t served = 0;
  std::size_t used_while_held = 0;
  sim.spawn(
      [](DlfsFleet& f, DlfsInstance& inst, std::size_t& served,
         std::size_t& used) -> Task<void> {
        std::vector<ViewLease> held;
        for (;;) {
          if (held.size() == 4) f.target(0)->crash();
          ViewBatch b = co_await inst.bread_views(64);
          if (b.end_of_epoch) break;
          served += b.samples.size();
          held.emplace_back(inst, std::move(b));
        }
        used = inst.pool().used_chunks();
        held.clear();  // every lease releases its views
      }(fleet, inst, served, used_while_held),
      "leased-failover-epoch");
  sim.run_watchdog(sim.now() + 2_sec);
  sim.rethrow_failures();
  EXPECT_EQ(served, 2048u);
  EXPECT_GT(inst.prefetcher().stats().units_replanned, 0u);
  EXPECT_EQ(used_while_held,
            dlfs::core::EpochSequence(fleet.plan(), 1, 0, 1).num_units());
  EXPECT_EQ(inst.pool().used_chunks(), 0u);
  EXPECT_EQ(inst.stats().view_pins_active, 0u);
}

TEST(ZeroCopyBread, UseAfterReleaseIsCaughtByScribble) {
  // scribble_on_free turns a stale view into detectable garbage: freed
  // chunks are 0xDD-filled (and ASan-poisoned when built with ASan, so
  // the same bug becomes a hard report instead of a wrong byte).
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  cfg.scribble_on_free = true;
  Rig rig(512, 512, cfg);  // one-chunk epoch, nothing realloc's after
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  const std::byte* stale = nullptr;
  rig.sim.spawn([](DlfsInstance& inst, const std::byte*& p) -> Task<void> {
    ViewBatch b1 = co_await inst.bread_views(64);
    p = b1.samples[0].pieces[0].data();
    EXPECT_NE(*p, std::byte{0xDD});  // live view reads real sample bytes
    for (;;) {
      ViewBatch b = co_await inst.bread_views(128);
      if (b.end_of_epoch) break;
      inst.release_views(b);
    }
    inst.release_views(b1);  // last pin: chunk freed and scribbled
  }(inst, stale));
  rig.sim.run();
  rig.sim.rethrow_failures();
  ASSERT_NE(stale, nullptr);
#if defined(DLFS_TEST_ASAN)
  EXPECT_NE(__asan_address_is_poisoned(stale), 0);
#else
  EXPECT_EQ(*stale, std::byte{0xDD});
#endif
}

TEST(ZeroCopyBread, CoLocatedInstancesCompleteWithPinnedUnits) {
  // Two instances share one node, each double-buffering view batches
  // (the previous batch stays pinned across the next bread_views), each
  // out of its own 24-chunk pool. Pinned chunks are no longer free, so
  // every top-up sees them as lost headroom and the window shrinks
  // around them; the pressure reliever sheds resident read-ahead when a
  // demand fetch finds the pool dry. The epoch must complete instead of
  // dying with PoolExhausted.
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  cfg.prefetch.initial_units = 16;
  cfg.prefetch.max_units = 32;
  cfg.pool_bytes = 24ull * 256 * 1024;
  Rig rig(2048, 2000, cfg, /*client_nodes=*/{0, 0});
  std::set<std::uint32_t> seen;
  for (std::uint32_t c = 0; c < 2; ++c) rig.fleet.instance(c).sequence(21);
  for (std::uint32_t c = 0; c < 2; ++c) {
    rig.sim.spawn([](DlfsInstance& inst,
                     std::set<std::uint32_t>& out) -> Task<void> {
      ViewLease prev;
      for (;;) {
        ViewBatch b = co_await inst.bread_views(32);
        if (b.end_of_epoch) break;
        for (const auto& vs : b.samples) out.insert(vs.sample_id);
        prev = ViewLease(inst, std::move(b));
      }
    }(rig.fleet.instance(c), seen));
  }
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(seen.size(), 2048u);
  for (std::uint32_t c = 0; c < 2; ++c) {
    EXPECT_EQ(rig.fleet.instance(c).stats().view_pins_active, 0u);
  }
}

// ---------------------------------------------------------------------------
// Span-copy coalescing: a chunk-level bread copies each pick's samples out
// of the resident chunk in runs — a sample joins the pick's open copy job
// while that job's memcpy time is below a job's fixed cost (completion
// handling, plus the cross-core handoff on a copy thread).
// ---------------------------------------------------------------------------

// Copy jobs the rule builds for delivered samples of `lens` (one pick, in
// pick order) when a job's fixed cost is `fixed`.
std::size_t jobs_for_run(const std::vector<std::uint32_t>& lens,
                         dlsim::SimDuration fixed) {
  const double bw = DlfsConfig{}.calibration.dlfs.copy_bw_bytes_per_sec;
  std::size_t jobs = 0;
  std::uint64_t open_bytes = 0;
  for (const std::uint32_t len : lens) {
    if (jobs == 0 || dlsim::transfer_time(open_bytes, bw) >= fixed) {
      ++jobs;
      open_bytes = 0;
    }
    open_bytes += len;
  }
  return jobs;
}

// Every delivered sample sits at its packed pick-order offset in the
// arena and holds exactly its dataset bytes.
void expect_packed_and_exact(const dlfs::dataset::Dataset& ds,
                             const dlfs::core::Batch& b,
                             const std::vector<std::byte>& arena) {
  std::uint32_t offset = 0;
  std::vector<std::byte> want;
  for (const auto& s : b.samples) {
    EXPECT_EQ(s.offset_in_arena, offset);
    want.resize(s.len);
    ds.fill_content(s.sample_id, 0, want);
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           arena.begin() + s.offset_in_arena))
        << "sample " << s.sample_id;
    offset += s.len;
  }
  EXPECT_EQ(b.bytes, offset);
}

// First bread of an epoch on a one-node chunk-level rig, with the copy
// threads' handoffs and the I/O core's busy time it added.
struct FirstBread {
  dlfs::core::Batch batch;
  std::vector<std::byte> arena;
  std::uint64_t handoffs = 0;
  dlsim::SimDuration io_busy = 0;
};

FirstBread first_bread(Rig& rig, std::size_t n) {
  auto& inst = rig.fleet.instance(0);
  inst.sequence(3);
  FirstBread out;
  out.arena.resize(n * rig.ds.sample(0).size);
  rig.sim.spawn([](DlfsInstance& inst, std::size_t n,
                   FirstBread& out) -> Task<void> {
    const auto h0 = inst.engine().cross_core_handoffs();
    const auto b0 = inst.io_core().busy_ns();
    out.batch = co_await inst.bread(n, out.arena);
    out.handoffs = inst.engine().cross_core_handoffs() - h0;
    out.io_busy = inst.io_core().busy_ns() - b0;
  }(inst, n, out));
  rig.sim.run();
  rig.sim.rethrow_failures();
  return out;
}

TEST(SpanCopyCoalescing, SmallSamplesOfOneChunkShareCopyJobs) {
  // 512 B copies in 64 ns at 8 GB/s; a copy-thread job's fixed cost is
  // 150 + 200 ns, so a job takes samples until its memcpy reaches 384 ns:
  // six per job, and a 32-sample pick out of one chunk is 6 jobs, not 32.
  Rig rig(2048, 512);
  const auto picks =
      dlfs::core::EpochSequence(rig.fleet.plan(), 3, 0, 1).take(32);
  ASSERT_EQ(picks.size(), 1u);
  ASSERT_TRUE(picks[0].unit->is_chunk);
  const FirstBread r = first_bread(rig, 32);
  ASSERT_EQ(r.batch.samples.size(), 32u);
  EXPECT_EQ(r.batch.samples_skipped, 0u);
  const auto& c = DlfsConfig{}.calibration.dlfs;
  EXPECT_EQ(jobs_for_run(std::vector<std::uint32_t>(32, 512),
                         c.completion_handling + c.cross_core_handoff),
            6u);
  EXPECT_EQ(r.handoffs, 6u);
  expect_packed_and_exact(rig.ds, r.batch, r.arena);
}

TEST(SpanCopyCoalescing, LargeSamplesKeepOneJobEach) {
  // A 4 KiB copy (512 ns) already outweighs a job's fixed cost (350 ns),
  // so each sample keeps its own job and the copy pool's parallelism.
  Rig rig(1024, 4096);
  const FirstBread r = first_bread(rig, 32);
  ASSERT_EQ(r.batch.samples.size(), 32u);
  EXPECT_EQ(r.handoffs, 32u);
  expect_packed_and_exact(rig.ds, r.batch, r.arena);
}

TEST(SpanCopyCoalescing, InlineCopiesPayOneCompletionPerJob) {
  // Without copy threads the I/O core runs the span copies after the
  // loop, and a job's fixed cost is completion handling alone (150 ns):
  // three 512 B samples per job, 11 jobs for 32 samples. The copying
  // bread's I/O core is busy exactly that much longer than the same
  // bread handing out views, so it is (32 - 11) x completion_handling
  // below one job per sample.
  DlfsConfig cfg = Rig::cfg(BatchingMode::kChunkLevel);
  cfg.copy_threads = 0;
  Rig copying(2048, 512, cfg);
  const FirstBread r = first_bread(copying, 32);
  ASSERT_EQ(r.batch.samples.size(), 32u);
  EXPECT_EQ(r.handoffs, 0u);
  expect_packed_and_exact(copying.ds, r.batch, r.arena);

  Rig viewing(2048, 512, cfg);
  auto& inst = viewing.fleet.instance(0);
  inst.sequence(3);
  dlsim::SimDuration view_busy = 0;
  viewing.sim.spawn(
      [](DlfsInstance& inst, dlsim::SimDuration& busy) -> Task<void> {
        const auto b0 = inst.io_core().busy_ns();
        ViewBatch b = co_await inst.bread_views(32);
        busy = inst.io_core().busy_ns() - b0;
        inst.release_views(b);
      }(inst, view_busy));
  viewing.sim.run();
  viewing.sim.rethrow_failures();

  const auto& c = cfg.calibration.dlfs;
  const std::size_t jobs = jobs_for_run(std::vector<std::uint32_t>(32, 512),
                                        c.completion_handling);
  ASSERT_EQ(jobs, 11u);
  const dlsim::SimDuration memcpy_512 =
      dlsim::transfer_time(512, c.copy_bw_bytes_per_sec);
  const dlsim::SimDuration copy_stage = r.io_busy - view_busy;
  EXPECT_EQ(32 * (c.completion_handling + memcpy_512) - copy_stage,
            (32 - jobs) * c.completion_handling);
}

TEST(SpanCopyCoalescing, SkipMidRunKeepsTheArenaPacked) {
  // Storage nodes 0-2 with two copies per sample; nodes 0 and 1 crash
  // before the epoch, so a chunk of theirs re-plans from node 2 and a
  // sample with no copy there is skipped in the middle of its pick's run.
  // The arena stays packed, each bread's skip count is exact, its copy
  // jobs are the rule's over the delivered samples, and every bread's
  // latch releases.
  using namespace dlsim::literals;
  constexpr std::size_t kSamples = 2048;
  constexpr std::size_t kBatch = 32;
  Simulator sim;
  dlfs::cluster::Cluster cluster(sim, 4, Rig::node_cfg());
  const auto ds = dlfs::dataset::make_fixed_size_dataset(kSamples, 512);
  dlfs::cluster::Pfs pfs(sim, ds);
  DlfsConfig cfg = Rig::cfg(BatchingMode::kChunkLevel);
  cfg.fault.replication = 2;
  cfg.fault.nvmf.command_timeout = 5_ms;
  cfg.fault.nvmf.reconnect_backoff = 200_us;
  cfg.fault.nvmf.reconnect_backoff_max = 1_ms;
  cfg.fault.nvmf.reconnect_attempts = 4;
  DlfsFleet fleet(cluster, pfs, ds, cfg, /*client_nodes=*/{3},
                  /*storage_nodes=*/{0, 1, 2});
  fleet.mount();
  auto on_node2 = [&fleet](std::uint32_t id) {
    if (fleet.layout()[id].nid == 2) return true;
    const auto& reps = fleet.directory().replicas(id);
    return std::any_of(reps.begin(), reps.end(),
                       [](const auto& h) { return h.nid == 2; });
  };
  std::size_t unreachable = 0;
  for (std::uint32_t id = 0; id < kSamples; ++id) {
    if (!on_node2(id)) ++unreachable;
  }
  ASSERT_GT(unreachable, 0u);
  ASSERT_LT(unreachable, kSamples);

  auto& inst = fleet.instance(0);
  inst.sequence(1);
  fleet.target(0)->crash();
  fleet.target(1)->crash();
  struct Tally {
    std::size_t served = 0;
    std::uint64_t skipped = 0;
    std::size_t mid_run_skips = 0;
    bool done = false;
  } t;
  sim.spawn(
      [](DlfsFleet& fleet, DlfsInstance& inst,
         const dlfs::dataset::Dataset& ds, Tally& t) -> Task<void> {
        const auto& c = DlfsConfig{}.calibration.dlfs;
        const dlsim::SimDuration fixed =
            c.completion_handling + c.cross_core_handoff;
        dlfs::core::EpochSequence seq(fleet.plan(), 1, 0, 1);
        std::vector<std::byte> arena(kBatch * 512);
        for (;;) {
          const auto h0 = inst.engine().cross_core_handoffs();
          auto b = co_await inst.bread(kBatch, arena);
          if (b.end_of_epoch) break;
          const auto handoffs = inst.engine().cross_core_handoffs() - h0;
          expect_packed_and_exact(ds, b, arena);
          // Replay the bread's picks: delivered samples keep pick order,
          // so each pick's run is the next stretch of b.samples.
          std::size_t next = 0;
          std::size_t picked = 0;
          std::size_t jobs = 0;
          for (const auto& pk : seq.take(kBatch)) {
            std::vector<std::uint32_t> run;
            bool gap = false;
            for (std::uint32_t i = 0; i < pk.count; ++i) {
              const auto& us = pk.unit->samples[pk.first_sample + i];
              if (next < b.samples.size() &&
                  b.samples[next].sample_id == us.sample_id) {
                if (gap && !run.empty()) ++t.mid_run_skips;
                gap = false;
                run.push_back(us.len);
                ++next;
              } else {
                gap = true;
              }
            }
            picked += pk.count;
            jobs += jobs_for_run(run, fixed);
          }
          EXPECT_EQ(next, b.samples.size());
          EXPECT_EQ(b.samples_skipped, picked - b.samples.size());
          EXPECT_EQ(handoffs, jobs);
          t.served += b.samples.size();
          t.skipped += b.samples_skipped;
        }
        t.done = true;
      }(fleet, inst, ds, t),
      "coalescing-skip-epoch");
  sim.run_watchdog(sim.now() + 2_sec);
  sim.rethrow_failures();
  ASSERT_TRUE(t.done);
  EXPECT_GT(t.mid_run_skips, 0u);
  EXPECT_EQ(t.skipped, unreachable);
  EXPECT_EQ(t.served + t.skipped, kSamples);
  EXPECT_EQ(inst.stats().samples_skipped, unreachable);
}

// ---------------------------------------------------------------------------
// ZeroCopyMatrix — registered once per BatchingMode via DLFS_TEST_BATCHING
// (see tests/CMakeLists.txt): the copy path runs under the environment's
// mode, and its delivered bytes must be identical to what bread_views
// (always chunk-level) hands out as views.
// ---------------------------------------------------------------------------

BatchingMode mode_from_env() {
  const char* v = std::getenv("DLFS_TEST_BATCHING");
  if (v == nullptr) return BatchingMode::kChunkLevel;
  const std::string s(v);
  if (s == "none") return BatchingMode::kNone;
  if (s == "sample") return BatchingMode::kSampleLevel;
  return BatchingMode::kChunkLevel;
}

TEST(ZeroCopyMatrix, ViewsMatchCopyPathBytes) {
  std::map<std::uint32_t, std::vector<std::byte>> copied, viewed;
  {
    Rig rig(300, 1234, mode_from_env());
    auto& inst = rig.fleet.instance(0);
    inst.sequence(17);
    rig.sim.spawn(
        [](DlfsInstance& inst,
           std::map<std::uint32_t, std::vector<std::byte>>& out)
            -> Task<void> {
          std::vector<std::byte> arena(32 * 1234);
          for (;;) {
            auto b = co_await inst.bread(32, arena);
            if (b.end_of_epoch) break;
            for (const auto& s : b.samples) {
              out[s.sample_id].assign(
                  arena.begin() + s.offset_in_arena,
                  arena.begin() + s.offset_in_arena + s.len);
            }
          }
        }(inst, copied));
    rig.sim.run();
    rig.sim.rethrow_failures();
  }
  {
    Rig rig(300, 1234);  // bread_views requires chunk-level batching
    auto& inst = rig.fleet.instance(0);
    inst.sequence(17);
    rig.sim.spawn(
        [](DlfsInstance& inst,
           std::map<std::uint32_t, std::vector<std::byte>>& out)
            -> Task<void> {
          for (;;) {
            ViewBatch b = co_await inst.bread_views(32);
            if (b.end_of_epoch) break;
            for (const auto& vs : b.samples) {
              auto& dst = out[vs.sample_id];
              for (const auto& p : vs.pieces) {
                dst.insert(dst.end(), p.begin(), p.end());
              }
            }
            inst.release_views(b);
          }
        }(inst, viewed));
    rig.sim.run();
    rig.sim.rethrow_failures();
  }
  EXPECT_EQ(copied.size(), 300u);
  EXPECT_EQ(copied, viewed);
}

}  // namespace
