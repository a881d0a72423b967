// Evaluation-claim regression tests: small, fast versions of each
// figure's *directional* result, pinned as assertions so a refactor that
// silently breaks a paper-level conclusion fails CI — not just the
// benches' eyeballed output.

#include <gtest/gtest.h>

#include <utility>

#include "common/units.hpp"
#include "harness.hpp"

namespace {

using dlfs::bench::Workload;
using dlfs::core::BatchingMode;
using namespace dlfs::byte_literals;
using namespace dlsim::literals;

Workload small_node_workload(std::uint32_t nodes, std::uint32_t sample_bytes,
                             std::size_t samples_per_node) {
  Workload w;
  w.num_nodes = nodes;
  w.sample_bytes = sample_bytes;
  w.samples_per_node = samples_per_node;
  return w;
}

dlfs::core::DlfsConfig chunked() {
  dlfs::core::DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  return cfg;
}

// Fig. 6: single node, small samples — DLFS-Base beats Ext4-Base by the
// paper's >= 1.82x, and full DLFS beats everything.
TEST(EvaluationClaims, Fig6SmallSampleOrdering) {
  const auto w = small_node_workload(1, 4096, 4096);
  dlfs::core::DlfsConfig base;
  base.batching = BatchingMode::kNone;
  // DLFS-Base is the paper's synchronous per-sample baseline; the
  // generalized daemon would otherwise read ahead for it too.
  base.prefetch.enabled = false;
  const double ext4_base = dlfs::bench::run_ext4(w, 1).samples_per_sec;
  const double ext4_mc = dlfs::bench::run_ext4(w, 4).samples_per_sec;
  const double dlfs_base = dlfs::bench::run_dlfs(w, base).samples_per_sec;
  const double dlfs_full = dlfs::bench::run_dlfs(w, chunked()).samples_per_sec;
  EXPECT_GT(dlfs_base, 1.82 * ext4_base);
  EXPECT_GT(dlfs_full, ext4_mc);
  EXPECT_GT(dlfs_full, dlfs_base);
}

// Fig. 6 large samples: everything converges near device bandwidth, and
// DLFS still leads.
TEST(EvaluationClaims, Fig6LargeSamplesConverge) {
  const auto w = small_node_workload(1, 1_MiB, 96);
  const double ext4 = dlfs::bench::run_ext4(w, 1).bytes_per_sec;
  const double dlfs = dlfs::bench::run_dlfs(w, chunked()).bytes_per_sec;
  EXPECT_GT(dlfs, ext4);
  EXPECT_LT(dlfs / ext4, 2.0);    // no longer an order of magnitude
  EXPECT_GT(dlfs, 1.8e9);         // near the 2.5 GB/s device
}

// Fig. 7a: DLFS saturates the device from one core; Ext4 with one core
// does not come close for small samples.
TEST(EvaluationClaims, Fig7SingleCoreSaturation) {
  const auto w = small_node_workload(1, 16_KiB, 2048);
  const auto dlfs = dlfs::bench::run_dlfs(w, chunked());
  const auto ext4 = dlfs::bench::run_ext4(w, 1);
  EXPECT_GT(dlfs.bytes_per_sec, 0.8 * 2.5e9);
  EXPECT_LT(ext4.bytes_per_sec, 0.5 * 2.5e9);
}

// Fig. 7b: a 32 x 128 KiB batch hides ~1.5 ms of compute; 4 ms hurts.
TEST(EvaluationClaims, Fig7bComputeOverlapKnee) {
  auto w = small_node_workload(1, 128_KiB, 384);
  const double base = dlfs::bench::run_dlfs(w, chunked()).samples_per_sec;
  const double hidden =
      dlfs::bench::run_dlfs(w, chunked(), 1500_us).samples_per_sec;
  const double hurt =
      dlfs::bench::run_dlfs(w, chunked(), 4_ms).samples_per_sec;
  EXPECT_GT(hidden, 0.95 * base);
  EXPECT_LT(hurt, 0.75 * base);
}

// Ablation read-ahead sweep (ablation_batching) at depth 4: with compute
// folded into every bread, the async daemon beats the synchronous
// prefetcher — whose window never tops up between breads — on both the
// chunk-level 128 KiB and the sample-level 4 KiB sweep.
TEST(EvaluationClaims, AsyncReadAheadBeatsSyncAtDepth4) {
  auto sweep = [](BatchingMode mode, std::uint32_t sample_bytes,
                  std::size_t samples, dlsim::SimDuration compute) {
    const auto w = small_node_workload(1, sample_bytes, samples);
    dlfs::core::DlfsConfig cfg;
    cfg.batching = mode;
    cfg.prefetch.initial_units = 4;
    cfg.prefetch.enabled = false;
    const double sync = dlfs::bench::run_dlfs(w, cfg, compute).samples_per_sec;
    cfg.prefetch.enabled = true;
    const double async = dlfs::bench::run_dlfs(w, cfg, compute).samples_per_sec;
    return std::pair{sync, async};
  };
  const auto [chunk_sync, chunk_async] =
      sweep(BatchingMode::kChunkLevel, 128_KiB, 768, 1500_us);
  EXPECT_GT(chunk_async, chunk_sync);
  const auto [sample_sync, sample_async] =
      sweep(BatchingMode::kSampleLevel, 4096, 8192, 200_us);
  EXPECT_GT(sample_async, sample_sync);
}

// Fig. 9: DLFS throughput scales near-linearly from 2 to 8 nodes and
// dominates both baselines at small samples.
TEST(EvaluationClaims, Fig9ScalingAndDominance) {
  double prev = 0;
  for (std::uint32_t nodes : {2u, 4u, 8u}) {
    const auto w = small_node_workload(nodes, 512, 2048);
    const double dlfs = dlfs::bench::run_dlfs(w, chunked()).samples_per_sec;
    if (prev > 0) {
      EXPECT_GT(dlfs, 1.5 * prev);  // >= 75% scaling efficiency
    }
    prev = dlfs;
    EXPECT_GT(dlfs, 5.0 * dlfs::bench::run_ext4(w, 1).samples_per_sec);
    EXPECT_GT(dlfs, 5.0 * dlfs::bench::run_octopus(w).samples_per_sec);
  }
}

// Fig. 10: metadata ordering — DLFS << Ext4 (>= 1.5 orders) <= Octopus.
TEST(EvaluationClaims, Fig10LookupOrdering) {
  const auto lt = dlfs::bench::measure_lookup_times(
      /*num_nodes=*/4, /*files_per_node=*/4000, /*sample_bytes=*/512,
      /*measure_count=*/2000);
  EXPECT_GT(lt.ext4_us, 30.0 * lt.dlfs_us);
  EXPECT_GT(lt.octopus_us, lt.ext4_us);
  EXPECT_LT(lt.dlfs_us, 1.0);
}

// Fig. 11: one client is NIC-bound beyond ~2 remote devices (adding
// devices stops helping), while many clients keep scaling.
TEST(EvaluationClaims, Fig11NicBottleneckShape) {
  auto run_1c = [&](std::uint32_t devices) {
    Workload w = small_node_workload(devices + 1, 128_KiB, 96);
    w.clients = 1;
    w.storage = devices;
    w.client_node_offset = devices;
    auto cfg = chunked();
    cfg.prefetch.initial_units = 16;
    return dlfs::bench::run_dlfs(w, cfg).bytes_per_sec;
  };
  const double at2 = run_1c(2);
  const double at8 = run_1c(8);
  EXPECT_LT(at8, 1.6 * at2);   // NIC cap: not 4x
  EXPECT_LT(at8, 6.8e9);       // never beats the wire
  EXPECT_GT(at8, 3.0e9);       // but gets a good fraction of it
}

}  // namespace
