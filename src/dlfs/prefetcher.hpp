#pragma once

// Asynchronous epoch-aware prefetcher.
//
// dlfs_sequence hands every client the *entire* epoch access order up
// front, so — exactly as clairvoyant prefetching systems (NoPFS) exploit
// — there is nothing speculative about read-ahead: the next read units
// are known. Appending "read-ahead" units to the blocking read the
// consumer waits on would inflate bread latency instead of hiding it.
//
// The Prefetcher is a per-instance daemon coroutine (own CpuCore, like
// the SCQ copy threads) that walks a *read-unit* order ahead of the
// consumer cursor and keeps a window of units in flight *across* bread
// calls. A read unit is whatever the installed ReadUnitProvider says it
// is — one data chunk (chunk-level batching), a group of consecutive
// per-sample extents (sample-level batching and DLFS-Base), or one whole
// record file (the open_file() streaming path) — so one windowed daemon
// serves every BatchingMode and the file-oriented API. While the trainer
// computes between breads, the daemon pumps the shared IoEngine and
// upcoming units land in huge-page chunks; bread then finds its units
// already resident (acquire() returns without stalling) and awaits only
// what is genuinely missing.
//
// Window policy (adaptive):
//   * the target is the read-ahead depth *beyond* the highest slot the
//     consumer has demanded so far — units of the current batch do not
//     count against it, so the daemon keeps reading ahead of the batch
//     even while the consumer is busy acquiring it;
//   * target starts at clamp(initial_units, kMinUnits, max_units) and
//     grows by one on every acquire() that had to stall — a stall means
//     the window was not deep enough to cover the consumer's
//     inter-arrival time;
//   * it shrinks when top_up finds the instance's own huge-page pool
//     unable to hold the next unit beyond `kReserveChunks` of headroom
//     (the target drops to the depth actually sustained), and when the
//     engine invokes the pressure reliever — pool exhausted and
//     SampleCache::evict_one() found no unpinned entry to yield — in
//     which case the farthest resident, unconsumed unit is dropped and
//     its chunks returned. Each instance owns its pool, so co-located
//     instances never compete for one read-ahead budget.
//
// Synchronous mode (`enabled = false`, the DLFS-Base and ablation
// baseline) is the same window with the daemon taken out: nothing tops
// it up between breads. A bread demand-issues its own units (plus any
// read-ahead it asks for), acquires them on its own core, and settle()s
// whatever it issued before returning.
//
// Failure model: a prefetched extent's IoError is stored on its ExtentOp
// and handed back *per extent* by acquire() — the daemon never dies on a
// bad read-ahead, and the consumer routes each extent's error exactly as
// it would a synchronous fetch failure (media fatal, node faults skip
// just the affected samples, after one replan() around the down node).
// A chunk unit whose home node is already down at issue time is planned
// from replicas by the provider and lands in one pool chunk the window
// entry owns, so the consumer reads it like any resident unit.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "dlfs/batching.hpp"
#include "dlfs/io_engine.hpp"
#include "mem/hugepage_pool.hpp"
#include "sim/check.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace dlfs::core {

struct PrefetcherConfig {
  // Off -> synchronous mode: no daemon, the window never tops up between
  // breads; each bread issues its own units (plus `initial_units` of
  // read-ahead in chunk mode) and returns once all of them have landed.
  // Kept as the ablation baseline.
  bool enabled = true;
  std::uint32_t max_units = 32;     // adaptive window upper bound
  std::uint32_t initial_units = 4;  // starting window target; also the
                                    // synchronous chunk read-ahead depth
  // Sample-level / unbatched modes: consecutive epoch slots fused into
  // one read unit, so tiny per-sample extents amortize the window
  // bookkeeping (chunk mode is always 1 unit = 1 chunk; synchronous mode
  // has no window to amortize and reads one-sample units).
  std::uint32_t group_samples = 8;
};

struct PrefetchStats {
  std::uint64_t units_issued = 0;            // read-ahead + demand issues
  std::uint64_t units_resident_at_pick = 0;  // finished before acquire()
  std::uint64_t units_stalled = 0;           // acquire() had to wait
  dlsim::SimDuration stall_ns = 0;           // total wait on needed units
  std::uint32_t in_flight_hwm = 0;           // window depth high-water mark
  std::uint64_t window_grows = 0;
  std::uint64_t window_shrinks = 0;
  std::uint64_t units_dropped = 0;   // shed under pool pressure
  std::uint64_t units_reissued = 0;  // retried after a node came back
  // Chunk units planned from replicas because their home node was down:
  // issued degraded, or re-planned after their read-ahead failed.
  std::uint64_t units_replanned = 0;
  std::uint32_t window_target = 0;   // current adaptive target
};

/// One extent of an acquired read unit, identified by the provider's
/// key. `error` is the stored IoError of a failed read-ahead (buffers
/// empty); the consumer routes it exactly like a demand-fetch failure.
/// Extents that landed in the unit's `landing` chunk carry no buffers.
struct AcquiredExtent {
  std::uint64_t key = 0;
  std::vector<mem::DmaBuffer> buffers;
  std::exception_ptr error{};
};

struct AcquiredUnit {
  std::vector<AcquiredExtent> extents;
  // The one pool chunk a replica-planned chunk unit's samples landed in,
  // each at its placement (invalid for every other unit).
  mem::DmaBuffer landing{};
};

class Prefetcher {
 public:
  Prefetcher(dlsim::Simulator& sim, IoEngine& engine, mem::HugePagePool& pool,
             std::uint64_t chunk_bytes, PrefetcherConfig config,
             const std::string& name);
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Installs a new read-unit order. Unfinished read-ahead from the
  /// previous order keeps draining in the background (extents cannot be
  /// cancelled) and its buffers are dropped on completion.
  void start_epoch(const ReadUnitProvider* provider);

  /// False in synchronous mode: no daemon reads ahead between breads.
  [[nodiscard]] bool reads_ahead() const { return cfg_.enabled; }

  /// Demand-issues every unit up to and including `slot` that is not
  /// already in the window — bread calls this for its whole pick list
  /// before awaiting anything, so a batch larger than the window still
  /// fetches all its units concurrently. In synchronous mode `sync_ahead`
  /// further units ride along (the bread's own read-ahead); with the
  /// daemon on it is ignored — the window covers read-ahead.
  void ensure_issued_through(std::size_t slot, std::size_t sync_ahead = 0);

  /// Synchronous mode: the consumer's core is the only pump, so
  /// application compute folded into the polling loop (Fig. 7b) is queued
  /// here and charged inside its next wait — after the first posting
  /// round, as IoEngine::await_op does — and true is returned. With the
  /// daemon pumping, returns false: the caller runs the compute beside it.
  bool fold_compute(dlsim::SimDuration d);

  /// Synchronous mode: pumps the engine on `consumer_core` until every
  /// issued unit has landed, so nothing stays in flight between breads
  /// (and charges folded compute no wait absorbed). Returns at once when
  /// the daemon is on.
  [[nodiscard]] dlsim::Task<void> settle(dlsim::CpuCore* consumer_core);

  /// Hands over unit `slot`'s extents (buffers in on-device order, or a
  /// stored error per failed extent), waiting — and pumping the engine on
  /// `consumer_core` — only if the unit is not fully resident yet.
  /// Consumption must be in slot order (the provider contract). Extents
  /// the provider elided at issue time (e.g. already cache-resident
  /// samples) are simply absent.
  [[nodiscard]] dlsim::Task<AcquiredUnit> acquire(
      std::size_t slot, dlsim::CpuCore& consumer_core);

  /// Engine pressure callback: drops the farthest resident unconsumed
  /// unit and shrinks the window. Returns true if chunks were freed.
  bool relieve_pressure();

  /// Re-plans unit `slot`, just acquired with a stale plan (a read failed
  /// on a node fault, or samples it left out are reachable again), from
  /// the provider's view of the nodes now and issues all its extents at
  /// once. The consumer acquires it again; that second acquire is not
  /// counted as another pick.
  void replan(std::size_t slot);

  /// Re-issues every unconsumed window extent whose op failed — called
  /// after a down node is revalidated, so read-ahead issued while the node
  /// was unavailable is retried instead of surfacing stale errors. Returns
  /// the number of extents reissued.
  std::uint32_t reissue_failed();

  [[nodiscard]] const PrefetchStats& stats() const { return stats_; }
  [[nodiscard]] dlsim::CpuCore& core() { return *core_; }
  [[nodiscard]] std::uint32_t window_target() const { return window_target_; }

 private:
  struct Extent {
    std::uint64_t key = 0;
    ExtentOpPtr op;
  };
  struct Entry {
    std::size_t slot = 0;
    std::vector<Extent> extents;
    std::uint64_t chunks = 0;  // pool chunks this unit's extents occupy
    // Borrowed DMA target of placed extents; outlives their ops.
    mem::DmaBuffer landing{};
    bool pinned = false;  // a consumer is awaiting it; reliever must skip
    bool replanned = false;  // its first acquire already counted the pick
  };

  // Adaptive window lower bound.
  static constexpr std::uint32_t kMinUnits = 1;
  // Pool chunks kept free for demand fetches and the sample cache when
  // sizing read-ahead; top_up never takes the pool below this.
  static constexpr std::uint64_t kReserveChunks = 8;

  [[nodiscard]] std::size_t window_size() const {
    return window_.read()->size();
  }
  [[nodiscard]] static std::uint64_t extents_chunks(
      const std::vector<UnitExtent>& xs, std::uint64_t chunk_bytes);
  /// Issues unit `slot` into the window at its slot position
  /// (self-guarded; reentrant from a caller already holding the window's
  /// guard — same-task slices nest). Placed extents land in one pool chunk
  /// allocated here; a demand issue that finds the pool empty sheds
  /// read-ahead first.
  void issue_entry(std::size_t slot, std::vector<UnitExtent> xs,
                   bool replanned = false);
  /// Moves `e`'s unfinished extents, with its landing chunk, to draining_
  /// (extents cannot be cancelled); finished ones drop their buffers.
  void drain(Entry&& e);
  void top_up();
  [[nodiscard]] ExtentOpPtr oldest_unfinished();
  dlsim::Task<void> daemon_loop();

  dlsim::Simulator* sim_;
  IoEngine* engine_;
  mem::HugePagePool* pool_;
  std::uint64_t chunk_bytes_;
  PrefetcherConfig cfg_;
  std::unique_ptr<dlsim::CpuCore> core_;
  dlsim::Event wake_;
  const ReadUnitProvider* provider_ = nullptr;
  // The in-flight window in slot order (front = next to consume).
  // Checked: the daemon's top-up and a consumer's acquire both mutate it;
  // acquire ends its slices before it awaits, so they never overlap.
  dlsim::Checked<std::deque<Entry>> window_{"prefetch-window"};
  std::vector<Entry> draining_;  // abandoned entries' unfinished extents
  std::size_t next_issue_ = 0;
  std::size_t demand_floor_ = 0;  // one past the highest demanded slot
  std::size_t total_units_ = 0;
  dlsim::SimDuration fold_ns_ = 0;  // synchronous mode: see fold_compute
  std::uint32_t window_target_;
  PrefetchStats stats_;
  std::exception_ptr daemon_error_{};
  bool shutdown_ = false;
};

}  // namespace dlfs::core
