#pragma once

// IoEngine: DLFS's backend layer (§III-C) — the prep/post/poll/copy
// pipeline over SPDK queue pairs.
//
//   prep  — build one SPDK request per data chunk of the extent (requests
//           larger than the chunk size split into multiple, each with its
//           own cache chunk, exactly as §III-C.1 describes)
//   post  — submit to the target's queue pair, bounded by queue depth
//   poll  — busy-poll completion queues; every harvested completion is
//           pushed to the shared completion queue (SCQ)
//   copy  — a pool of copy threads drains the SCQ and memcpys sample data
//           from the huge-page cache chunks to the application buffer;
//           one job per sample-level piece set, or per run of samples
//           out of a resident data chunk (each job pays one completion
//           handling, plus one cross-core handoff on a copy thread)
//
// Reads are modeled as *extent operations* (ExtentOp): start_extent()
// splits an extent into chunk-sized pieces and queues them; await_op()
// drives the shared post/poll pump from the awaiting coroutine's core
// until that one extent's data is delivered. Every ExtentOp carries its
// own completion event, so independent consumers — dlfs_bread demand
// fetches and the asynchronous prefetcher's read-ahead — share one
// engine, one tag space and one queue-depth budget, and each awaits only
// the extents it actually needs while the rest complete in the
// background. A delivered extent's bytes go one of three ways: copied to
// `dst` by the copy stage, handed back as chunk buffers (take_buffers),
// or posted straight into a borrowed DMA target. read_one() is the
// demand-path convenience (start one extent, await it, rethrow its
// error).
//
// The pump runs *in the awaiting coroutine* (the paper drives DLFS with
// one I/O thread on one core; that core is charged for all prep, post,
// poll and completion-handling work it performs). A pumper with nothing
// to do busy-polls: its core is charged for every spin, but the spin is
// not simulated step by step — it idles on the engine's doorbell
// (dlsim::Doorbell) and resumes at the look its spin would have reached
// first after a state change or a known completion, retry or deadline.
// Copy threads are separate daemons with their own cores. Fig. 7(b)'s
// experiment — how much application compute can be folded into the
// polling loop — is the `injected_compute` hook, executed once per read
// batch.
//
// Hedged failover ("hedged requests", Dean & Barroso, The Tail at Scale):
// a node is *suspect* while one of its pieces has been outstanding past
// its hedge delay — kHedgeFactor times the p99 bucket of the completion
// latencies observed on its queue — until a successful completion from
// it. A piece whose extent has a live alternate then stops waiting for
// failure detection: a new piece routed to a suspect node posts to the
// first live non-suspect alternate instead, and a piece of the op a
// pumper awaits that is already in flight there is re-posted to that
// alternate (a hedge); the first completion wins. The loser keeps its own
// chunk until its own completion or timeout arrives and is neither
// harvested nor retried. Suspicion only reorders routes: the suspect copy
// stays the last resort, and the original command still times out and
// drives reconnect, node-down and repair as without hedging.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/calibration.hpp"
#include "common/stats.hpp"
#include "dlfs/qos.hpp"
#include "dlfs/sample_cache.hpp"
#include "dlfs/sample_entry.hpp"
#include "sim/check.hpp"
#include "mem/hugepage_pool.hpp"
#include "sim/cpu.hpp"
#include "sim/doorbell.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "spdk/io_queue.hpp"

namespace dlfs::core {

struct IoEngineConfig {
  std::uint64_t chunk_bytes = 256 * 1024;  // request split size (paper default)
  std::uint32_t copy_threads = 2;
  // Mid-epoch reprobe: when > 0, a background daemon revalidates down
  // nodes every `reprobe_interval` on its own core, instead of waiting
  // for the caller's epoch-boundary reprobe. 0 = epoch-boundary only.
  // The daemon only schedules timers while a node is down (it parks on
  // an event otherwise), so the simulator can quiesce once the cluster
  // is healthy; a node that never recovers keeps the timer wheel alive,
  // so such runs must be bounded with run_until/run_watchdog.
  dlsim::SimDuration reprobe_interval = 0;
};

/// Why a read ultimately failed — callers route on this: media errors are
/// sample-fatal (surface to the application), node-level faults are
/// survivable (skip the samples, finish the epoch degraded).
enum class IoErrorKind : std::uint8_t {
  kMedia,     // device returned kMediaError past the retry budget
  kTimeout,   // command deadlines kept expiring past the retry budget
  kNodeDown,  // the storage node's reconnect budget is exhausted
};

/// A read failed even after the engine's retry budget (kMaxRetries
/// re-posts) or its last route ran out.
class IoError : public std::runtime_error {
 public:
  IoError(std::uint16_t nid, std::uint64_t offset,
          IoErrorKind kind = IoErrorKind::kMedia)
      : std::runtime_error(
            std::string(kind == IoErrorKind::kNodeDown
                            ? "storage node down: node "
                            : (kind == IoErrorKind::kTimeout
                                   ? "I/O timed out on storage node "
                                   : "unrecoverable I/O error on storage "
                                     "node ")) +
            std::to_string(nid) + " at offset " + std::to_string(offset)),
        nid(nid),
        offset(offset),
        kind(kind) {}
  std::uint16_t nid;
  std::uint64_t offset;
  IoErrorKind kind;
};

/// One device extent to read, delivered one of three ways:
///   * `dst` non-null: the copy stage copies the data there; if
///     additionally `cache_sample_id` is set, the chunks are retained in
///     the sample cache afterwards (V bit set);
///   * `dst` null: the chunks stay on the ExtentOp for take_buffers()
///     (the prefetcher's read-ahead and the repair read);
///   * `dma_target` non-empty: the pieces are posted straight into it, no
///     chunk is allocated and no copy stage runs.
struct ReadExtent {
  std::uint16_t nid = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  std::byte* dst = nullptr;
  std::optional<std::size_t> cache_sample_id{};
  // Alternate placements of the same bytes (replica failover order). The
  // engine consumes hops from the front as it re-routes, so at any moment
  // the list holds exactly the untried alternates: when (nid, offset)
  // stops being reachable the extent is re-pointed at the first hop whose
  // node is up and the read restarts there instead of failing kNodeDown.
  std::vector<RouteHop> routes{};
  // Direction. Write extents (start_write) carry their payload in the
  // piece buffers instead of allocating them at post time; they have no
  // failover routes — a write targets one specific placement, and a dead
  // target fails the op with kNodeDown for the caller to re-plan.
  bool write = false;
  // Borrowed DMA target: a span (at least `len` bytes) inside a pool
  // chunk the caller owns and keeps alive until the op finishes — an SGL
  // read into registered memory. Piece k lands at k * chunk_bytes.
  std::span<std::byte> dma_target{};
};

/// Shared state of one in-flight extent read. Created by start_extent();
/// `done` fires when the extent's data is delivered (copied, or its
/// buffers handed over) or when it failed — check error() before touching
/// the data. Failures are *stored*, never thrown from the pump, so a
/// read-ahead error surfaces on whichever consumer eventually needs the
/// extent instead of killing the prefetch daemon.
class ExtentOp {
 public:
  ExtentOp(dlsim::Simulator& sim, ReadExtent x)
      : extent(std::move(x)), done(sim) {}

  ReadExtent extent;
  dlsim::Event done;

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] std::exception_ptr error() const { return error_; }

  /// Chunk buffers of a buffer-handover extent (dst == nullptr, no
  /// dma_target), in on-device order.
  /// Transfers ownership; call once, after done.
  [[nodiscard]] std::vector<mem::DmaBuffer> take_buffers() {
    return std::move(buffers_);
  }

 private:
  friend class IoEngine;
  bool finished_ = false;
  std::exception_ptr error_{};
  std::uint32_t pieces_total_ = 0;
  std::uint32_t pieces_done_ = 0;
  std::vector<mem::DmaBuffer> buffers_;  // placed by piece index
  std::vector<std::uint32_t> lens_;
  // Piece indices already delivered: with a hedge in flight, a second
  // completion of the same piece is the loser's.
  std::vector<bool> landed_;
};

using ExtentOpPtr = std::shared_ptr<ExtentOp>;

/// Work item on the shared completion queue.
struct CopyJob {
  // Either owned pieces (sample-level reads) ...
  std::vector<mem::DmaBuffer> owned_pieces;
  std::vector<std::uint32_t> piece_lens;
  // ... or borrowed views (copies out of a resident data chunk). The
  // views may span several samples packed back to back at `dst` — a run
  // of small samples shares one job, and so one completion and handoff.
  std::vector<std::span<const std::byte>> views;
  std::byte* dst = nullptr;
  std::optional<std::size_t> cache_sample_id{};
  // Counted down once per sample the job lands, after the memcpy.
  dlsim::CountdownLatch* latch = nullptr;
  std::uint32_t samples = 1;
  // Core that produced the job. A copy thread running on a different
  // core pays the cross-core handoff cost (cache-line transfer of the
  // job + first-touch misses on the data) and counts the event, so
  // locality shows up in CPU results instead of being free.
  const dlsim::CpuCore* origin = nullptr;
  ExtentOpPtr op{};  // engine-internal: completes the op after the memcpy
};

class IoEngine {
 public:
  IoEngine(dlsim::Simulator& sim, mem::HugePagePool& pool, SampleCache& cache,
           const Calibration& cal, const IoEngineConfig& config);
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  /// Registers the queue used to reach storage node `nid`.
  void attach_target(std::uint16_t nid, std::unique_ptr<spdk::IoQueue> queue);
  [[nodiscard]] std::size_t num_targets() const { return targets_.size(); }

  /// Splits the extent into chunk-sized pieces and queues them for
  /// posting. Nothing is submitted until some coroutine drives the pump
  /// via await_op() — posting, polling and completion handling are
  /// charged to whichever cores await.
  [[nodiscard]] ExtentOpPtr start_extent(ReadExtent extent);

  /// Queues a write of `pieces` (pool-owned buffers, `lens[i]` bytes each,
  /// chunk-aligned splits of one device extent) to node `nid` starting at
  /// `offset`. Rides the same posting/poll pump, queue-depth budget and
  /// fault machinery as reads — the re-replication engine uses this to
  /// stream repaired bytes to a replacement node without a second I/O
  /// path. The buffers stay owned by the op until it completes.
  [[nodiscard]] ExtentOpPtr start_write(std::uint16_t nid,
                                        std::uint64_t offset,
                                        std::vector<mem::DmaBuffer> pieces,
                                        std::vector<std::uint32_t> lens);

  /// Drives the shared pump on `core` until `op` completes (data
  /// delivered or failed). Extent failures are recorded on the op, not
  /// thrown; pool livelock (exhausted + nothing evictable + nothing in
  /// flight) still throws. With `yield_if_suspect`, it also returns,
  /// unfinished, once the op's node is suspect: the caller re-plans the
  /// read around that node (a chunk read whose samples have replicas
  /// elsewhere).
  [[nodiscard]] dlsim::Task<void> await_op(
      dlsim::CpuCore& core, ExtentOpPtr op,
      dlsim::SimDuration injected_compute = 0, bool yield_if_suspect = false);

  /// Convenience: one extent, synchronously (the dlfs_read fast path —
  /// "DLFS-Base" when used for every sample). Rethrows the extent's
  /// error.
  [[nodiscard]] dlsim::Task<void> read_one(dlsim::CpuCore& core,
                                           std::uint16_t nid,
                                           std::uint64_t offset,
                                           std::uint32_t len, std::byte* dst,
                                           std::optional<std::size_t>
                                               cache_sample_id = {},
                                           std::vector<RouteHop> routes = {});

  /// Enqueues a copy of already-resident bytes (cache hits, chunk-batched
  /// sample delivery) for the copy-thread pool; requires copy_threads >
  /// 0. The latch is counted down after the memcpy.
  [[nodiscard]] dlsim::Task<void> enqueue_copy(CopyJob job);

  /// Copy-stage work executed inline when copy_threads == 0; exposed so
  /// the API layer can account hits identically.
  [[nodiscard]] dlsim::Task<void> run_copy_inline(dlsim::CpuCore& core,
                                                  CopyJob job);
  /// Memcpy time of `job`'s bytes at the copy bandwidth (excluding the
  /// per-job completion handling and handoff).
  [[nodiscard]] dlsim::SimDuration copy_cost(const CopyJob& job) const;

  /// Called when the pool is exhausted, the sample cache has nothing
  /// evictable, and a read still needs chunks. Returns true if the
  /// callback freed at least one chunk (the prefetcher sheds its farthest
  /// read-ahead unit); false lets the pump fall through to the livelock
  /// guard.
  void set_pressure_reliever(std::function<bool()> reliever) {
    pressure_reliever_ = std::move(reliever);
  }

  /// Multi-tenant QoS: when set, every piece must be admitted by the
  /// tenant's governor before it is posted (and the grant is returned on
  /// completion). All engines of one job share one handle, so the
  /// in-flight cap and the fair-share clock are job-wide. Null = no QoS
  /// (standalone job), zero overhead.
  void set_tenant(std::shared_ptr<TenantHandle> tenant);
  [[nodiscard]] const TenantHandle* tenant() const { return tenant_.get(); }
  /// Posting-loop stalls caused by QoS admission (not queue depth).
  [[nodiscard]] std::uint64_t qos_deferrals() const { return qos_deferrals_; }
  /// Busy-polls on `core` until the tenant admits `bytes` (one ask per
  /// poll_iteration) — for transfers that bypass the posting loop, such
  /// as peer-cache reads. Requires a tenant.
  [[nodiscard]] dlsim::Task<void> admit(dlsim::CpuCore& core,
                                        std::uint32_t bytes);

  // --- node fault domain ---------------------------------------------------
  /// Fired on availability transitions of a storage node: (nid, false)
  /// when its reconnect budget is exhausted, (nid, true) when a reprobe
  /// brings it back. DLFS wires this to the sample directory's V bits.
  void set_node_down_handler(std::function<void(std::uint16_t, bool)> fn) {
    node_handler_ = std::move(fn);
  }
  [[nodiscard]] bool node_available(std::uint16_t nid) const {
    return nid >= node_down_.size() || node_down_[nid] == 0;
  }
  [[nodiscard]] std::uint32_t nodes_down() const;
  /// Hedged failover (see the header comment): true while one of the
  /// node's pieces is overdue and nothing has completed from it since.
  /// Only tracked once some read could act on it (a routed extent, or a
  /// caller that re-plans), so a run without alternates never suspects.
  [[nodiscard]] bool suspect(std::uint16_t nid) const {
    return nid < health_.size() && health_[nid].suspect;
  }
  /// Hedging left work nobody awaits: a suspect node not yet resolved
  /// (marked down, or answering again), or a loser still in flight.
  [[nodiscard]] bool unsettled() const;
  /// Pumps on `core` until !unsettled(). Losers are harvested and failure
  /// detection runs its course only while some core pumps, so the
  /// prefetch daemon calls this when it has nothing else to drive.
  [[nodiscard]] dlsim::Task<void> settle(dlsim::CpuCore& core);
  /// One revalidation pass over every down node (paced by the caller —
  /// DLFS runs it at epoch start). Returns how many nodes came back.
  [[nodiscard]] dlsim::Task<std::uint32_t> reprobe_down_nodes(
      dlsim::CpuCore& core);
  /// Aggregated transport counters across all attached queues.
  [[nodiscard]] spdk::IoQueueStats transport_stats() const;

  [[nodiscard]] const IoEngineConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t requests_posted() const { return posted_; }
  [[nodiscard]] std::uint64_t completions_harvested() const {
    return harvested_;
  }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Pieces re-posted to an alternate while their first copy was still in
  /// flight on a suspect node, and how many of those delivered first.
  /// hedges_won() <= hedges_issued().
  [[nodiscard]] std::uint64_t hedges_issued() const { return hedges_issued_; }
  [[nodiscard]] std::uint64_t hedges_won() const { return hedges_won_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint64_t bytes_copied() const { return bytes_copied_; }
  /// Aggregate busy time of the copy-thread pool.
  [[nodiscard]] dlsim::SimDuration copy_busy_ns() const;
  /// Copy jobs executed on a different core than the one that produced
  /// them (aggregated over the copy-thread pool).
  [[nodiscard]] std::uint64_t cross_core_handoffs() const;
  /// Busy ns charged to pumping cores while they idled between looks
  /// (busy-poll spinning with nothing to harvest), and how many such
  /// idle waits ended.
  [[nodiscard]] dlsim::SimDuration poll_wait_ns() const {
    return poll_wait_ns_;
  }
  [[nodiscard]] std::uint64_t poll_wakeups() const { return poll_wakeups_; }

 private:
  // Shared completion queue depth (copy jobs handed to the copy threads).
  static constexpr std::uint32_t kScqCapacity = 4096;
  // Busy-poll grid period: a spinning pumper looks again this long after
  // a poll that found nothing (plus poll_iteration per polled queue). It
  // sets where an idle pumper resumes, not a simulated step.
  static constexpr dlsim::SimDuration kPollQuantum = 500;
  // Doorbell lines: engine work/queue state, and tenant admission.
  static constexpr dlsim::Doorbell::Lines kWorkLine = 1;
  static constexpr dlsim::Doorbell::Lines kTenantLine = 2;

  // What stopped a post look with work still queued, where the wait
  // cares: the pool (unannounced) or tenant admission (its own line).
  enum class Blocked : std::uint8_t { kNothing, kPool, kTenant };
  // Transient media errors and timeouts are re-posted this many times
  // before the read fails (NVMe drivers retry retryable statuses the
  // same way).
  static constexpr std::uint32_t kMaxRetries = 3;
  // First-retry delay; doubles per attempt. Keeps a faulting device from
  // being hammered with re-posts within the same poll quantum.
  static constexpr dlsim::SimDuration kRetryBackoff = 10'000;  // 10 us
  // Hedge delay: this multiple of the p99 bucket bound of a queue's
  // observed completion latencies, once it has kHedgeMinSamples of them
  // (before that, nothing on the queue counts as overdue).
  static constexpr double kHedgeFactor = 4.0;
  static constexpr std::uint64_t kHedgeMinSamples = 4;

  struct Piece {
    ExtentOpPtr op;
    std::uint32_t idx = 0;  // position within the extent
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    mem::DmaBuffer buffer;
    std::uint32_t attempts = 0;
    dlsim::SimTime not_before = 0;  // retry backoff gate
    // Node this piece was last *posted* to. The extent may be re-routed
    // by a sibling piece while this one is in flight, so failure handling
    // compares p.nid against op->extent.nid to tell "my route died" from
    // "the op already moved on — just follow it".
    std::uint16_t nid = 0;
    dlsim::SimTime posted_at = 0;
    bool hedge = false;   // a second copy, posted while the first hung
    bool hedged = false;  // in flight, with a hedge posted elsewhere
  };

  // What the engine has observed of one target, for hedging.
  struct NodeHealth {
    // Post-to-harvest latency of successful completions, in ns.
    Histogram latency = Histogram::pow2(1'024.0, 134'217'728.0);
    std::optional<dlsim::SimDuration> hedge_delay;  // set once trusted
    bool suspect = false;
  };

  void mark_node_down(std::uint16_t nid);
  /// Re-points `x` at the first routed replica whose node is attached and
  /// up, consuming hops from the front. False when no alternate remains.
  bool advance_route(ReadExtent& x);
  /// Failure handling for a piece whose posted route (p.nid) stopped
  /// working: follows the op if a sibling already re-routed it, otherwise
  /// advances to the next live replica; requeues the piece with a fresh
  /// retry budget. False = no route left, the caller fails the op. Must
  /// run inside a pieces_ledger_ write slice.
  bool reroute_piece(Piece& p);
  /// Whether a live queue other than `nid`'s can take a post right now.
  [[nodiscard]] bool room_elsewhere(std::uint16_t nid) const;
  /// Re-points `x` at its first live non-suspect alternate; the node left
  /// goes to the back of the routes, a last resort. False when there is
  /// none.
  bool divert_route(ReadExtent& x);
  /// Flags every node with a piece outstanding past its hedge delay.
  void note_overdue();
  /// Re-posts `until`'s pieces in flight on suspect nodes to a live
  /// non-suspect alternate. Must run inside a pieces_ledger_ write slice.
  void hedge(const ExtentOp& until);
  /// When the next node `until` sits on turns suspect, if any could: the
  /// wait_any wake-up that lets hedging (or the caller's re-plan) start.
  [[nodiscard]] std::optional<dlsim::SimTime> hedge_due(const ExtentOp& until,
                                                        bool yield) const;
  /// A successful completion after `latency`: feeds the node's hedge
  /// delay and clears its suspicion.
  void note_success(std::uint16_t nid, dlsim::SimDuration latency);
  dlsim::Task<void> probe_loop(std::shared_ptr<bool> alive);
  void promote_delayed();
  // What a pump waits for: `until` delivered; delivered or its node
  // suspect; or (no op) hedging settled, see settle().
  enum class Until : std::uint8_t { kDelivered, kSuspect, kSettled };
  dlsim::Task<void> pump(dlsim::CpuCore& core, const ExtentOp* until,
                         dlsim::SimDuration injected_compute, Until mode);
  /// Poll-phase verdict on a suspect node: down if its queue failed, no
  /// longer suspect if its path answers with nothing of ours stuck there.
  void resolve_suspicion(std::uint16_t nid);
  dlsim::Task<void> finish_extent(dlsim::CpuCore& core, ExtentOpPtr op);
  static void fail_op(ExtentOp& op, std::exception_ptr e);
  dlsim::Task<void> copy_thread_loop(std::size_t idx);
  void do_copy(CopyJob& job);
  /// Idles a pumper whose round found nothing until the first look that
  /// can see something new; true when that is a poll look. `since` is the
  /// doorbell stamp from the start of the last post look.
  dlsim::Task<bool> wait_any(dlsim::CpuCore& core, std::uint64_t since,
                             Blocked blocked,
                             std::optional<dlsim::SimTime> hedge_at);
  /// Rings the work line: pumpers read what was just changed.
  void work_changed() { bell_.ring(kWorkLine); }

  dlsim::Simulator* sim_;
  mem::HugePagePool* pool_;
  SampleCache* cache_;
  const Calibration* cal_;
  IoEngineConfig config_;
  // Rung on every change a pumper reads: engine piece state, queue
  // completions and connection state, tenant admission.
  dlsim::Doorbell bell_;
  std::vector<std::unique_ptr<spdk::IoQueue>> targets_;  // index = nid
  std::unique_ptr<dlsim::Channel<CopyJob>> scq_;
  std::vector<std::unique_ptr<dlsim::CpuCore>> copy_cores_;
  // Mid-epoch reprobe daemon (reprobe_interval > 0): its own core, so
  // probe handshakes never steal cycles from the I/O thread; the alive
  // token is cleared by the destructor and checked after every await.
  // The daemon parks on probe_wake_ while every node is up (set by
  // mark_node_down) so it holds no pending timers when the cluster is
  // healthy and the simulator can quiesce. The destructor must NOT set
  // the event: the parked frame would resume into a destroyed member.
  std::unique_ptr<dlsim::CpuCore> probe_core_;
  std::unique_ptr<dlsim::Event> probe_wake_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // Engine-global piece state: all concurrent drivers (bread demand
  // fetches, the prefetch daemon) share one posting queue and one
  // in-flight map, so completions are delivered to the right extent no
  // matter which coroutine harvests them. Every pumper's touch of these
  // queues is ledgered as a suspension-free slice — concurrent pumpers
  // may interleave *between* slices, never inside one.
  mutable dlsim::AccessLedger pieces_ledger_{"engine-pieces"};
  std::deque<Piece> to_post_;
  std::vector<Piece> delayed_;  // retries waiting out their backoff
  std::unordered_map<std::uint64_t, Piece> in_flight_;
  std::uint32_t copies_pending_ = 0;  // engine copy jobs not yet executed
  std::function<bool()> pressure_reliever_;
  std::shared_ptr<TenantHandle> tenant_;  // null = ungoverned
  std::uint64_t qos_deferrals_ = 0;
  std::vector<std::uint8_t> node_down_;  // index = nid; 1 = unavailable
  std::vector<NodeHealth> health_;       // index = nid
  // Some read could act on suspicion (an extent with routes, or a caller
  // that re-plans): until then no node is ever suspected.
  bool hedging_ = false;
  std::function<void(std::uint16_t, bool)> node_handler_;
  std::uint64_t posted_ = 0;
  std::uint64_t harvested_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t hedges_issued_ = 0;
  std::uint64_t hedges_won_ = 0;
  std::uint64_t bytes_copied_ = 0;
  dlsim::SimDuration poll_wait_ns_ = 0;
  std::uint64_t poll_wakeups_ = 0;
  std::uint64_t next_tag_ = 1;
};

}  // namespace dlfs::core
