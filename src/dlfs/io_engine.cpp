#include "dlfs/io_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <utility>

#include "common/units.hpp"

namespace dlfs::core {

IoEngine::IoEngine(dlsim::Simulator& sim, mem::HugePagePool& pool,
                   SampleCache& cache, const Calibration& cal,
                   const IoEngineConfig& config)
    : sim_(&sim),
      pool_(&pool),
      cache_(&cache),
      cal_(&cal),
      config_(config),
      bell_(sim) {
  scq_ = std::make_unique<dlsim::Channel<CopyJob>>(sim, kScqCapacity);
  for (std::uint32_t i = 0; i < config_.copy_threads; ++i) {
    copy_cores_.push_back(
        std::make_unique<dlsim::CpuCore>(sim, "copy-" + std::to_string(i)));
    sim.spawn_daemon(copy_thread_loop(i), "dlfs-copy-" + std::to_string(i));
  }
  if (config_.reprobe_interval > 0) {
    probe_core_ = std::make_unique<dlsim::CpuCore>(sim, "probe");
    probe_wake_ = std::make_unique<dlsim::Event>(sim);
    sim.spawn_daemon(probe_loop(alive_), "dlfs-reprobe");
  }
}

IoEngine::~IoEngine() {
  *alive_ = false;
  if (tenant_) tenant_->unwatch(&bell_);
  scq_->close();
}

dlsim::Task<void> IoEngine::probe_loop(std::shared_ptr<bool> alive) {
  // Deadline-driven recovery: a node that heals mid-epoch comes back
  // within one interval, instead of staying "down" until the next epoch
  // boundary. The alive token is taken by value and re-checked after
  // every suspension (the engine may be destroyed while we sleep).
  // Event-gated: the daemon parks on probe_wake_ while the cluster is
  // healthy and only ticks timers while a node is down, so a healthy
  // simulator still quiesces.
  for (;;) {
    co_await probe_wake_->wait();
    if (!*alive) co_return;
    probe_wake_->reset();
    while (*alive && nodes_down() > 0) {
      co_await sim_->delay(config_.reprobe_interval);
      if (!*alive) co_return;
      if (nodes_down() == 0) break;
      const std::uint32_t recovered = co_await reprobe_down_nodes(*probe_core_);
      if (!*alive) co_return;
      (void)recovered;  // transitions are reported through node_handler_
    }
    if (!*alive) co_return;
  }
}

void IoEngine::attach_target(std::uint16_t nid,
                             std::unique_ptr<spdk::IoQueue> queue) {
  if (targets_.size() <= nid) targets_.resize(nid + 1);
  if (health_.size() <= nid) health_.resize(nid + 1);
  queue->set_doorbell(&bell_, kWorkLine);
  targets_[nid] = std::move(queue);
}

dlsim::SimDuration IoEngine::copy_cost(const CopyJob& job) const {
  std::uint64_t bytes = 0;
  for (auto l : job.piece_lens) bytes += l;
  for (const auto& v : job.views) bytes += v.size();
  return dlsim::transfer_time(bytes, cal_->dlfs.copy_bw_bytes_per_sec);
}

void IoEngine::do_copy(CopyJob& job) {
  std::byte* out = job.dst;
  std::uint64_t copied = 0;
  for (std::size_t i = 0; i < job.owned_pieces.size(); ++i) {
    const std::uint32_t n = job.piece_lens[i];
    if (out != nullptr) {
      std::memcpy(out, job.owned_pieces[i].data(), n);
      out += n;
    }
    copied += n;
  }
  for (const auto& v : job.views) {
    if (out != nullptr) {
      std::memcpy(out, v.data(), v.size());
      out += v.size();
    }
    copied += v.size();
  }
  bytes_copied_ += copied;
  if (job.cache_sample_id && !job.owned_pieces.empty()) {
    cache_->insert(*job.cache_sample_id, std::move(job.owned_pieces),
                   std::move(job.piece_lens));
  }
  if (job.latch != nullptr) job.latch->count_down(job.samples);
  if (job.op) {
    assert(copies_pending_ > 0);
    --copies_pending_;
    job.op->finished_ = true;
    job.op->done.set();
    work_changed();
  }
}

dlsim::Task<void> IoEngine::copy_thread_loop(std::size_t idx) {
  dlsim::CpuCore& core = *copy_cores_[idx];
  for (;;) {
    auto job = co_await scq_->pop();
    if (!job) co_return;
    // Batched SCQ drain: after the blocking pop, grab this thread's share
    // of the jobs already queued behind it in the same acquisition —
    // leaving the rest for the sibling copy threads — instead of a
    // park/wake round-trip through the channel per job. Per-job costs
    // (handling + memcpy time) are still charged individually so the
    // timeline of each copy is unchanged.
    std::vector<CopyJob> batch;
    batch.push_back(std::move(*job));
    std::size_t extra = scq_->size() / copy_cores_.size();
    while (extra > 0) {
      auto more = scq_->try_pop();
      if (!more) break;
      batch.push_back(std::move(*more));
      --extra;
    }
    for (CopyJob& j : batch) {
      dlsim::SimDuration cost = cal_->dlfs.completion_handling + copy_cost(j);
      if (j.origin != nullptr && j.origin != &core) {
        core.note_cross_core_handoff();
        cost += cal_->dlfs.cross_core_handoff;
      }
      co_await core.compute(cost);
      do_copy(j);
    }
  }
}

dlsim::Task<void> IoEngine::enqueue_copy(CopyJob job) {
  assert(config_.copy_threads > 0);
  co_await scq_->push(std::move(job));
}

dlsim::Task<void> IoEngine::run_copy_inline(dlsim::CpuCore& core,
                                            CopyJob job) {
  co_await core.compute(cal_->dlfs.completion_handling + copy_cost(job));
  do_copy(job);
}

dlsim::Task<bool> IoEngine::wait_any(dlsim::CpuCore& core,
                                     std::uint64_t since, Blocked blocked,
                                     std::optional<dlsim::SimTime> hedge_at) {
  // Busy-polling: all waiting time is CPU time (SPDK semantics), but the
  // spin is charged, not simulated. Its first step jumps straight to the
  // earliest known event when every outstanding queue announces its
  // completions (local devices), and is one poll quantum otherwise; after
  // that it alternates a post look and, poll_iteration x polled queues
  // later, a poll look. The pumper sleeps until the first look that can
  // see something new: a known completion, retry, deadline or hedge due
  // time, or a ring.
  const dlsim::SimTime now = sim_->now();
  std::uint64_t polled = 0;
  bool unannounced = false;  // some queue's completions arrive as rings
  std::optional<dlsim::SimTime> landing;   // earliest known completion
  std::optional<dlsim::SimTime> deadline;  // earliest command timeout
  const auto earliest = [](std::optional<dlsim::SimTime>& a, dlsim::SimTime t) {
    a = a ? std::min(*a, t) : t;
  };
  for (const auto& q : targets_) {
    if (!q || q->outstanding() == 0) continue;
    ++polled;
    if (const auto t = q->next_completion_at()) {
      earliest(landing, *t);
    } else {
      unannounced = true;
    }
    if (const auto t = q->next_timeout_at()) earliest(deadline, *t);
  }
  std::optional<dlsim::SimTime> due;  // earliest backed-off retry
  {
    dlsim::AccessSlice slice{pieces_ledger_, /*write=*/false};
    for (const Piece& p : delayed_) earliest(due, p.not_before);
  }
  std::optional<dlsim::SimTime> next = landing;
  if (due) earliest(next, *due);
  const dlsim::SpinGrid grid{
      now, !unannounced && next && *next > now ? *next - now : kPollQuantum,
      cal_->dlfs.poll_iteration * polled, kPollQuantum};
  std::optional<std::uint64_t> timer;
  const auto look_by = [&timer](std::uint64_t look) {
    timer = timer ? std::min(*timer, look) : look;
  };
  if (due) look_by(grid.first_post_at_or_after(*due));
  if (landing) look_by(grid.round_polling_at_or_after(*landing));
  if (deadline) look_by(grid.round_polling_at_or_after(*deadline));
  // A node turning suspect is seen, and hedged around, by a post look.
  if (hedge_at) look_by(grid.first_post_at_or_after(*hedge_at));
  // Pool space and cache evictability are not announced: a pumper stuck
  // on the pool looks at every post look, as the spin did.
  if (blocked == Blocked::kPool) look_by(0);
  const dlsim::Doorbell::Lines lines =
      kWorkLine | (blocked == Blocked::kTenant ? kTenantLine : 0);
  const std::uint64_t look =
      co_await bell_.idle(core, grid, lines, since, timer);
  ++poll_wakeups_;
  poll_wait_ns_ += grid.at(look) - now;
  if (blocked == Blocked::kTenant) {
    // Every post look spun through asked the governor again, in vain.
    const std::uint64_t asks = grid.posts_before(look);
    qos_deferrals_ += asks;
    tenant_->count_deferrals(asks);
  }
  co_return grid.is_poll(look);
}

dlsim::Task<void> IoEngine::admit(dlsim::CpuCore& core, std::uint32_t bytes) {
  // The asker spins on the governor once per poll_iteration; it idles on
  // the tenant line between asks that could change the answer.
  const dlsim::SimDuration step = cal_->dlfs.poll_iteration;
  for (;;) {
    const std::uint64_t since = bell_.stamp();
    if (tenant_->try_admit(bytes)) co_return;
    const dlsim::SpinGrid grid{sim_->now(), step, 0, step};
    const std::uint64_t look =
        co_await bell_.idle(core, grid, kTenantLine, since, std::nullopt);
    ++poll_wakeups_;
    poll_wait_ns_ += grid.at(look) - grid.origin;
    tenant_->count_deferrals(grid.posts_before(look));
  }
}

void IoEngine::set_tenant(std::shared_ptr<TenantHandle> tenant) {
  if (tenant_) tenant_->unwatch(&bell_);
  tenant_ = std::move(tenant);
  if (tenant_) tenant_->watch(&bell_, kTenantLine);
}

void IoEngine::fail_op(ExtentOp& op, std::exception_ptr e) {
  op.error_ = std::move(e);
  op.finished_ = true;
  op.done.set();
}

void IoEngine::mark_node_down(std::uint16_t nid) {
  if (node_down_.size() <= nid) node_down_.resize(nid + 1, 0);
  if (node_down_[nid] != 0) return;
  node_down_[nid] = 1;
  if (nid < health_.size()) health_[nid].suspect = false;  // down, not slow
  work_changed();
  if (probe_wake_) probe_wake_->set();
  if (node_handler_) node_handler_(nid, false);
}

bool IoEngine::advance_route(ReadExtent& x) {
  while (!x.routes.empty()) {
    const RouteHop hop = x.routes.front();
    x.routes.erase(x.routes.begin());
    if (hop.nid < targets_.size() && targets_[hop.nid] != nullptr &&
        node_available(hop.nid)) {
      x.nid = hop.nid;
      x.offset = hop.offset;
      return true;
    }
  }
  return false;
}

bool IoEngine::room_elsewhere(std::uint16_t nid) const {
  for (std::uint16_t n = 0; n < targets_.size(); ++n) {
    const spdk::IoQueue* q = targets_[n].get();
    if (n != nid && q != nullptr && node_available(n) &&
        q->outstanding() < q->admission_depth()) {
      return true;
    }
  }
  return false;
}

bool IoEngine::divert_route(ReadExtent& x) {
  const auto usable = [this](const RouteHop& h) {
    return h.nid < targets_.size() && targets_[h.nid] != nullptr &&
           node_available(h.nid) && !suspect(h.nid);
  };
  const auto it = std::find_if(x.routes.begin(), x.routes.end(), usable);
  if (it == x.routes.end()) return false;
  const RouteHop left{x.nid, x.offset};
  x.nid = it->nid;
  x.offset = it->offset;
  x.routes.erase(it);
  x.routes.push_back(left);  // suspicion reorders routes, never drops one
  return true;
}

void IoEngine::note_success(std::uint16_t nid, dlsim::SimDuration latency) {
  NodeHealth& h = health_[nid];
  h.suspect = false;
  h.latency.add(static_cast<double>(latency));
  if (h.latency.total() < kHedgeMinSamples) return;
  const double tail = h.latency.quantile_bound(0.99);
  if (tail == std::numeric_limits<double>::infinity()) {
    h.hedge_delay.reset();
  } else {
    h.hedge_delay = static_cast<dlsim::SimDuration>(kHedgeFactor * tail);
  }
}

void IoEngine::resolve_suspicion(std::uint16_t nid) {
  if (!suspect(nid)) return;
  const spdk::IoQueue& q = *targets_[nid];
  if (q.failed()) {
    // Hedging stopped posting to the node, so no command of ours may be
    // left to bring word that its path died: the queue says so itself.
    mark_node_down(nid);
  } else if (q.connected() && q.outstanding() == 0) {
    // Nothing of ours is stuck there and the path answers (it reconnected).
    health_[nid].suspect = false;
  }
}

void IoEngine::note_overdue() {
  if (!hedging_) return;
  const dlsim::SimTime now = sim_->now();
  dlsim::AccessSlice slice{pieces_ledger_, /*write=*/false};
  for (const auto& [tag, p] : in_flight_) {
    NodeHealth& h = health_[p.nid];
    if (!h.suspect && h.hedge_delay && node_available(p.nid) &&
        now - p.posted_at >= *h.hedge_delay) {
      h.suspect = true;
    }
  }
}

void IoEngine::hedge(const ExtentOp& until) {
  // A borrowed DMA target cannot take a second writer, and a write has
  // one placement: neither is hedged.
  if (until.error_ || !until.extent.dma_target.empty() ||
      until.extent.write) {
    return;
  }
  std::vector<std::uint64_t> tags;
  for (const auto& [tag, p] : in_flight_) {
    if (p.op.get() == &until && !p.hedged && suspect(p.nid) &&
        !until.landed_[p.idx]) {
      tags.push_back(tag);
    }
  }
  // Newest first, each to the front of the posting queue: the copies then
  // post oldest first, the same way on every run.
  std::sort(tags.begin(), tags.end(), std::greater<>());
  for (const std::uint64_t tag : tags) {
    Piece& p = in_flight_.at(tag);
    ReadExtent& x = p.op->extent;
    // Move the extent off the suspect node, or follow it if a sibling
    // already moved it somewhere healthy.
    if (x.nid == p.nid && !divert_route(x)) return;
    if (!node_available(x.nid) || suspect(x.nid)) return;
    p.hedged = true;
    Piece copy{p.op, p.idx, 0, p.len, mem::DmaBuffer{}};
    copy.hedge = true;
    to_post_.push_front(std::move(copy));
    ++hedges_issued_;
    work_changed();
  }
}

std::optional<dlsim::SimTime> IoEngine::hedge_due(const ExtentOp& until,
                                                  bool yield) const {
  if (!hedging_ || until.finished_) return std::nullopt;
  if (!yield && (until.extent.routes.empty() ||
                 !until.extent.dma_target.empty())) {
    return std::nullopt;  // nothing a suspect node could move
  }
  dlsim::AccessSlice slice{pieces_ledger_, /*write=*/false};
  std::vector<std::uint16_t> nodes;  // where `until` waits, unsuspected
  for (const auto& [tag, p] : in_flight_) {
    if (p.op.get() == &until && !p.hedged && !suspect(p.nid) &&
        health_[p.nid].hedge_delay &&
        std::find(nodes.begin(), nodes.end(), p.nid) == nodes.end()) {
      nodes.push_back(p.nid);
    }
  }
  std::optional<dlsim::SimTime> due;
  for (const auto& [tag, p] : in_flight_) {
    if (std::find(nodes.begin(), nodes.end(), p.nid) == nodes.end()) continue;
    const dlsim::SimTime t = p.posted_at + *health_[p.nid].hedge_delay;
    due = due ? std::min(*due, t) : t;
  }
  return due;
}

bool IoEngine::reroute_piece(Piece& p) {
  ReadExtent& x = p.op->extent;
  // "The op already moved on": a sibling piece re-routed the extent to a
  // node that is still up — just requeue, the posting loop follows the
  // extent's current route. Otherwise consume the next live alternate.
  const bool follow = p.nid != x.nid && node_available(x.nid);
  if (!follow && !advance_route(x)) return false;
  p.attempts = 0;  // fresh retry budget on the new node
  p.not_before = 0;
  to_post_.push_back(std::move(p));
  return true;
}

std::uint32_t IoEngine::nodes_down() const {
  std::uint32_t n = 0;
  for (const std::uint8_t d : node_down_) n += d;
  return n;
}

dlsim::Task<std::uint32_t> IoEngine::reprobe_down_nodes(dlsim::CpuCore& core) {
  std::uint32_t recovered = 0;
  for (std::uint16_t nid = 0; nid < node_down_.size(); ++nid) {
    if (node_down_[nid] == 0) continue;
    if (nid >= targets_.size() || targets_[nid] == nullptr) continue;
    co_await core.compute(cal_->dlfs.prep_request);
    // Hoisted await (repo convention). The node_down_ re-check matters:
    // the epoch-boundary reprobe and the probe_loop daemon can race on
    // the same node, and only the first one back may fire the handler.
    const bool up = co_await targets_[nid]->reprobe();
    if (up && node_down_[nid] != 0) {
      node_down_[nid] = 0;
      work_changed();
      ++recovered;
      if (node_handler_) node_handler_(nid, true);
    }
  }
  co_return recovered;
}

spdk::IoQueueStats IoEngine::transport_stats() const {
  spdk::IoQueueStats total;
  for (const auto& q : targets_) {
    if (!q) continue;
    const spdk::IoQueueStats s = q->transport_stats();
    total.timeouts += s.timeouts;
    total.connections_lost += s.connections_lost;
    total.reconnects += s.reconnects;
    total.replays += s.replays;
  }
  return total;
}

void IoEngine::promote_delayed() {
  if (delayed_.empty()) return;
  dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
  const dlsim::SimTime now = sim_->now();
  bool moved = false;
  for (auto it = delayed_.begin(); it != delayed_.end();) {
    if (it->not_before <= now) {
      to_post_.push_back(std::move(*it));
      it = delayed_.erase(it);
      moved = true;
    } else {
      ++it;
    }
  }
  if (moved) work_changed();
}

ExtentOpPtr IoEngine::start_extent(ReadExtent x) {
  if (x.nid >= targets_.size() || targets_[x.nid] == nullptr) {
    throw std::logic_error("start_extent: no queue for storage node " +
                           std::to_string(x.nid));
  }
  dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
  if (!x.routes.empty()) hedging_ = true;
  if (!node_available(x.nid) && !advance_route(x)) {
    // The node is known-down and no replica route survives: fail fast
    // instead of queueing pieces that would only burn a timeout each.
    // Callers route on the error kind.
    auto op = std::make_shared<ExtentOp>(*sim_, std::move(x));
    fail_op(*op, std::make_exception_ptr(IoError(
                     op->extent.nid, op->extent.offset,
                     IoErrorKind::kNodeDown)));
    return op;
  }
  if (!x.dma_target.empty() && x.dma_target.size() < x.len) {
    throw std::logic_error("start_extent: DMA target shorter than extent");
  }
  auto op = std::make_shared<ExtentOp>(*sim_, std::move(x));
  std::uint64_t off = op->extent.offset;
  std::uint32_t left = op->extent.len;
  std::uint32_t idx = 0;
  while (left > 0) {
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, config_.chunk_bytes));
    to_post_.push_back(Piece{op, idx++, off, n, mem::DmaBuffer{}});
    off += n;
    left -= n;
  }
  op->pieces_total_ = idx;
  if (op->extent.dma_target.empty()) op->buffers_.resize(idx);
  op->lens_.resize(idx);
  op->landed_.resize(idx);
  if (idx == 0) {  // zero-length extent: trivially done
    op->finished_ = true;
    op->done.set();
  }
  work_changed();
  return op;
}

ExtentOpPtr IoEngine::start_write(std::uint16_t nid, std::uint64_t offset,
                                  std::vector<mem::DmaBuffer> pieces,
                                  std::vector<std::uint32_t> lens) {
  if (pieces.size() != lens.size()) {
    throw std::logic_error("start_write: pieces/lens size mismatch");
  }
  if (nid >= targets_.size() || targets_[nid] == nullptr) {
    throw std::logic_error("start_write: no queue for storage node " +
                           std::to_string(nid));
  }
  ReadExtent x;
  x.nid = nid;
  x.offset = offset;
  x.write = true;
  for (const std::uint32_t l : lens) x.len += l;
  dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
  auto op = std::make_shared<ExtentOp>(*sim_, std::move(x));
  if (!node_available(nid)) {
    // Writes do not fail over: the placement was chosen against live
    // membership, so a down target means the plan is stale — surface it.
    fail_op(*op, std::make_exception_ptr(
                     IoError(nid, offset, IoErrorKind::kNodeDown)));
    return op;
  }
  op->pieces_total_ = static_cast<std::uint32_t>(pieces.size());
  op->buffers_.resize(pieces.size());
  op->lens_ = lens;
  op->landed_.resize(pieces.size());
  std::uint64_t off = offset;
  for (std::uint32_t i = 0; i < pieces.size(); ++i) {
    to_post_.push_back(Piece{op, i, off, lens[i], std::move(pieces[i])});
    off += lens[i];
  }
  if (pieces.empty()) {
    op->finished_ = true;
    op->done.set();
  }
  work_changed();
  return op;
}

dlsim::Task<void> IoEngine::finish_extent(dlsim::CpuCore& core,
                                          ExtentOpPtr op) {
  ReadExtent& x = op->extent;
  if (x.dst != nullptr) {
    CopyJob job;
    job.owned_pieces = std::move(op->buffers_);
    job.piece_lens = std::move(op->lens_);
    job.dst = x.dst;
    job.cache_sample_id = x.cache_sample_id;
    job.origin = &core;
    job.op = op;
    ++copies_pending_;
    if (config_.copy_threads == 0) {
      co_await run_copy_inline(core, std::move(job));
    } else {
      co_await enqueue_copy(std::move(job));
    }
  } else {
    op->finished_ = true;
    op->done.set();
  }
}

dlsim::Task<void> IoEngine::pump(dlsim::CpuCore& core, const ExtentOp* until,
                                 dlsim::SimDuration injected_compute,
                                 Until mode) {
  bool injected_done = injected_compute == 0;
  // The pump serves the whole engine, not just `until`: any queued or
  // in-flight piece (another bread's demand fetch, a prefetched unit) is
  // posted and harvested by whichever coroutine is pumping. We stop as
  // soon as `until` has all its pieces (its copy, if any, is awaited by
  // the caller through the op event). A yielding caller also stops once
  // the op's node is suspect, to re-plan the read around it; a settling
  // one has no op and stops once hedging has nothing left in the air.
  auto satisfied = [&] {
    if (mode == Until::kSettled) return !unsettled();
    return until->finished_ || until->pieces_done_ == until->pieces_total_ ||
           (mode == Until::kSuspect && suspect(until->extent.nid));
  };
  // What the last post look stopped on, and the doorbell stamp taken as
  // it started. A wait that resumes at a poll look spun through the post
  // look before it (nothing had changed there), so it goes straight to
  // polling and keeps both.
  Blocked blocked = Blocked::kNothing;
  std::uint64_t since = 0;
  bool at_poll_look = false;
  while (at_poll_look || !satisfied()) {
    bool progress = false;
    if (!std::exchange(at_poll_look, false)) {
      since = bell_.stamp();
      blocked = Blocked::kNothing;
      promote_delayed();  // backed-off retries whose delay has elapsed
      note_overdue();
      if (hedging_ && until != nullptr) {
        dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
        hedge(*until);
      }

      // Post while targets have queue space and the pool has chunks. The
      // sample cache shares the pool: under pressure it yields LRU entries,
      // then the prefetcher sheds read-ahead; if neither can free a chunk
      // *and* nothing is in flight the read can never make progress — fail
      // loudly instead of livelocking.
      std::size_t rotated = 0;  // pieces parked behind degraded queues
      while (!to_post_.empty()) {
        Piece p;
        spdk::IoQueue* q = nullptr;
        {
          // Suspension-free slice: claim (or reject) the head piece before
          // the prep/post compute charge suspends this pumper.
          dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
          if (to_post_.front().op->error_ ||
              to_post_.front().op->landed_[to_post_.front().idx]) {
            // The extent already failed, or a hedge race already delivered
            // this piece: drop it.
            to_post_.pop_front();
            work_changed();
            progress = true;
            continue;
          }
          std::uint16_t nid = to_post_.front().op->extent.nid;
          if (!node_available(nid)) {
            // The current route is down: re-point the extent at the first
            // live replica before giving up on its pieces.
            if (advance_route(to_post_.front().op->extent)) {
              nid = to_post_.front().op->extent.nid;
            } else {
              Piece dead = std::move(to_post_.front());
              to_post_.pop_front();
              fail_op(*dead.op, std::make_exception_ptr(IoError(
                                    nid, dead.offset, IoErrorKind::kNodeDown)));
              work_changed();
              progress = true;
              continue;
            }
          }
          // A suspect node may be dead: while the extent has a live
          // alternate, new pieces go there instead.
          if (suspect(nid) && divert_route(to_post_.front().op->extent)) {
            nid = to_post_.front().op->extent.nid;
          }
          q = targets_[nid].get();
          if (q->outstanding() >= q->admission_depth()) {
            // A full queue — healthy at its depth, or degraded at its
            // reconnect admission cap — must not head-block work for other
            // nodes: the piece steps aside to the back (pieces keep their
            // cyclic order) and posting goes on. A healthy queue frees its
            // slots through the poll phase below, so when no other live
            // queue has room either, stop at once; one full pass without a
            // post means everything left is capped — stop then too.
            if (q->connected() && q->admission_depth() >= q->depth() &&
                !room_elsewhere(nid)) {
              // Leave the queue as the rest of the pass would have.
              const std::size_t k =
                  rotated < to_post_.size() ? to_post_.size() - rotated : 0;
              std::rotate(to_post_.begin(),
                          to_post_.begin() + static_cast<std::ptrdiff_t>(k),
                          to_post_.end());
              break;
            }
            if (rotated >= to_post_.size()) break;
            ++rotated;
            to_post_.push_back(std::move(to_post_.front()));
            to_post_.pop_front();
            continue;
          }
          if (pool_->free_chunks() == 0 && !to_post_.front().buffer.valid() &&
              to_post_.front().op->extent.dma_target.empty()) {
            bool freed = cache_->evict_one();
            if (!freed && pressure_reliever_) freed = pressure_reliever_();
            if (!freed) {
              if (in_flight_.empty() && scq_->empty() && copies_pending_ == 0 &&
                  delayed_.empty()) {
                throw std::runtime_error(
                    "huge-page pool exhausted: cache pinned + nothing in "
                    "flight");
              }
              blocked = Blocked::kPool;
              break;
            }
          }
          if (tenant_ && !tenant_->try_admit(to_post_.front().len)) {
            // Tenant QoS deferred us: another job owns this share of the
            // devices right now. Completions (ours or theirs, seen via the
            // governor) advance the fairness floor; the poll phase below
            // keeps time moving until admission reopens.
            ++qos_deferrals_;
            blocked = Blocked::kTenant;
            break;
          }
          p = std::move(to_post_.front());
          to_post_.pop_front();
          work_changed();
          // Bind the piece to the extent's *current* route at post time (it
          // may have been re-routed since the piece was queued). Pieces are
          // chunk-aligned splits, so piece k starts at offset + k * chunk.
          // Write extents never re-route, so their queued offsets stand.
          p.nid = nid;
          if (!p.op->extent.write) {
            p.offset = p.op->extent.offset +
                       static_cast<std::uint64_t>(p.idx) * config_.chunk_bytes;
          }
        }
        // A borrowed DMA target takes the piece at its chunk-aligned offset;
        // otherwise the piece posts into its own chunk (a retry keeps it).
        const std::span<std::byte> target = p.op->extent.dma_target;
        if (target.empty() && !p.buffer.valid()) p.buffer = pool_->allocate();
        const std::span<std::byte> dma =
            target.empty()
                ? p.buffer.span().subspan(0, p.len)
                : target.subspan(
                      static_cast<std::size_t>(p.idx) * config_.chunk_bytes,
                      p.len);
        ++p.attempts;
        co_await core.compute(cal_->dlfs.prep_request + cal_->dlfs.sq_post);
        const std::uint64_t tag = next_tag_++;
        const auto st = q->submit(
            p.op->extent.write ? spdk::IoOp::kWrite : spdk::IoOp::kRead,
            p.offset, dma, tag);
        if (st == spdk::IoStatus::kQueueFull) {
          // The command never reached the device; hand the QoS grant back.
          if (tenant_) tenant_->cancel_admit(p.len);
          dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
          work_changed();
          if (q->connected()) {
            // A concurrent pumper filled the queue while we were prepping.
            to_post_.push_front(std::move(p));
            break;
          }
          // The queue slipped into reconnecting (and hit its admission cap)
          // mid-prep: park the piece at the back so healthy nodes keep
          // posting; its route advances when the node is declared down.
          to_post_.push_back(std::move(p));
          continue;
        }
        if (st == spdk::IoStatus::kConnectionLost) {
          // The queue's reconnect budget is spent (or the local controller
          // died): the whole node is gone, not just this piece. Fail over
          // to a surviving replica in place when the extent has one.
          if (tenant_) tenant_->cancel_admit(p.len);  // never left the host
          mark_node_down(p.nid);
          {
            dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
            if (!reroute_piece(p)) {
              fail_op(*p.op, std::make_exception_ptr(IoError(
                                 p.nid, p.offset, IoErrorKind::kNodeDown)));
            }
          }
          work_changed();
          progress = true;
          continue;
        }
        if (st != spdk::IoStatus::kOk) {
          throw std::runtime_error("unexpected submit failure in pump");
        }
        ++posted_;
        p.posted_at = sim_->now();
        {
          dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
          in_flight_.emplace(tag, std::move(p));
        }
        work_changed();
        progress = true;
      }

      // Poll every queue with work outstanding.
      std::uint64_t polled = 0;
      for (const auto& target : targets_) {
        if (!target || target->outstanding() == 0) continue;
        ++polled;
      }
      if (polled > 0) {
        co_await core.compute(cal_->dlfs.poll_iteration * polled);
      }
    }  // post look
    for (std::uint16_t nid = 0; nid < targets_.size(); ++nid) {
      spdk::IoQueue* const target = targets_[nid].get();
      if (!target) continue;
      const std::vector<spdk::IoCompletion> comps = target->poll();
      if (comps.empty()) {
        resolve_suspicion(nid);
        continue;
      }
      // Batched completion drain: every piece this poll harvested is
      // claimed under ONE ledger acquisition (the real SCQ is drained
      // with one lock hold, not one per completion), and the handling
      // cost for the whole batch is charged as a single compute slice.
      // Status routing below still processes completions in harvest
      // order, so retry/failover behaviour per piece is unchanged.
      std::vector<std::pair<spdk::IoCompletion, Piece>> ready;
      ready.reserve(comps.size());
      {
        dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
        for (const spdk::IoCompletion& c : comps) {
          auto it = in_flight_.find(c.user_tag);
          assert(it != in_flight_.end());
          ready.emplace_back(c, std::move(it->second));
          in_flight_.erase(it);
        }
      }
      work_changed();
      co_await core.compute(cal_->dlfs.completion_handling * ready.size());
      for (auto& [c, p] : ready) {
        progress = true;
        // Every harvested completion frees one QoS grant, whatever its
        // status — a retry re-admits when it is re-posted.
        if (tenant_) tenant_->on_complete(p.len);
        if (p.op->error_) continue;  // failed extent: buffer just drops
        if (p.op->landed_[p.idx] ||
            (p.hedged && c.status != spdk::IoStatus::kOk)) {
          // A hedge race's loser: the other copy delivered this piece or
          // still carries it. Its chunk drops here, with its own
          // completion; it is neither harvested nor retried, but what it
          // saw of its node still counts.
          if (c.status == spdk::IoStatus::kOk) {
            note_success(p.nid, sim_->now() - p.posted_at);
          } else if (c.status == spdk::IoStatus::kTimeout) {
            ++timeouts_;
          } else if (c.status == spdk::IoStatus::kConnectionLost) {
            mark_node_down(p.nid);
          }
          continue;
        }
        if (c.status == spdk::IoStatus::kConnectionLost) {
          // Transport gave up on the node. Re-route the piece to a
          // surviving replica in place; queued siblings follow the
          // extent's new route in the posting loop above.
          mark_node_down(p.nid);
          dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
          if (!reroute_piece(p)) {
            fail_op(*p.op, std::make_exception_ptr(IoError(
                               p.nid, p.offset, IoErrorKind::kNodeDown)));
          }
          continue;
        }
        if (c.status == spdk::IoStatus::kMediaError ||
            c.status == spdk::IoStatus::kTimeout) {
          // Transient fault: re-post the same piece (same cache chunk)
          // until the retry budget runs out, backing off per attempt so
          // retries don't hot-loop the device queue.
          if (c.status == spdk::IoStatus::kTimeout) ++timeouts_;
          if (p.attempts > kMaxRetries) {
            if (c.status == spdk::IoStatus::kTimeout) {
              // Timeout budget spent: before declaring the read failed,
              // try a replica — the node may be slow or partitioned while
              // a sibling copy is healthy. Media errors stay sample-fatal
              // (the application must hear about bad bytes).
              dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
              if (reroute_piece(p)) continue;
            }
            fail_op(*p.op,
                    std::make_exception_ptr(IoError(
                        p.nid, p.offset,
                        c.status == spdk::IoStatus::kTimeout
                            ? IoErrorKind::kTimeout
                            : IoErrorKind::kMedia)));
            continue;
          }
          ++retries_;
          dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
          p.not_before = sim_->now() +
                         (kRetryBackoff
                          << std::min<std::uint32_t>(p.attempts - 1, 10));
          delayed_.push_back(std::move(p));
          continue;
        }
        ++harvested_;
        note_success(p.nid, sim_->now() - p.posted_at);
        if (p.hedge) ++hedges_won_;
        ExtentOp& op = *p.op;
        if (p.buffer.valid()) op.buffers_[p.idx] = std::move(p.buffer);
        op.lens_[p.idx] = p.len;
        op.landed_[p.idx] = true;
        if (++op.pieces_done_ == op.pieces_total_) {
          work_changed();
          co_await finish_extent(core, p.op);
        }
      }
      work_changed();
      resolve_suspicion(nid);
    }

    // Fig. 7b: application compute folded into this batch's polling loop,
    // once per read batch — the paper measures how much concurrent
    // computation one mini-batch's I/O can hide. It runs after the first
    // posting round so the device works underneath it.
    if (!injected_done) {
      injected_done = true;
      co_await core.compute(injected_compute);
      progress = true;  // time passed; re-poll before deciding to wait
    }

    if (!progress && !satisfied()) {
      // Hoisted out of the co_await expression (GCC 12 miscompiles a
      // conditional there).
      std::optional<dlsim::SimTime> hedge_at;
      if (until != nullptr) {
        hedge_at = hedge_due(*until, mode == Until::kSuspect);
      }
      at_poll_look = co_await wait_any(core, since, blocked, hedge_at);
    }
  }
}

dlsim::Task<void> IoEngine::await_op(dlsim::CpuCore& core, ExtentOpPtr op,
                                     dlsim::SimDuration injected_compute,
                                     bool yield_if_suspect) {
  if (yield_if_suspect) hedging_ = true;
  co_await pump(core, op.get(), injected_compute,
                yield_if_suspect ? Until::kSuspect : Until::kDelivered);
  if (op->pieces_done_ < op->pieces_total_) co_return;  // yielded
  if (!op->finished_) co_await op->done.wait();  // copy stage completing
}

bool IoEngine::unsettled() const {
  if (hedges_issued_ == 0) return false;
  for (const NodeHealth& h : health_) {
    if (h.suspect) return true;
  }
  dlsim::AccessSlice slice{pieces_ledger_, /*write=*/false};
  return std::any_of(in_flight_.begin(), in_flight_.end(), [](const auto& e) {
    return e.second.op->landed_[e.second.idx];
  });
}

dlsim::Task<void> IoEngine::settle(dlsim::CpuCore& core) {
  return pump(core, nullptr, 0, Until::kSettled);
}

dlsim::Task<void> IoEngine::read_one(dlsim::CpuCore& core, std::uint16_t nid,
                                     std::uint64_t offset, std::uint32_t len,
                                     std::byte* dst,
                                     std::optional<std::size_t>
                                         cache_sample_id,
                                     std::vector<RouteHop> routes) {
  const ExtentOpPtr op = start_extent(
      ReadExtent{nid, offset, len, dst, cache_sample_id, std::move(routes)});
  co_await await_op(core, op);
  if (op->error()) std::rethrow_exception(op->error());
}

dlsim::SimDuration IoEngine::copy_busy_ns() const {
  dlsim::SimDuration total = 0;
  for (const auto& c : copy_cores_) total += c->busy_ns();
  return total;
}

std::uint64_t IoEngine::cross_core_handoffs() const {
  std::uint64_t total = 0;
  for (const auto& c : copy_cores_) total += c->cross_core_handoffs();
  return total;
}

}  // namespace dlfs::core
