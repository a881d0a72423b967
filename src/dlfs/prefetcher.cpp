#include "dlfs/prefetcher.hpp"

#include <algorithm>
#include <utility>

#include "common/units.hpp"

namespace dlfs::core {

Prefetcher::Prefetcher(dlsim::Simulator& sim, IoEngine& engine,
                       mem::HugePagePool& pool, std::uint64_t chunk_bytes,
                       PrefetcherConfig config, const std::string& name)
    : sim_(&sim),
      engine_(&engine),
      pool_(&pool),
      chunk_bytes_(chunk_bytes),
      cfg_(config),
      wake_(sim) {
  cfg_.max_units = std::max(cfg_.max_units, kMinUnits);
  window_target_ = std::clamp(cfg_.initial_units, kMinUnits, cfg_.max_units);
  stats_.window_target = window_target_;
  core_ = std::make_unique<dlsim::CpuCore>(sim, name);
  if (cfg_.enabled) sim.spawn_daemon(daemon_loop(), name);
}

Prefetcher::~Prefetcher() {
  shutdown_ = true;
  wake_.set();
}

void Prefetcher::start_epoch(const ReadUnitProvider* provider) {
  // Extents cannot be cancelled: unfinished read-ahead from the previous
  // epoch keeps draining on the daemon and its buffers drop on arrival.
  // Finished entries release their chunks right here, with the ops.
  {
    auto w = window_.write();
    for (auto& e : *w) drain(std::move(e));
    w->clear();
  }
  provider_ = provider;
  next_issue_ = 0;
  demand_floor_ = 0;
  total_units_ = provider ? provider->num_units() : 0;
  wake_.set();
}

std::uint64_t Prefetcher::extents_chunks(const std::vector<UnitExtent>& xs,
                                         std::uint64_t chunk_bytes) {
  // Placed extents share one landing chunk, so a replica-planned chunk
  // unit weighs what its healthy twin does.
  std::uint64_t n = 0;
  bool placed = false;
  for (const auto& x : xs) {
    if (x.placement) {
      placed = true;
    } else {
      n += ceil_div(x.len, chunk_bytes);
    }
  }
  return n + (placed ? 1 : 0);
}

void Prefetcher::issue_entry(std::size_t slot, std::vector<UnitExtent> xs,
                             bool replanned) {
  Entry e;
  e.slot = slot;
  e.replanned = replanned;
  e.chunks = extents_chunks(xs, chunk_bytes_);
  const bool placed = std::any_of(xs.begin(), xs.end(), [](const auto& x) {
    return x.placement.has_value();
  });
  if (placed) {
    if (pool_->free_chunks() == 0) (void)relieve_pressure();
    e.landing = pool_->allocate();
    ++stats_.units_replanned;
  }
  e.extents.reserve(xs.size());
  for (auto& x : xs) {
    ReadExtent rx{x.nid, x.offset, x.len, nullptr, std::nullopt,
                  std::move(x.routes)};
    if (x.placement) rx.dma_target = e.landing.span().subspan(*x.placement);
    Extent ex;
    ex.key = x.key;
    ex.op = engine_->start_extent(std::move(rx));
    e.extents.push_back(std::move(ex));
  }
  {
    // Read-ahead appends; a demand re-issue or re-plan goes back in front
    // of the larger slots already windowed.
    auto w = window_.write();
    auto pos = std::upper_bound(
        w->begin(), w->end(), slot,
        [](std::size_t s, const Entry& x) { return s < x.slot; });
    w->insert(pos, std::move(e));
  }
  ++stats_.units_issued;
  stats_.in_flight_hwm = std::max(
      stats_.in_flight_hwm, static_cast<std::uint32_t>(window_size()));
  wake_.set();
}

void Prefetcher::ensure_issued_through(std::size_t slot,
                                       std::size_t sync_ahead) {
  if (provider_ == nullptr) return;
  demand_floor_ = std::max(demand_floor_, slot + 1);
  const std::size_t last = cfg_.enabled ? slot : slot + sync_ahead;
  while (next_issue_ <= last && next_issue_ < total_units_) {
    issue_entry(next_issue_, provider_->unit_extents(next_issue_));
    ++next_issue_;
  }
}

void Prefetcher::top_up() {
  if (provider_ == nullptr) return;
  // The target is read-ahead depth beyond the demanded batch: demand
  // issues never count against it, so the device keeps working on future
  // units even while the consumer drains the current batch.
  const std::size_t limit = std::min<std::size_t>(
      total_units_, demand_floor_ + window_target_);
  while (next_issue_ < limit) {
    auto xs = provider_->unit_extents(next_issue_);
    const std::uint64_t need = extents_chunks(xs, chunk_bytes_);
    if (pool_->free_chunks() < need + kReserveChunks) {
      // No pool headroom for more read-ahead: adapt the target down to
      // the depth actually sustained instead of thrashing.
      const auto depth = static_cast<std::uint32_t>(
          next_issue_ > demand_floor_ ? next_issue_ - demand_floor_ : 0);
      const auto floor_target = std::clamp(depth, kMinUnits, window_target_);
      if (window_target_ > floor_target) {
        window_target_ = floor_target;
        ++stats_.window_shrinks;
        stats_.window_target = window_target_;
      }
      return;
    }
    issue_entry(next_issue_, std::move(xs));
    ++next_issue_;
  }
}

void Prefetcher::drain(Entry&& e) {
  std::erase_if(e.extents,
                [](const Extent& x) { return x.op->finished(); });
  if (!e.extents.empty()) draining_.push_back(std::move(e));
}

ExtentOpPtr Prefetcher::oldest_unfinished() {
  for (const Entry& e : draining_) {
    for (const Extent& x : e.extents) {
      if (!x.op->finished()) return x.op;
    }
  }
  auto w = window_.read();
  for (const Entry& e : *w) {
    for (const Extent& x : e.extents) {
      if (!x.op->finished()) return x.op;
    }
  }
  return nullptr;
}

bool Prefetcher::relieve_pressure() {
  // Shed the farthest resident, unconsumed unit: its chunks unblock
  // demand I/O now, and the consumer demand-fetches it again when the
  // cursor gets there. Entries being awaited (pinned) and unfinished ones
  // (chunks still in flight) cannot yield memory.
  auto w = window_.write();
  auto it = std::find_if(w->rbegin(), w->rend(), [](const Entry& e) {
    if (e.pinned || e.chunks == 0) return false;
    return std::all_of(e.extents.begin(), e.extents.end(),
                       [](const Extent& x) {
                         return x.op->finished() && !x.op->error();
                       });
  });
  if (it == w->rend()) return false;
  for (auto& x : it->extents) {
    (void)x.op->take_buffers();  // DmaBuffers drop -> chunks freed
  }
  ++stats_.units_dropped;
  if (window_target_ > kMinUnits) {
    --window_target_;
    ++stats_.window_shrinks;
    stats_.window_target = window_target_;
  }
  w->erase(std::next(it).base());
  return true;
}

void Prefetcher::replan(std::size_t slot) {
  issue_entry(slot, provider_->unit_extents(slot), /*replanned=*/true);
}

std::uint32_t Prefetcher::reissue_failed() {
  if (provider_ == nullptr) return 0;
  std::uint32_t n = 0;
  auto w = window_.write();
  for (auto& e : *w) {
    if (e.pinned) continue;
    for (auto& x : e.extents) {
      if (!x.op->error()) continue;
      // An op can carry an error while pieces still drain; those buffers
      // cannot be reused, so the old op keeps draining off to the side.
      if (!x.op->finished()) draining_.push_back(Entry{e.slot, {x}});
      // The failed op's extent already consumed the routes it tried, so
      // its routes hold exactly the untried alternates: the reissue
      // resumes the failover walk instead of restarting it. A reissue
      // after the node *recovered* simply succeeds on its nid directly.
      // A placed extent lands in the same span of the entry's chunk.
      ReadExtent again = x.op->extent;
      x.op = engine_->start_extent(std::move(again));
      ++stats_.units_reissued;
      ++n;
    }
  }
  if (n > 0) wake_.set();
  return n;
}

dlsim::Task<AcquiredUnit> Prefetcher::acquire(
    std::size_t slot, dlsim::CpuCore& consumer_core) {
  if (daemon_error_) std::rethrow_exception(daemon_error_);
  demand_floor_ = std::max(demand_floor_, slot + 1);
  auto find_entry = [slot](std::deque<Entry>& w) {
    return std::find_if(w.begin(), w.end(),
                        [slot](const Entry& e) { return e.slot == slot; });
  };
  // First slice: locate (or demand-issue) the unit and decide whether we
  // must stall. The window guard is scoped to end *before* the awaits —
  // the daemon legitimately tops the window up while we are parked.
  std::vector<ExtentOpPtr> ops;  // non-empty => the stall path was taken
  {
    auto w = window_.write();
    auto it = find_entry(*w);
    if (it == w->end()) {
      if (slot >= next_issue_) {
        ensure_issued_through(slot);
      } else {
        // The unit was shed under pool pressure; demand re-fetch it.
        issue_entry(slot, provider_->unit_extents(slot));
      }
      it = find_entry(*w);
    }
    const bool resident = std::all_of(
        it->extents.begin(), it->extents.end(),
        [](const Extent& x) { return x.op->finished(); });
    // A re-planned unit was picked (and counted) by its first acquire; its
    // wait is a fault's, not a sign of a shallow window.
    const bool pick = !it->replanned;
    if (resident) {
      if (pick) ++stats_.units_resident_at_pick;
    } else {
      // The window was not deep enough to cover this consumer's
      // inter-arrival time — stall (pumping the engine on the consumer's
      // core, like a demand fetch) and deepen the daemon's window.
      if (pick) ++stats_.units_stalled;
      if (pick && cfg_.enabled && window_target_ < cfg_.max_units) {
        ++window_target_;
        ++stats_.window_grows;
        stats_.window_target = window_target_;
      }
      it->pinned = true;
      // Snapshot the ops: the window may shift while awaiting.
      ops.reserve(it->extents.size());
      for (const auto& x : it->extents) ops.push_back(x.op);
    }
  }
  if (!ops.empty()) {
    const dlsim::SimTime t0 = sim_->now();
    // A unit whose bytes also live elsewhere does not wait for failure
    // detection on a suspect home: it is re-planned from the replicas.
    bool yield = provider_->replannable(slot);
    for (;;) {
      bool stuck = false;  // yielded: an extent sits on a suspect node
      for (const auto& op : ops) {
        if (op->finished()) continue;
        if (!yield || !engine_->suspect(op->extent.nid)) {
          co_await engine_->await_op(consumer_core, op,
                                     std::exchange(fold_ns_, 0), yield);
        }
        if (!op->finished()) {
          stuck = true;
          break;
        }
      }
      if (!stuck) break;
      {
        // The stuck extents drain off to the side with their chunks; the
        // re-planned unit takes the slot.
        auto w = window_.write();
        auto it = find_entry(*w);
        drain(std::move(*it));
        w->erase(it);
      }
      replan(slot);
      yield = false;
      {
        auto w = window_.write();
        auto it = find_entry(*w);
        it->pinned = true;
        ops.clear();
        for (const auto& x : it->extents) ops.push_back(x.op);
      }
    }
    stats_.stall_ns += sim_->now() - t0;
  }
  // Second slice: hand the unit over and release its window entry.
  AcquiredUnit unit;
  {
    auto w = window_.write();
    auto it = find_entry(*w);
    unit.extents.reserve(it->extents.size());
    for (auto& x : it->extents) {
      AcquiredExtent ax;
      ax.key = x.key;
      ax.error = x.op->error();
      if (!ax.error) ax.buffers = x.op->take_buffers();
      unit.extents.push_back(std::move(ax));
    }
    unit.landing = std::move(it->landing);
    w->erase(it);
  }
  // Window space freed: the daemon can read further ahead — unless it is
  // pumping a read stuck on a suspect node, or settling hedges, until
  // failure detection ends it; then the consumer tops the window up.
  if (daemon_settling_ ||
      (daemon_op_ && engine_->suspect(daemon_op_->extent.nid))) {
    top_up();
  }
  wake_.set();
  co_return unit;
}

bool Prefetcher::fold_compute(dlsim::SimDuration d) {
  if (cfg_.enabled) return false;
  fold_ns_ += d;
  return true;
}

dlsim::Task<void> Prefetcher::settle(dlsim::CpuCore* consumer_core) {
  if (cfg_.enabled) co_return;
  while (ExtentOpPtr op = oldest_unfinished()) {
    co_await engine_->await_op(*consumer_core, op,
                               std::exchange(fold_ns_, 0));
  }
  draining_.clear();
  // No wait absorbed the folded compute: the polling loop still ran it.
  if (fold_ns_ > 0) {
    co_await consumer_core->compute(std::exchange(fold_ns_, 0));
  }
}

dlsim::Task<void> Prefetcher::daemon_loop() {
  for (;;) {
    wake_.reset();
    if (shutdown_) co_return;
    try {
      top_up();
      if (ExtentOpPtr op = oldest_unfinished()) {
        daemon_op_ = op;
        co_await engine_->await_op(*core_, op);
        daemon_op_ = nullptr;
        for (Entry& e : std::exchange(draining_, {})) drain(std::move(e));
        continue;
      }
      if (engine_->unsettled()) {
        daemon_settling_ = true;
        co_await engine_->settle(*core_);
        daemon_settling_ = false;
        continue;
      }
    } catch (...) {
      // Engine-level failures (pool livelock) are stored and rethrown to
      // the next consumer; a daemon must never take the simulation down.
      daemon_error_ = std::current_exception();
      co_return;
    }
    co_await wake_.wait();
  }
}

}  // namespace dlfs::core
