#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>

namespace dlsim {

Simulator* Simulator::current_sim_ = nullptr;

std::string current_task_label() {
  Simulator* sim = Simulator::current();
  return sim ? sim->current_task_name() : std::string("<main>");
}

const void* current_task_id() {
  Simulator* sim = Simulator::current();
  return sim ? static_cast<const void*>(sim->current_process()) : nullptr;
}

std::string Simulator::current_task_name() const {
  if (!current_) return "<main>";
  return current_->name.empty() ? "<unnamed>" : current_->name;
}

Simulator::~Simulator() {
  // Tear down an aborted simulation without double-frees: queue entries are
  // *non-owning* references to suspended frames, so they are never destroyed
  // directly. Instead we destroy each live process' root frame; destroying a
  // suspended coroutine runs the destructors of its locals, which recursively
  // destroys every child Task frame it owns (including any whose handle sits
  // in the queue).
  while (!queue_.empty()) queue_.pop();
  for (auto& p : processes_) {
    if (p->root) {
      p->root.destroy();
      p->root = {};
    }
  }
}

void Simulator::schedule_at(SimTime t, std::coroutine_handle<> h,
                            detail::ProcessState* owner) {
  assert(h && "scheduling a null coroutine handle");
  assert(t >= now_ && "scheduling into the past");
  queue_.push(Item{EventKey{t, now_, seq_++}, h, owner});
}

SimTime SpinGrid::at(std::uint64_t look) const {
  const SimTime t0 = origin + first;
  if (poll == 0) return t0 + look * quantum;
  return t0 + (look / 2) * (poll + quantum) + (look % 2) * poll;
}

std::uint64_t SpinGrid::first_at_or_after(SimTime t) const {
  const SimTime t0 = origin + first;
  if (t <= t0) return 0;
  const SimDuration d = t - t0;
  if (poll == 0) return (d + quantum - 1) / quantum;
  const SimDuration period = poll + quantum;
  const std::uint64_t round = d / period;
  const SimDuration rem = d % period;
  if (rem == 0) return 2 * round;
  return rem <= poll ? 2 * round + 1 : 2 * round + 2;
}

std::uint64_t SpinGrid::first_post_at_or_after(SimTime t) const {
  const std::uint64_t look = first_at_or_after(t);
  return is_poll(look) ? look + 1 : look;
}

std::uint64_t SpinGrid::round_polling_at_or_after(SimTime t) const {
  const std::uint64_t look = first_at_or_after(t);
  return is_poll(look) ? look - 1 : look;
}

void Simulator::park_poller(IdlePoller& p, bool wake_now) {
  assert(p.grid.first > 0 && p.grid.quantum > 0 && "a spin must advance");
  p.look = 0;
  p.queued = false;
  // The FIFO number the spin's first step would have taken right here.
  p.key = EventKey{p.grid.at(0), now_, seq_++};
  p.owner = current_;
  if (wake_now || p.timer == 0u) {
    p.timer = 0;
    schedule_poller(p);
    return;
  }
  pollers_.push_back(&p);
  if (p.timer) ++timed_pollers_;
}

void Simulator::wake_poller(IdlePoller& p) {
  if (p.queued) return;  // already resuming at its timer look
  drop_poller(static_cast<std::size_t>(
      std::find(pollers_.begin(), pollers_.end(), &p) - pollers_.begin()));
  schedule_poller(p);
}

void Simulator::schedule_poller(IdlePoller& p) {
  assert(p.key.at >= now_);
  p.queued = true;
  queue_.push(Item{p.key, p.h, p.owner});
}

void Simulator::drop_poller(std::size_t i) {
  assert(i < pollers_.size());
  if (pollers_[i]->timer) --timed_pollers_;
  pollers_[i] = pollers_.back();
  pollers_.pop_back();
}

void Simulator::pass_looks(const EventKey* bound) {
  while (!pollers_.empty()) {
    // Without a bound, untimed pollers alone never need another look.
    if (queue_.empty() && bound == nullptr && timed_pollers_ == 0) return;
    std::size_t w = 0;
    for (std::size_t i = 1; i < pollers_.size(); ++i) {
      if (pollers_[i]->key < pollers_[w]->key) w = i;
    }
    // The earliest poller passes every look that runs before the next
    // queued event, the next other poller's look and the bound.
    std::optional<EventKey> limit;
    const auto cap = [&limit](const EventKey& k) {
      if (!limit || k < *limit) limit = k;
    };
    if (bound != nullptr) cap(*bound);
    if (!queue_.empty()) cap(queue_.top().key);
    for (std::size_t i = 0; i < pollers_.size(); ++i) {
      if (i != w) cap(pollers_[i]->key);
    }
    IdlePoller& p = *pollers_[w];
    if (limit ? !(p.key < *limit) : !p.timer) return;
    // Its step at each look would only have scheduled the next one, and
    // nothing else runs in between, so only the last step's FIFO number
    // matters.
    const SpinGrid& g = p.grid;
    std::uint64_t next = p.look + 1;
    if (limit) {
      // A look at the limit's instant runs before it only if it was
      // scheduled earlier: one scheduled at the same instant takes a
      // fresh FIFO number, so it runs after.
      std::uint64_t look = g.first_at_or_after(limit->at);
      if (look > 0 && g.at(look) == limit->at &&
          g.at(look - 1) < limit->sched) {
        ++look;
      }
      next = std::max(next, look);
    }
    if (p.timer) next = std::min(next, *p.timer);
    p.look = next;
    p.key = EventKey{g.at(next), g.at(next - 1), seq_++};
    if (p.timer && next == *p.timer) {
      drop_poller(w);
      schedule_poller(p);
    }
  }
}

Task<void> Simulator::process_wrapper(
    Task<void> inner, std::shared_ptr<detail::ProcessState> st, bool daemon) {
  try {
    co_await std::move(inner);
  } catch (...) {
    st->error = std::current_exception();
  }
  st->done = true;
  st->root = {};  // the frame self-destroys at final suspend
  if (!daemon) --live_;
  for (const auto& j : st->joiners) schedule_now(j.h, j.owner);
  st->joiners.clear();
}

Process Simulator::spawn_impl(Task<void> t, std::string name, bool daemon) {
  assert(t.valid() && "spawning an empty Task");
  auto st = std::make_shared<detail::ProcessState>();
  st->name = std::move(name);
  st->daemon = daemon;
  processes_.push_back(st);
  if (!daemon) ++live_;
  Task<void> wrapper = process_wrapper(std::move(t), st, daemon);
  auto h = wrapper.release();
  h.promise().self_destroy = true;
  st->root = h;
  schedule_now(h, st.get());
  return Process{st};
}

Process Simulator::spawn(Task<void> t, std::string name) {
  return spawn_impl(std::move(t), std::move(name), /*daemon=*/false);
}

Process Simulator::spawn_daemon(Task<void> t, std::string name) {
  return spawn_impl(std::move(t), std::move(name), /*daemon=*/true);
}

bool Simulator::step() {
  pass_looks();
  if (queue_.empty()) return false;
  Item item = queue_.top();
  queue_.pop();
  now_ = item.key.at;
  ++processed_;
  // Publish the running task's identity for the duration of this slice
  // (saved/restored so a simulation stepped from inside another
  // simulation's process attributes correctly).
  Simulator* prev_sim = current_sim_;
  current_sim_ = this;
  current_ = item.owner;
  item.h.resume();
  current_ = nullptr;
  current_sim_ = prev_sim;
  return true;
}

void Simulator::run(bool allow_blocked) {
  while (step()) {
  }
  if (!allow_blocked && live_ > 0) {
    throw DeadlockError(blocked_process_names(), now_);
  }
}

void Simulator::run_watchdog(SimTime deadline) {
  for (;;) {
    pass_looks();
    if (queue_.empty() || (live_ != 0 && queue_.top().key.at > deadline)) {
      break;
    }
    step();
  }
  if (live_ > 0) throw DeadlockError(blocked_process_names(), now_);
}

std::vector<std::string> Simulator::blocked_process_names() const {
  std::vector<std::string> names;
  for (const auto& p : processes_) {
    if (!p->done && !p->daemon) names.push_back(p->name);
  }
  return names;
}

void Simulator::run_until(SimTime t) {
  for (;;) {
    pass_looks();
    if (queue_.empty() || queue_.top().key.at > t) break;
    step();
  }
  // Idle pollers' looks up to t have run too.
  const EventKey bound{t + 1, 0, 0};
  pass_looks(&bound);
  if (t > now_) now_ = t;
}

void Simulator::rethrow_failures() const {
  for (const auto& p : processes_) {
    if (p->error) std::rethrow_exception(p->error);
  }
}

Task<void> Process::join() const {
  auto st = state_;
  if (!st) co_return;
  if (!st->done) {
    struct Awaiter {
      detail::ProcessState* st;
      bool await_ready() const noexcept { return st->done; }
      void await_suspend(std::coroutine_handle<> h) {
        Simulator* sim = Simulator::current();
        st->joiners.push_back(
            detail::Parked{h, sim ? sim->current_process() : nullptr});
      }
      void await_resume() const noexcept {}
    };
    co_await Awaiter{st.get()};
  }
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace dlsim
