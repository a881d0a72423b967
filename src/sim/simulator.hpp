#pragma once

// Simulator: the discrete-event loop at the heart of the repository.
//
// Every piece of the reproduced system — NVMe devices, NICs, kernel
// syscall paths, DLFS copy threads — is a coroutine (Task<void>) spawned
// onto one Simulator. The Simulator owns a time-ordered queue of
// resumptions; `co_await sim.delay(d)` suspends the current coroutine and
// resumes it d simulated nanoseconds later. Events at the same timestamp
// run in FIFO spawn order, so every run is bit-for-bit deterministic.
//
// The host process is single-threaded; all concurrency is simulated.

#include <compare>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/check.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dlsim {

class Simulator;

/// Thrown by Simulator::run() when the event queue drains while spawned
/// processes are still blocked (the simulated system has deadlocked) and
/// by run_watchdog() when live processes outlast the watchdog deadline.
/// Carries the names of the blocked non-daemon processes so a hung fault
/// path identifies itself instead of stalling the job.
class DeadlockError : public std::runtime_error {
 public:
  DeadlockError(std::vector<std::string> names, SimTime at)
      : std::runtime_error(format(names, at)),
        blocked_names(std::move(names)),
        time(at) {
    blocked_processes = blocked_names.size();
  }
  std::size_t blocked_processes = 0;
  std::vector<std::string> blocked_names;
  SimTime time;

 private:
  static std::string format(const std::vector<std::string>& names,
                            SimTime at) {
    std::string msg = "simulation deadlock: " + std::to_string(names.size()) +
                      " process(es) blocked at t=" + std::to_string(at) +
                      "ns [";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) msg += ", ";
      msg += names[i].empty() ? "<unnamed>" : names[i];
    }
    msg += "]";
    return msg;
  }
};

namespace detail {
struct ProcessState;

/// A parked coroutine handle plus the process it belongs to. Owners ride
/// along through every park/schedule hop so that, when the handle is
/// eventually resumed, the Simulator knows which simulated task is
/// executing — the identity the lock-order and Checked<T> diagnostics
/// attribute their findings to.
struct Parked {
  std::coroutine_handle<> h;
  ProcessState* owner = nullptr;
};

struct ProcessState {
  bool done = false;
  bool daemon = false;
  std::exception_ptr error;
  std::string name;
  std::vector<Parked> joiners;
  // Root coroutine frame of the process; non-null while the process is
  // alive. Destroying it cascades into every child frame it owns, which is
  // how Simulator::~Simulator tears down an aborted simulation safely.
  std::coroutine_handle<> root{};
};
}  // namespace detail

/// Where an event sits in the run order: by time, then by when it was
/// scheduled, then FIFO among events scheduled at the same instant. An
/// ordinary schedule_at() stamps `sched` with the current time and takes
/// the next FIFO number, so the order is plain FIFO per timestamp.
struct EventKey {
  SimTime at = 0;
  SimTime sched = 0;
  std::uint64_t seq = 0;
  friend auto operator<=>(const EventKey&, const EventKey&) = default;
};

/// The instants at which a busy-poll loop that has just found nothing at
/// `origin` would look again if it kept spinning. The loop alternates two
/// looks: a *post* look (take new work) and, `poll` ns later, a *poll*
/// look (harvest completions); `quantum` ns after a poll look comes the
/// next post look. Look 0 is the first post look, `first` ns after
/// `origin`. With `poll` = 0 both happen at one instant and every look is
/// a post look. `first` and `quantum` must be positive.
struct SpinGrid {
  SimTime origin = 0;
  SimDuration first = 0;
  SimDuration poll = 0;
  SimDuration quantum = 0;

  [[nodiscard]] SimTime at(std::uint64_t look) const;
  [[nodiscard]] bool is_poll(std::uint64_t look) const {
    return poll > 0 && look % 2 == 1;
  }
  /// How many post looks come before `look`.
  [[nodiscard]] std::uint64_t posts_before(std::uint64_t look) const {
    return poll > 0 ? (look + 1) / 2 : look;
  }
  /// First look (either kind) at or after `t`.
  [[nodiscard]] std::uint64_t first_at_or_after(SimTime t) const;
  /// First post look at or after `t` (where a retry due at `t` posts).
  [[nodiscard]] std::uint64_t first_post_at_or_after(SimTime t) const;
  /// The post look that leads into the first poll look at or after `t`
  /// (a completion known to land at `t` is harvested by that round).
  [[nodiscard]] std::uint64_t round_polling_at_or_after(SimTime t) const;
};

/// A busy-poller that idles instead of simulating its spin (see
/// sim/doorbell.hpp). The Simulator tracks where its next look would sit
/// in the run order — each look takes its FIFO number as the run passes
/// it, exactly as the spin's step would have — without resuming anything,
/// and resumes the poller at that look when woken.
struct IdlePoller {
  SpinGrid grid;
  std::optional<std::uint64_t> timer;  // look to resume at if not woken
  std::uint64_t look = 0;              // next look not yet passed
  EventKey key{};                      // its place in the run order
  std::coroutine_handle<> h{};
  detail::ProcessState* owner = nullptr;
  bool queued = false;  // its resumption is scheduled
};

/// Handle to a spawned top-level coroutine. Copyable; all copies refer to
/// the same underlying process.
class Process {
 public:
  Process() = default;

  [[nodiscard]] bool done() const { return state_ && state_->done; }
  [[nodiscard]] bool failed() const { return state_ && state_->error != nullptr; }
  [[nodiscard]] const std::string& name() const { return state_->name; }

  /// Rethrows the process' terminal exception, if any.
  void rethrow() const {
    if (state_ && state_->error) std::rethrow_exception(state_->error);
  }

  /// Awaitable: suspends until the process finishes, then rethrows its
  /// error (if any) in the awaiting coroutine.
  [[nodiscard]] Task<void> join() const;

 private:
  friend class Simulator;
  explicit Process(std::shared_ptr<detail::ProcessState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::ProcessState> state_;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::size_t live_processes() const { return live_; }

  /// Schedules a raw coroutine resumption (used by awaitables and the sync
  /// primitives; application code should prefer delay()/spawn()). The
  /// two-argument form attributes the handle to the currently executing
  /// process — correct for self-suspension (delay/yield); wakers passing
  /// on a *parked* handle must use the owner-carrying overload so the
  /// resumption is attributed to the parked task, not the waker.
  void schedule_at(SimTime t, std::coroutine_handle<> h) {
    schedule_at(t, h, current_);
  }
  void schedule_at(SimTime t, std::coroutine_handle<> h,
                   detail::ProcessState* owner);
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }
  void schedule_now(std::coroutine_handle<> h, detail::ProcessState* owner) {
    schedule_at(now_, h, owner);
  }

  /// Starts tracking an idle poller: its look 0 takes the FIFO number a
  /// wakeup scheduled right now would get. It resumes at look 0 at once
  /// when `wake_now`, else at its timer look or when wake_poller() is
  /// called, whichever comes first.
  void park_poller(IdlePoller& p, bool wake_now);
  /// Resumes a parked poller at its next look (the first one after the
  /// running event).
  void wake_poller(IdlePoller& p);

  /// The process whose coroutine slice is executing right now (nullptr
  /// between events and outside run()). Within one step() control never
  /// leaves the resumed process — symmetric transfer only moves along its
  /// own await chain — so this is exact, not heuristic.
  [[nodiscard]] detail::ProcessState* current_process() const {
    return current_;
  }

  /// Name of the current process: "<unnamed>" for anonymous processes,
  /// "<main>" outside any step.
  [[nodiscard]] std::string current_task_name() const;

  /// The Simulator currently inside step(), if any (the process-global
  /// hook behind current_task_label()).
  [[nodiscard]] static Simulator* current() { return current_sim_; }

  /// Lock-acquisition-order graph shared by every Mutex of this
  /// Simulator; see sim/check.hpp.
  [[nodiscard]] LockOrderGraph& lock_graph() { return lock_graph_; }

  /// Awaitable that suspends the current coroutine for `d` nanoseconds.
  [[nodiscard]] auto delay(SimDuration d) {
    struct Awaiter {
      Simulator& sim;
      SimDuration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule_at(sim.now_ + d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable that reschedules the coroutine at the current time, behind
  /// everything already queued for this instant.
  [[nodiscard]] auto yield() { return delay(0); }

  /// Starts a top-level simulated process. The coroutine begins executing
  /// at the current simulated time, once the event loop reaches it.
  Process spawn(Task<void> t, std::string name = {});

  /// Starts a daemon process: a server loop expected to idle forever
  /// (an NVMe-oF target poller, a copy-thread pool). Daemons do not count
  /// toward deadlock detection in run().
  Process spawn_daemon(Task<void> t, std::string name = {});

  /// Runs one event. Returns false when the queue is empty.
  bool step();

  /// Runs until the event queue is empty. Throws DeadlockError if spawned
  /// processes remain blocked (pass allow_blocked to tolerate that, e.g.
  /// for servers that idle forever waiting on a channel).
  void run(bool allow_blocked = false);

  /// Runs events up to and including time `t`; `now()` is `t` afterwards
  /// (even if the queue drained earlier).
  void run_until(SimTime t);
  void run_for(SimDuration d) { run_until(now_ + d); }

  /// run() with a simulated-time watchdog: if non-daemon processes are
  /// still live once the clock would pass `deadline` — or the queue
  /// drains with them blocked — throws DeadlockError naming them. Fault
  /// tests use this so a hung recovery path fails fast with the culprit
  /// coroutines listed instead of stalling the job until ctest kills it.
  void run_watchdog(SimTime deadline);

  /// Names of the live (spawned, unfinished, non-daemon) processes.
  [[nodiscard]] std::vector<std::string> blocked_process_names() const;

  /// Re-seeds the simulation-wide RNG stream. Every consumer of simulated
  /// randomness (reconnect jitter, chaos schedules) must draw from this
  /// stream rather than keep private ad-hoc state, so that one seed
  /// reproduces the entire run — draws happen in event order, and event
  /// order is deterministic.
  void seed_rng(std::uint64_t seed) { rng_state_ = seed; }

  /// Next value of the simulation RNG stream (splitmix64: full 64-bit
  /// period, passes BigCrush, two arithmetic lines — enough for jitter
  /// and fault schedules, not for cryptography).
  [[nodiscard]] std::uint64_t rand64() {
    rng_state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = rng_state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// After run(), rethrows the first process failure encountered (processes
  /// that fail also rethrow at join()).
  void rethrow_failures() const;

 private:
  Process spawn_impl(Task<void> t, std::string name, bool daemon);
  Task<void> process_wrapper(Task<void> inner,
                             std::shared_ptr<detail::ProcessState> st,
                             bool daemon);

  struct Item {
    EventKey key;
    std::coroutine_handle<> h;
    detail::ProcessState* owner;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.key > b.key;
    }
  };

  /// Passes idle pollers' looks that run before the next queued event
  /// (and before `bound`, if given), in run order; a look that is a
  /// poller's timer becomes a queued event.
  void pass_looks(const EventKey* bound = nullptr);
  void schedule_poller(IdlePoller& p);
  void drop_poller(std::size_t i);

  std::priority_queue<Item, std::vector<Item>, Later> queue_;
  std::vector<IdlePoller*> pollers_;  // parked idle pollers
  std::size_t timed_pollers_ = 0;     // ... that have a timer look
  std::vector<std::shared_ptr<detail::ProcessState>> processes_;
  LockOrderGraph lock_graph_;
  detail::ProcessState* current_ = nullptr;
  SimTime now_ = 0;
  std::uint64_t rng_state_ = 0x6a09e667f3bcc909ull;  // default stream seed
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;

  static Simulator* current_sim_;  // the instance inside step(), if any
};

}  // namespace dlsim
