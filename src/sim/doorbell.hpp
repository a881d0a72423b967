#pragma once

// Doorbell: busy-polling without simulating every spin.
//
// An SPDK-style poller that finds nothing keeps its core busy and looks
// again a fixed step later. Simulating each look costs an event and host
// time, yet a look can only find something after some state change. So a
// poller with nothing to do charges its spin as CPU but sleeps: on a
// Doorbell that every state change it reads rings, or until a look it
// already knows it must make (a device completion, a retry's due time, a
// command deadline). The Simulator keeps each sleeping poller's next look
// at the exact place in the run order its spin would have had
// (IdlePoller), passing looks as the run goes by without resuming
// anything; a ring resumes the poller at its next look. Virtual time,
// same-instant event order and busy ns therefore come out as if it had
// spun: a ring at exactly a look instant counts for that look only if the
// ringing event runs before the look would have.

#include <array>
#include <coroutine>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace dlsim {

/// A broadcast wakeup for idle pollers, with up to eight lines (one per
/// kind of state change) so a poller sleeps through rings it cannot act
/// on. ring() is cheap when nobody sleeps.
class Doorbell {
 public:
  using Lines = std::uint8_t;

  explicit Doorbell(Simulator& sim) : sim_(&sim) {}
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Monotone count of rings; pass it to idle() as `since`.
  [[nodiscard]] std::uint64_t stamp() const { return rings_; }
  [[nodiscard]] bool rung_since(Lines lines, std::uint64_t stamp) const;

  /// Wakes every idle poller listening on one of `lines` at its first
  /// look after the running event.
  void ring(Lines lines);

  /// Awaiter returned by idle(); yields the look the poller woke at.
  class [[nodiscard]] Idle {
   public:
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    std::uint64_t await_resume();

   private:
    friend class Doorbell;
    Idle(Doorbell& bell, CpuCore& core, const SpinGrid& grid, Lines lines,
         std::uint64_t since, std::optional<std::uint64_t> timer)
        : bell_(&bell), core_(&core), lines_(lines), since_(since) {
      poller_.grid = grid;
      poller_.timer = timer;
    }

    Doorbell* bell_;
    CpuCore* core_;
    Lines lines_;
    std::uint64_t since_;
    IdlePoller poller_;
    bool parked_ = false;  // listening for rings
  };

  /// Spins on `core` along `grid` (origin = now) without simulating the
  /// looks: resumes at the first look after a ring on `lines`, at look
  /// `timer` if nothing rings before it, or at look 0 if `lines` rang
  /// after `since`. Charges the span from grid.origin to the look as busy
  /// time. Needs a timer or at least one line.
  [[nodiscard]] Idle idle(CpuCore& core, const SpinGrid& grid, Lines lines,
                          std::uint64_t since,
                          std::optional<std::uint64_t> timer) {
    return Idle(*this, core, grid, lines, since, timer);
  }

 private:
  Simulator* sim_;
  std::uint64_t rings_ = 0;
  std::array<std::uint64_t, 8> last_{};  // ring stamp of each line's last ring
  std::vector<Idle*> parked_;
};

}  // namespace dlsim
