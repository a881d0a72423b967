#pragma once

// IoQueue: the queue-pair abstraction DLFS's backend programs against.
//
// The paper's design is location-transparent: "the allocated NVMe devices
// may be local or remote with respect to the compute nodes" (§III). The
// DLFS I/O engine therefore talks to this interface; spdk::NvmeDriver
// provides the local implementation and spdk::NvmfTarget::connect() the
// NVMe-over-Fabrics one.
//
// Semantics mirror an SPDK I/O queue pair: submit() is non-blocking and
// fails with kQueueFull at the configured queue depth; completions are
// harvested by busy polling (poll()), and wait_for_completion() is the
// simulation-friendly way to express "poll until something completes"
// without an event per poll iteration (the caller charges the elapsed
// time to its core as busy-polling, preserving SPDK's CPU semantics).
//
// A poller that idles between looks (dlsim::Doorbell) must learn of every
// change to what poll(), submit() or the admission state would report:
// a queue announces the times it knows in advance (next_completion_at,
// next_timeout_at) and rings the doorbell registered with set_doorbell()
// for the rest.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hw/nvme/nvme_device.hpp"
#include "sim/doorbell.hpp"
#include "sim/task.hpp"

namespace dlfs::spdk {

using hw::IoCompletion;
using hw::IoOp;
using hw::IoStatus;

/// Transport-level fault counters. Local queues stay at zero; the NVMe-oF
/// initiator counts command timeouts, reconnects and replays.
struct IoQueueStats {
  std::uint64_t timeouts = 0;
  std::uint64_t connections_lost = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t replays = 0;
};

class IoQueue {
 public:
  virtual ~IoQueue() = default;

  /// Posts one command. Buffers must come from the driver's huge-page
  /// pool (kInvalidBuffer otherwise — the SPDK DMA-safety rule).
  [[nodiscard]] virtual IoStatus submit(IoOp op, std::uint64_t offset,
                                        std::span<std::byte> buf,
                                        std::uint64_t user_tag) = 0;

  /// Harvests up to `max` ready completions (non-blocking).
  [[nodiscard]] virtual std::vector<IoCompletion> poll(
      std::size_t max = SIZE_MAX) = 0;

  /// Suspends until >= 1 completion is visible; returns immediately when
  /// nothing is outstanding.
  [[nodiscard]] virtual dlsim::Task<void> wait_for_completion() = 0;

  [[nodiscard]] virtual std::uint32_t outstanding() const = 0;
  [[nodiscard]] virtual std::uint32_t depth() const = 0;

  /// How many commands the queue is willing to accept *right now* — the
  /// client-side admission bound. Equal to depth() on healthy paths; a
  /// degraded transport (e.g. an NVMe-oF initiator mid-reconnect) may
  /// report less so replay storms don't starve healthy nodes. Callers
  /// should gate posting on outstanding() < admission_depth() and treat a
  /// shrunken value as backpressure, not an error.
  [[nodiscard]] virtual std::uint32_t admission_depth() const {
    return depth();
  }

  /// If the time of the earliest outstanding completion is knowable
  /// (local device queues), returns it; nullopt for event-driven queues
  /// (NVMe-oF initiators), whose completions ring the doorbell instead
  /// when they become visible to poll().
  [[nodiscard]] virtual std::optional<dlsim::SimTime> next_completion_at()
      const {
    return std::nullopt;
  }

  /// Earliest command deadline: poll() completes the command with
  /// kTimeout once this time has come. nullopt when no command can time
  /// out (local queues, nothing in flight).
  [[nodiscard]] virtual std::optional<dlsim::SimTime> next_timeout_at()
      const {
    return std::nullopt;
  }

  /// Registers the doorbell (and its lines) this queue rings whenever
  /// poll(), submit() or the admission state change at a time the queue
  /// did not announce: a completion arriving, the connection state
  /// flipping, deadlines being re-armed, the controller dying.
  virtual void set_doorbell(dlsim::Doorbell* bell,
                            dlsim::Doorbell::Lines lines) = 0;

  /// Whether the path to the device is currently believed usable. Local
  /// queues are always connected; the NVMe-oF initiator reports false
  /// once its reconnect budget is exhausted.
  [[nodiscard]] virtual bool connected() const { return true; }

  /// Whether the path is gone for good — the reconnect budget is spent or
  /// the local controller died — so submit() returns kConnectionLost. A
  /// caller that stopped posting to a node can learn of its death here
  /// without a command to carry the news.
  [[nodiscard]] virtual bool failed() const { return false; }

  /// One explicit revalidation attempt for a queue whose path died (no
  /// backoff, no budget — the caller paces these, e.g. once per epoch).
  /// Returns true when the queue is usable again.
  [[nodiscard]] virtual dlsim::Task<bool> reprobe() {
    return []() -> dlsim::Task<bool> { co_return true; }();
  }

  [[nodiscard]] virtual IoQueueStats transport_stats() const { return {}; }
};

}  // namespace dlfs::spdk
