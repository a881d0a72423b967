#pragma once

// NvmeDevice: the simulated NVMe SSD.
//
// Functional model: a byte-addressed BackingStore (the repo works in byte
// offsets; LBA math adds nothing for these experiments).
//
// Timing model (calibrated to the paper's Intel Optane device, see
// common/calibration.hpp):
//
//   occupancy(cmd)  = max(cmd_min_occupancy, bytes / bandwidth)
//   service_start   = max(submit_time, pipe_free_at)
//   done            = service_start + occupancy + media_latency
//   pipe_free_at    = service_start + occupancy
//
// i.e. media latency overlaps across outstanding commands (the device's
// internal parallelism) while the data path serializes — which yields the
// three behaviours the paper's results hinge on: a QD1 latency floor
// (DLFS-Base, Ext4-Base), an IOPS ceiling for small commands (why
// chunk-level batching wins), and a bandwidth ceiling for large ones.
//
// Ownership: a device is either kernel-owned (mounted by osfs) or
// unbound and claimed by the user-space driver (spdk) — never both. The
// real SPDK requires unbinding the kernel NVMe driver first; tests assert
// the same exclusivity here.

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/calibration.hpp"
#include "hw/nvme/backing_store.hpp"
#include "sim/doorbell.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace dlfs::hw {

using dlsim::SimDuration;
using dlsim::SimTime;

enum class IoOp : std::uint8_t { kRead, kWrite };

enum class IoStatus : std::uint8_t {
  kOk,
  kOutOfRange,
  kQueueFull,
  kInvalidBuffer,
  kMediaError,       // injected device fault (see NvmeDevice::inject_faults)
  kTimeout,          // command deadline passed without a completion
  kConnectionLost,   // device/target crashed or the fabric path is dead
};

/// A harvested completion.
struct IoCompletion {
  std::uint64_t user_tag = 0;
  IoOp op = IoOp::kRead;
  IoStatus status = IoStatus::kOk;
  std::uint32_t bytes = 0;
};

class NvmeDevice;

/// One NVMe submission/completion queue pair. Commands submitted here
/// complete in service order; completions become visible to poll() once
/// simulated time reaches their completion timestamp.
class NvmeQueuePair {
 public:
  NvmeQueuePair(const NvmeQueuePair&) = delete;
  NvmeQueuePair& operator=(const NvmeQueuePair&) = delete;
  ~NvmeQueuePair();

  /// Posts a command. Returns kQueueFull when `outstanding() == depth()`,
  /// kOutOfRange for bad offsets. The data transfer happens functionally
  /// at submit (the dataset is read-only during training; writes happen
  /// only during the serial load phase), but is *visible* to the caller
  /// only when the completion is harvested.
  IoStatus submit(IoOp op, std::uint64_t offset, std::span<std::byte> buf,
                  std::uint64_t user_tag);

  /// Harvests up to `max` completions whose time has come.
  [[nodiscard]] std::vector<IoCompletion> poll(std::size_t max = SIZE_MAX);

  /// Suspends until at least one completion is visible (or returns
  /// immediately if nothing is outstanding). Models the fast-path of a
  /// busy-poll loop without generating an event per poll iteration; the
  /// caller charges the elapsed time to its CPU core as busy-poll time.
  [[nodiscard]] dlsim::Task<void> wait_for_completion();

  [[nodiscard]] std::uint32_t outstanding() const {
    return static_cast<std::uint32_t>(pending_.size());
  }
  [[nodiscard]] std::uint32_t depth() const { return depth_; }

  /// Timestamp of the earliest outstanding completion (0 when none).
  /// On a crashed device every outstanding command is already harvestable
  /// (as kConnectionLost), so this returns the current time.
  [[nodiscard]] SimTime next_completion_at() const;
  [[nodiscard]] NvmeDevice& device() { return *device_; }

  /// Rung when the controller crashes or recovers: the one change to
  /// poll()/submit() that next_completion_at() cannot announce.
  void set_doorbell(dlsim::Doorbell* bell, dlsim::Doorbell::Lines lines) {
    bell_ = bell;
    bell_lines_ = lines;
  }

 private:
  friend class NvmeDevice;
  NvmeQueuePair(NvmeDevice& dev, std::uint32_t depth);

  struct Pending {
    SimTime done_at;
    IoCompletion completion;
  };

  NvmeDevice* device_;
  std::uint32_t depth_;
  std::deque<Pending> pending_;  // ordered by done_at (service order)
  dlsim::Doorbell* bell_ = nullptr;
  dlsim::Doorbell::Lines bell_lines_ = 0;
};

/// Who currently drives the device.
enum class DeviceOwner : std::uint8_t { kUnbound, kKernel, kUserSpace };

class NvmeDevice {
 public:
  NvmeDevice(dlsim::Simulator& sim, std::string name,
             std::unique_ptr<BackingStore> store,
             const NvmeParams& params = NvmeParams{});

  NvmeDevice(const NvmeDevice&) = delete;
  NvmeDevice& operator=(const NvmeDevice&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t capacity() const { return store_->capacity(); }
  [[nodiscard]] const NvmeParams& params() const { return params_; }
  [[nodiscard]] dlsim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] BackingStore& store() { return *store_; }

  /// Creates an I/O queue pair (depth 0 = device default).
  [[nodiscard]] std::unique_ptr<NvmeQueuePair> create_qpair(
      std::uint32_t depth = 0);

  // --- ownership -----------------------------------------------------------
  [[nodiscard]] DeviceOwner owner() const { return owner_; }
  /// Claims the device; throws std::logic_error if owned by the other side.
  /// Claims by the same side nest (e.g. the local SPDK driver and an
  /// NVMe-oF target both driving one device from user space); the device
  /// unbinds when the last claim is released.
  void claim(DeviceOwner who);
  void release(DeviceOwner who);

  // --- fault injection ------------------------------------------------------
  /// Makes roughly `rate` of subsequent commands complete with
  /// kMediaError (deterministic given `seed`). rate 0 disables. Transient
  /// faults: a retry of the same extent may succeed — which is what the
  /// DLFS engine's retry policy is tested against.
  void inject_faults(double rate, std::uint64_t seed = 1);
  [[nodiscard]] std::uint64_t faults_injected() const {
    return faults_injected_;
  }

  /// Fail-stop the device: subsequent submissions are rejected with
  /// kConnectionLost and every in-flight command completes immediately
  /// with kConnectionLost (the controller is gone, not slow). recover()
  /// restores service for new submissions; queue pairs survive.
  void crash();
  void recover();
  [[nodiscard]] bool crashed() const { return crashed_; }
  /// Scheduled variants, e.g. "crash at t=2s" for mid-epoch fault tests.
  void crash_at(SimTime when);
  void recover_at(SimTime when);

  // --- statistics ----------------------------------------------------------
  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t commands_completed() const { return commands_; }
  /// Fraction of time the data pipe was busy since the last reset.
  [[nodiscard]] double pipe_utilization() const;
  void reset_stats();

 private:
  friend class NvmeQueuePair;

  /// Computes the completion time for a command submitted now and advances
  /// the pipe. Returns the completion timestamp.
  SimTime schedule_command(IoOp op, std::uint64_t bytes);

  dlsim::Simulator* sim_;
  std::string name_;
  std::unique_ptr<BackingStore> store_;
  NvmeParams params_;
  DeviceOwner owner_ = DeviceOwner::kUnbound;
  std::uint32_t owner_claims_ = 0;

  double fault_rate_ = 0.0;
  std::uint64_t fault_state_ = 0;  // splitmix64 walker; 0 = disabled
  std::uint64_t faults_injected_ = 0;
  bool crashed_ = false;

  void ring_qpairs();

  std::vector<NvmeQueuePair*> qpairs_;  // live queue pairs on this device
  SimTime pipe_free_at_ = 0;
  // For utilization accounting:
  SimTime stats_since_ = 0;
  SimDuration pipe_busy_ns_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t commands_ = 0;
};

}  // namespace dlfs::hw
