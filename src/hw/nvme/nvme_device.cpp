#include "hw/nvme/nvme_device.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace dlfs::hw {

NvmeQueuePair::NvmeQueuePair(NvmeDevice& dev, std::uint32_t depth)
    : device_(&dev), depth_(depth) {
  dev.qpairs_.push_back(this);
}

NvmeQueuePair::~NvmeQueuePair() { std::erase(device_->qpairs_, this); }

IoStatus NvmeQueuePair::submit(IoOp op, std::uint64_t offset,
                               std::span<std::byte> buf,
                               std::uint64_t user_tag) {
  if (device_->crashed_) return IoStatus::kConnectionLost;
  if (pending_.size() >= depth_) return IoStatus::kQueueFull;
  if (offset + buf.size() > device_->capacity()) return IoStatus::kOutOfRange;

  // Injected transient media fault? The command still occupies the pipe
  // (the device worked on it) but completes with an error and moves no
  // data.
  IoStatus final_status = IoStatus::kOk;
  if (device_->fault_state_ != 0) {
    device_->fault_state_ = dlfs::mix64(device_->fault_state_);
    const double roll = static_cast<double>(device_->fault_state_ >> 11) *
                        0x1.0p-53;
    if (roll < device_->fault_rate_) {
      final_status = IoStatus::kMediaError;
      ++device_->faults_injected_;
    }
  }

  if (final_status == IoStatus::kOk) {
    // Functional data movement now; visibility at completion harvest.
    if (op == IoOp::kRead) {
      device_->store().read(offset, buf);
      device_->bytes_read_ += buf.size();
    } else {
      device_->store().write(offset, buf);
      device_->bytes_written_ += buf.size();
    }
  }

  const SimTime done = device_->schedule_command(op, buf.size());
  pending_.push_back(Pending{
      done, IoCompletion{user_tag, op, final_status,
                         static_cast<std::uint32_t>(buf.size())}});
  return IoStatus::kOk;
}

std::vector<IoCompletion> NvmeQueuePair::poll(std::size_t max) {
  std::vector<IoCompletion> out;
  if (device_->crashed_) {
    // The controller died: everything in flight fails now, regardless of
    // its scheduled completion time. Data visibility never happens.
    while (!pending_.empty() && out.size() < max) {
      IoCompletion c = pending_.front().completion;
      c.status = IoStatus::kConnectionLost;
      c.bytes = 0;
      out.push_back(c);
      pending_.pop_front();
    }
    return out;
  }
  const SimTime now = device_->simulator().now();
  while (!pending_.empty() && out.size() < max &&
         pending_.front().done_at <= now) {
    out.push_back(pending_.front().completion);
    pending_.pop_front();
    ++device_->commands_;
  }
  return out;
}

dlsim::Task<void> NvmeQueuePair::wait_for_completion() {
  if (pending_.empty() || device_->crashed_) co_return;
  const SimTime now = device_->simulator().now();
  const SimTime first = pending_.front().done_at;
  if (first > now) co_await device_->simulator().delay(first - now);
}

SimTime NvmeQueuePair::next_completion_at() const {
  if (pending_.empty()) return 0;
  if (device_->crashed_) return device_->sim_->now();
  return pending_.front().done_at;
}

NvmeDevice::NvmeDevice(dlsim::Simulator& sim, std::string name,
                       std::unique_ptr<BackingStore> store,
                       const NvmeParams& params)
    : sim_(&sim),
      name_(std::move(name)),
      store_(std::move(store)),
      params_(params) {
  if (!store_) throw std::invalid_argument("device needs a backing store");
}

std::unique_ptr<NvmeQueuePair> NvmeDevice::create_qpair(std::uint32_t depth) {
  if (depth == 0) depth = params_.max_queue_depth;
  depth = std::min(depth, params_.max_queue_depth);
  // Not make_unique: the constructor is private to this friend.
  return std::unique_ptr<NvmeQueuePair>(new NvmeQueuePair(*this, depth));
}

void NvmeDevice::claim(DeviceOwner who) {
  if (who == DeviceOwner::kUnbound) {
    throw std::logic_error("cannot claim as kUnbound; use release()");
  }
  if (owner_ != DeviceOwner::kUnbound && owner_ != who) {
    throw std::logic_error(
        "device " + name_ + " is bound to the " +
        (owner_ == DeviceOwner::kKernel ? "kernel" : "user-space") +
        " driver; unbind it first (SPDK requires exclusive ownership)");
  }
  owner_ = who;
  ++owner_claims_;
}

void NvmeDevice::release(DeviceOwner who) {
  if (owner_ != who || owner_claims_ == 0) {
    throw std::logic_error("release by non-owner on device " + name_);
  }
  if (--owner_claims_ == 0) owner_ = DeviceOwner::kUnbound;
}

SimTime NvmeDevice::schedule_command(IoOp op, std::uint64_t bytes) {
  const bool is_read = op == IoOp::kRead;
  const double bw = is_read ? params_.read_bw_bytes_per_sec
                            : params_.write_bw_bytes_per_sec;
  const SimDuration latency =
      is_read ? params_.read_latency : params_.write_latency;
  const SimDuration occupancy =
      std::max<SimDuration>(params_.cmd_min_occupancy,
                            dlsim::transfer_time(bytes, bw));
  const SimTime now = sim_->now();
  const SimTime start = std::max(now, pipe_free_at_);
  pipe_free_at_ = start + occupancy;
  pipe_busy_ns_ += occupancy;
  return pipe_free_at_ + latency;
}

void NvmeDevice::inject_faults(double rate, std::uint64_t seed) {
  fault_rate_ = rate;
  fault_state_ = rate > 0.0 ? dlfs::mix64(seed | 1) : 0;
}

void NvmeDevice::crash() {
  crashed_ = true;
  ring_qpairs();
}

void NvmeDevice::recover() {
  crashed_ = false;
  ring_qpairs();
}

void NvmeDevice::ring_qpairs() {
  for (NvmeQueuePair* qp : qpairs_) {
    if (qp->bell_ != nullptr) qp->bell_->ring(qp->bell_lines_);
  }
}

void NvmeDevice::crash_at(SimTime when) {
  sim_->spawn_daemon(
      [](NvmeDevice* dev, SimTime at) -> dlsim::Task<void> {
        const SimTime now = dev->sim_->now();
        if (at > now) co_await dev->sim_->delay(at - now);
        dev->crash();
      }(this, when),
      "nvme-crash-at");
}

void NvmeDevice::recover_at(SimTime when) {
  sim_->spawn_daemon(
      [](NvmeDevice* dev, SimTime at) -> dlsim::Task<void> {
        const SimTime now = dev->sim_->now();
        if (at > now) co_await dev->sim_->delay(at - now);
        dev->recover();
      }(this, when),
      "nvme-recover-at");
}

double NvmeDevice::pipe_utilization() const {
  const SimDuration elapsed = sim_->now() - stats_since_;
  if (elapsed == 0) return 0.0;
  return std::min(1.0, static_cast<double>(pipe_busy_ns_) /
                           static_cast<double>(elapsed));
}

void NvmeDevice::reset_stats() {
  stats_since_ = sim_->now();
  pipe_busy_ns_ = 0;
  bytes_read_ = 0;
  bytes_written_ = 0;
  commands_ = 0;
}

}  // namespace dlfs::hw
