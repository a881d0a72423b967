#include "spdk/nvme_driver.hpp"

#include <stdexcept>

namespace dlfs::spdk {

namespace {

/// Local I/O queue: a thin shim over the device qpair that adds the
/// huge-page DMA check.
class LocalIoQueue final : public IoQueue {
 public:
  LocalIoQueue(std::unique_ptr<hw::NvmeQueuePair> qp, mem::HugePagePool& pool)
      : qp_(std::move(qp)), pool_(&pool) {}

  IoStatus submit(IoOp op, std::uint64_t offset, std::span<std::byte> buf,
                  std::uint64_t user_tag) override {
    if (!buf.empty() && !pool_->owns(buf.data())) {
      return IoStatus::kInvalidBuffer;
    }
    return qp_->submit(op, offset, buf, user_tag);
  }

  std::vector<IoCompletion> poll(std::size_t max) override {
    return qp_->poll(max);
  }

  dlsim::Task<void> wait_for_completion() override {
    return qp_->wait_for_completion();
  }

  std::uint32_t outstanding() const override { return qp_->outstanding(); }
  std::uint32_t depth() const override { return qp_->depth(); }

  std::optional<dlsim::SimTime> next_completion_at() const override {
    if (qp_->outstanding() == 0) return std::nullopt;
    return qp_->next_completion_at();
  }

  bool connected() const override { return !qp_->device().crashed(); }
  bool failed() const override { return qp_->device().crashed(); }

  void set_doorbell(dlsim::Doorbell* bell,
                    dlsim::Doorbell::Lines lines) override {
    qp_->set_doorbell(bell, lines);
  }

  dlsim::Task<bool> reprobe() override {
    // Local path: nothing to re-handshake — the queue is usable iff the
    // controller is back.
    co_return !qp_->device().crashed();
  }

 private:
  std::unique_ptr<hw::NvmeQueuePair> qp_;
  mem::HugePagePool* pool_;
};

}  // namespace

NvmeDriver::~NvmeDriver() {
  for (auto* dev : devices_) dev->release(hw::DeviceOwner::kUserSpace);
}

void NvmeDriver::attach(hw::NvmeDevice& dev) {
  if (devices_.contains(&dev)) return;
  dev.claim(hw::DeviceOwner::kUserSpace);
  devices_.insert(&dev);
}

void NvmeDriver::detach(hw::NvmeDevice& dev) {
  if (!devices_.erase(&dev)) {
    throw std::logic_error("detach of non-attached device " + dev.name());
  }
  dev.release(hw::DeviceOwner::kUserSpace);
}

std::unique_ptr<IoQueue> NvmeDriver::create_io_queue(hw::NvmeDevice& dev,
                                                     std::uint32_t depth) {
  if (!devices_.contains(&dev)) {
    throw std::logic_error("create_io_queue on non-attached device " +
                           dev.name());
  }
  return std::make_unique<LocalIoQueue>(dev.create_qpair(depth), *pool_);
}

}  // namespace dlfs::spdk
