#include "sim/doorbell.hpp"

#include <algorithm>
#include <cassert>

namespace dlsim {

bool Doorbell::rung_since(Lines lines, std::uint64_t stamp) const {
  for (std::size_t i = 0; i < last_.size(); ++i) {
    if ((lines & (1u << i)) != 0 && last_[i] > stamp) return true;
  }
  return false;
}

void Doorbell::ring(Lines lines) {
  ++rings_;
  for (std::size_t i = 0; i < last_.size(); ++i) {
    if ((lines & (1u << i)) != 0) last_[i] = rings_;
  }
  for (std::size_t i = 0; i < parked_.size();) {
    Idle* s = parked_[i];
    if ((s->lines_ & lines) == 0) {
      ++i;
      continue;
    }
    parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
    s->parked_ = false;
    sim_->wake_poller(s->poller_);
  }
}

void Doorbell::Idle::await_suspend(std::coroutine_handle<> h) {
  assert((poller_.timer || lines_ != 0) && "an idle poller nothing can wake");
  assert(poller_.grid.origin == bell_->sim_->now());
  poller_.h = h;
  // A ring after the poller last looked is seen by its next look, so
  // that look really runs.
  bell_->sim_->park_poller(poller_, bell_->rung_since(lines_, since_));
  if (!poller_.queued && lines_ != 0) {
    parked_ = true;
    bell_->parked_.push_back(this);
  }
}

std::uint64_t Doorbell::Idle::await_resume() {
  if (parked_) {  // resumed at its timer look, not by a ring
    auto& p = bell_->parked_;
    p.erase(std::find(p.begin(), p.end(), this));
    parked_ = false;
  }
  core_->charge(poller_.grid.at(poller_.look) - poller_.grid.origin);
  return poller_.look;
}

}  // namespace dlsim
