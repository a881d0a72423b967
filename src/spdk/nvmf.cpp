#include "spdk/nvmf.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/check.hpp"

namespace dlfs::spdk {

namespace {

/// One command capsule as it travels client -> target.
struct RemoteCmd {
  IoOp op = IoOp::kRead;
  std::uint64_t offset = 0;
  std::span<std::byte> buf{};
  std::uint64_t user_tag = 0;
};

}  // namespace

struct NvmfTarget::Connection {
  Connection(dlsim::Simulator& sim, hw::NodeId client,
             std::unique_ptr<hw::NvmeQueuePair> qpair, std::uint32_t depth)
      : client_node(client),
        qp(std::move(qpair)),
        inbound(sim, /*capacity=*/depth),
        expected(sim, /*capacity=*/depth),
        slots(sim, depth) {}

  hw::NodeId client_node;
  std::unique_ptr<hw::NvmeQueuePair> qp;
  dlsim::Channel<RemoteCmd> inbound;
  // Completion metadata in device-FIFO order.
  dlsim::Channel<RemoteCmd> expected;
  dlsim::Semaphore slots;
  RemoteIoQueue* client_queue = nullptr;
  // Reap bookkeeping: a detached connection is destroyed once both service
  // daemons have exited and no return_data task still references it.
  bool detached = false;
  std::uint32_t active_daemons = 0;
  std::uint32_t pending_returns = 0;
};

/// Initiator-side queue (lives on the client).
///
/// Fault handling: every submitted command is stamped with a deadline.
/// poll()/wait_for_completion() complete overdue commands with kTimeout,
/// which also flips the connection into the reconnecting state: the old
/// server-side connection is detached (and reaped), and a background loop
/// retries the admin handshake with exponential backoff + jitter. On
/// success every still-pending command is replayed on the fresh
/// connection; when the attempt budget runs out the queue is dead and all
/// pending commands complete with kConnectionLost. A dead queue can be
/// revalidated explicitly via reprobe().
class RemoteIoQueue final : public IoQueue {
 public:
  RemoteIoQueue(dlsim::Simulator& sim, hw::Fabric& fabric, NvmfTarget& target,
                hw::NodeId client_node, mem::HugePagePool& client_pool,
                std::uint32_t depth, const NvmfFaultParams& fault)
      : sim_(&sim),
        fabric_(&fabric),
        target_(&target),
        client_node_(client_node),
        pool_(&client_pool),
        depth_(depth),
        fault_(fault),
        alive_(std::make_shared<bool>(true)),
        ready_waiters_(sim) {}

  ~RemoteIoQueue() override {
    *alive_ = false;
    if (conn_ != nullptr) {
      target_->detach_connection(conn_);
      conn_ = nullptr;
    }
  }

  void attach(NvmfTarget::Connection& conn) {
    conn_ = &conn;
    state_ = ConnState::kConnected;
    ring();
  }

  IoStatus submit(IoOp op, std::uint64_t offset, std::span<std::byte> buf,
                  std::uint64_t user_tag) override {
    if (state_ == ConnState::kDead) return IoStatus::kConnectionLost;
    if (outstanding_ >= admission_depth()) return IoStatus::kQueueFull;
    if (!buf.empty() && !pool_->owns(buf.data())) {
      return IoStatus::kInvalidBuffer;
    }
    if (offset + buf.size() > target_->device().capacity()) {
      return IoStatus::kOutOfRange;
    }
    ++outstanding_;
    const RemoteCmd cmd{op, offset, buf, user_tag};
    dlsim::AccessSlice slice{inflight_ledger_, /*write=*/true};
    inflight_.emplace(user_tag,
                      Inflight{cmd, sim_->now() + fault_.command_timeout});
    deadline_fifo_.push_back(user_tag);
    if (state_ == ConnState::kConnected) {
      sim_->spawn(send_command(alive_, cmd), "nvmf-send");
    }
    // While reconnecting the command is parked; a successful reconnect
    // replays it, and its deadline still ticks meanwhile.
    return IoStatus::kOk;
  }

  std::vector<IoCompletion> poll(std::size_t max) override {
    expire_overdue();
    std::vector<IoCompletion> out;
    while (!ready_.empty() && out.size() < max) {
      out.push_back(ready_.front());
      ready_.pop_front();
    }
    return out;
  }

  dlsim::Task<void> wait_for_completion() override {
    expire_overdue();
    while (ready_.empty() && outstanding_ > 0) {
      arm_deadline_timer();
      co_await ready_waiters_.wait();
      expire_overdue();
    }
  }

  std::uint32_t outstanding() const override { return outstanding_; }
  std::uint32_t depth() const override { return depth_; }
  std::uint32_t admission_depth() const override {
    // Admission control (NvmfFaultParams::max_inflight_during_reconnect):
    // while reconnecting, every accepted command is parked for replay, so
    // capping admissions here caps the replay burst on the recovered path.
    if (state_ == ConnState::kReconnecting &&
        fault_.max_inflight_during_reconnect != 0) {
      return std::min(depth_, fault_.max_inflight_during_reconnect);
    }
    return depth_;
  }
  bool connected() const override { return state_ == ConnState::kConnected; }
  bool failed() const override { return state_ == ConnState::kDead; }
  IoQueueStats transport_stats() const override { return stats_; }

  std::optional<dlsim::SimTime> next_timeout_at() const override {
    const dlsim::SimTime at = next_deadline();
    if (at == 0) return std::nullopt;
    return at;
  }

  void set_doorbell(dlsim::Doorbell* bell,
                    dlsim::Doorbell::Lines lines) override {
    bell_ = bell;
    bell_lines_ = lines;
  }

  dlsim::Task<bool> reprobe() override {
    if (state_ == ConnState::kConnected) co_return true;
    if (state_ == ConnState::kReconnecting) co_return false;
    auto alive = alive_;
    const bool ok = co_await probe(alive);
    if (!*alive || !ok) co_return false;
    // Nothing can be in flight from the dead state, so no replay here.
    co_return establish();
  }

  /// Called by the target's harvester when the data has landed.
  void deliver(IoCompletion c) {
    dlsim::AccessSlice slice{inflight_ledger_, /*write=*/true};
    const auto it = inflight_.find(c.user_tag);
    // Unknown tag: the command already timed out (and was possibly
    // replayed) — this is the slow original finally arriving. Drop it, the
    // caller has already been told the outcome.
    if (it == inflight_.end()) return;
    inflight_.erase(it);
    complete(c);
  }

  [[nodiscard]] hw::NodeId client_node() const { return client_node_; }

 private:
  enum class ConnState : std::uint8_t { kConnected, kReconnecting, kDead };

  struct Inflight {
    RemoteCmd cmd;
    dlsim::SimTime deadline;
  };

  void complete(IoCompletion c) {
    assert(outstanding_ > 0);
    --outstanding_;
    ready_.push_back(c);
    ready_waiters_.wake_all();
    ring();
  }

  /// Tells an idle poller that poll(), submit() or the admission state
  /// changed (completions arrive unannounced on a fabric queue).
  void ring() const {
    if (bell_ != nullptr) bell_->ring(bell_lines_);
  }

  /// Completes every overdue in-flight command with kTimeout. The first
  /// expiry on a connected queue also starts the reconnect state machine:
  /// in this model commands are only ever lost to crashes or partitions,
  /// so a deadline miss is a connection-level event, not a slow device.
  void expire_overdue() {
    if (inflight_.empty()) return;
    dlsim::AccessSlice slice{inflight_ledger_, /*write=*/true};
    const dlsim::SimTime now = sim_->now();
    bool expired = false;
    while (!deadline_fifo_.empty()) {
      const std::uint64_t tag = deadline_fifo_.front();
      const auto it = inflight_.find(tag);
      if (it == inflight_.end()) {  // stale entry from a replay
        deadline_fifo_.pop_front();
        continue;
      }
      if (it->second.deadline > now) break;  // deadlines are monotone
      deadline_fifo_.pop_front();
      const IoCompletion c{tag, it->second.cmd.op, IoStatus::kTimeout, 0};
      inflight_.erase(it);
      ++stats_.timeouts;
      complete(c);
      expired = true;
    }
    if (expired && state_ == ConnState::kConnected) begin_reconnect();
  }

  void begin_reconnect() {
    state_ = ConnState::kReconnecting;
    ring();
    ++stats_.connections_lost;
    if (conn_ != nullptr) {
      target_->detach_connection(conn_);
      conn_ = nullptr;
    }
    sim_->spawn_daemon(reconnect_loop(alive_), "nvmf-reconnect");
  }

  dlsim::Task<void> reconnect_loop(std::shared_ptr<bool> alive) {
    for (std::uint32_t attempt = 0; attempt < fault_.reconnect_attempts;
         ++attempt) {
      if (!*alive) co_return;
      dlsim::SimDuration backoff =
          fault_.reconnect_backoff << std::min<std::uint32_t>(attempt, 16);
      backoff = std::min(backoff, fault_.reconnect_backoff_max);
      // Jitter (up to +25%) decorrelates clients reconnecting to the same
      // rebooted target. Drawn from the simulation-wide RNG stream so a
      // fixed Simulator::seed_rng() seed replays the whole schedule.
      backoff += static_cast<dlsim::SimDuration>(
          sim_->rand64() % (static_cast<std::uint64_t>(backoff) / 4 + 1));
      co_await sim_->delay(backoff);
      if (!*alive) co_return;
      const bool ok = co_await probe(alive);
      if (!*alive) co_return;
      if (ok && establish()) {
        replay_inflight();
        co_return;
      }
    }
    declare_dead();
  }

  /// Admin handshake: connect capsule out, acceptance back. Both legs ride
  /// the real fabric, so a partition or a crashed target fails the probe.
  // NB: the co_awaits are hoisted into named locals and the alive token is
  // taken by value; GCC 12 miscompiles this coroutine frame otherwise
  // (reference param / co_await inside a negated condition).
  dlsim::Task<bool> probe(std::shared_ptr<bool> alive) {
    if (!*alive) co_return false;
    const bool out_leg = co_await fabric_->send(client_node_, target_->node(),
                                                hw::kControlMessageBytes);
    if (!out_leg) co_return false;
    if (!*alive) co_return false;
    if (!target_->accepting()) co_return false;
    const bool back_leg = co_await fabric_->send(target_->node(), client_node_,
                                                 hw::kControlMessageBytes);
    co_return back_leg;
  }

  bool establish() {
    NvmfTarget::Connection* conn =
        target_->open_connection(client_node_, depth_, this);
    if (conn == nullptr) return false;  // raced with a crash
    attach(*conn);
    ++stats_.reconnects;
    return true;
  }

  void replay_inflight() {
    dlsim::AccessSlice slice{inflight_ledger_, /*write=*/true};
    std::vector<std::uint64_t> tags = pending_tags();
    deadline_fifo_.clear();
    const dlsim::SimTime deadline = sim_->now() + fault_.command_timeout;
    for (const std::uint64_t tag : tags) {
      Inflight& inf = inflight_.at(tag);
      inf.deadline = deadline;
      deadline_fifo_.push_back(tag);
      ++stats_.replays;
      sim_->spawn(send_command(alive_, inf.cmd), "nvmf-replay");
    }
    ring();  // deadlines moved
  }

  void declare_dead() {
    dlsim::AccessSlice slice{inflight_ledger_, /*write=*/true};
    state_ = ConnState::kDead;
    ring();
    for (const std::uint64_t tag : pending_tags()) {
      const IoCompletion c{tag, inflight_.at(tag).cmd.op,
                           IoStatus::kConnectionLost, 0};
      complete(c);
    }
    inflight_.clear();
    deadline_fifo_.clear();
  }

  /// In-flight tags in submission order (tags are caller-monotone).
  [[nodiscard]] std::vector<std::uint64_t> pending_tags() const {
    dlsim::AccessSlice slice{inflight_ledger_, /*write=*/false};
    std::vector<std::uint64_t> tags;
    tags.reserve(inflight_.size());
    for (const auto& [tag, inf] : inflight_) tags.push_back(tag);
    std::sort(tags.begin(), tags.end());
    return tags;
  }

  [[nodiscard]] dlsim::SimTime next_deadline() const {
    dlsim::AccessSlice slice{inflight_ledger_, /*write=*/false};
    for (const std::uint64_t tag : deadline_fifo_) {
      const auto it = inflight_.find(tag);
      if (it != inflight_.end()) return it->second.deadline;
    }
    return 0;
  }

  /// Ensures a wakeup exists at the earliest command deadline, so
  /// wait_for_completion() cannot block past it even when the completion
  /// never arrives.
  void arm_deadline_timer() {
    const dlsim::SimTime at = next_deadline();
    if (at == 0) return;
    if (timer_armed_until_ != 0 && timer_armed_until_ <= at) return;
    timer_armed_until_ = at;
    sim_->spawn_daemon(deadline_timer(alive_, at), "nvmf-timeout-timer");
  }

  dlsim::Task<void> deadline_timer(std::shared_ptr<bool> alive,
                                   dlsim::SimTime at) {
    const dlsim::SimTime now = sim_->now();
    if (at > now) co_await sim_->delay(at - now);
    if (!*alive) co_return;
    if (timer_armed_until_ == at) timer_armed_until_ = 0;
    expire_overdue();
    ready_waiters_.wake_all();
  }

  dlsim::Task<void> send_command(std::shared_ptr<bool> alive, RemoteCmd cmd) {
    if (!*alive) co_return;
    // Command capsule over the wire, then into the target's inbound queue.
    // Writes are in-capsule-data: the payload rides the outbound leg
    // (client -> target), so repair/checkpoint writes contend with reads
    // on the correct fabric direction.
    // Hoisted await (not `if (!co_await ...)`): GCC 12 miscompiles the
    // negated await-in-condition shape — same hazard probe() documents.
    const std::uint64_t capsule =
        hw::kControlMessageBytes +
        (cmd.op == IoOp::kWrite ? cmd.buf.size() : 0);
    const bool sent =
        co_await fabric_->send(client_node_, target_->node(), capsule);
    if (!sent) {
      co_return;  // capsule lost in the fabric; the deadline notices
    }
    if (!*alive) co_return;
    NvmfTarget::Connection* conn = conn_;  // may have changed while in flight
    if (conn == nullptr || conn->inbound.is_closed()) co_return;
    try {
      co_await conn->inbound.push(cmd);
    } catch (const dlsim::ChannelClosed&) {
      // Target crashed while we were parked on a full inbound queue; the
      // command dies here and its deadline surfaces it as a timeout.
    }
  }

  dlsim::Simulator* sim_;
  hw::Fabric* fabric_;
  NvmfTarget* target_;
  hw::NodeId client_node_;
  mem::HugePagePool* pool_;
  NvmfTarget::Connection* conn_ = nullptr;
  std::uint32_t depth_;
  NvmfFaultParams fault_;
  // Invalidated by the destructor; detached coroutines (sends, timers, the
  // reconnect loop) check it after every suspension before touching *this.
  std::shared_ptr<bool> alive_;
  ConnState state_ = ConnState::kConnected;
  std::uint32_t outstanding_ = 0;
  // The replay list is touched by the consumer (submit/poll), the target's
  // harvester (deliver), the timeout timer, and the reconnect loop — four
  // tasks; each touch must stay a suspension-free slice.
  mutable dlsim::AccessLedger inflight_ledger_{"nvmf-inflight"};
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  std::deque<std::uint64_t> deadline_fifo_;
  dlsim::SimTime timer_armed_until_ = 0;
  IoQueueStats stats_;
  std::deque<IoCompletion> ready_;
  dlsim::detail::WaitList ready_waiters_;
  dlsim::Doorbell* bell_ = nullptr;
  dlsim::Doorbell::Lines bell_lines_ = 0;
};

NvmfTarget::NvmfTarget(dlsim::Simulator& sim, hw::Fabric& fabric,
                       hw::NodeId node, hw::NvmeDevice& device)
    : sim_(&sim),
      fabric_(&fabric),
      node_(node),
      device_(&device),
      poller_core_(sim, "nvmf-target-" + std::to_string(node)),
      poller_mutex_(sim, "nvmf-poller") {
  device_->claim(hw::DeviceOwner::kUserSpace);
}

NvmfTarget::~NvmfTarget() {
  for (auto& c : connections_) {
    if (!c->inbound.is_closed()) c->inbound.close();
  }
  device_->release(hw::DeviceOwner::kUserSpace);
}

bool NvmfTarget::accepting() const {
  // A crashed target refuses admin connects; so does a target whose only
  // namespace is gone (the device controller died).
  return !crashed_ && !device_->crashed();
}

dlsim::Task<bool> NvmfTarget::metadata_rpc(hw::NodeId client_node,
                                           dlsim::SimDuration service,
                                           std::uint64_t reply_bytes) {
  if (crashed_) co_return false;
  // Request capsule: client -> target. Same 64 B a command capsule costs.
  const bool requested =
      co_await fabric_->send(client_node, node_, hw::kControlMessageBytes);
  if (!requested) co_return false;
  if (crashed_) co_return false;  // died while the capsule was in flight
  {
    // The owner's directory walk serializes on the poller core, exactly
    // like data-path capsule handling — a metadata storm is visible as
    // target CPU, not free.
    auto guard = co_await poller_mutex_.scoped_lock();
    co_await poller_core_.compute(fabric_->params().per_message_cpu + service);
  }
  if (crashed_) co_return false;
  const bool replied =
      co_await fabric_->send(node_, client_node, reply_bytes);
  co_return replied;
}

void NvmfTarget::crash() {
  crashed_ = true;
  // In-flight capsules die with the target process: closing the inbound
  // queues drains the service daemons (which drop everything they still
  // hold while crashed_ is set).
  for (auto& c : connections_) {
    if (!c->inbound.is_closed()) c->inbound.close();
  }
}

void NvmfTarget::recover() { crashed_ = false; }

void NvmfTarget::crash_at(dlsim::SimTime when) {
  sim_->spawn_daemon(
      [](NvmfTarget* t, dlsim::SimTime at) -> dlsim::Task<void> {
        const dlsim::SimTime now = t->sim_->now();
        if (at > now) co_await t->sim_->delay(at - now);
        t->crash();
      }(this, when),
      "nvmf-crash-at");
}

void NvmfTarget::recover_at(dlsim::SimTime when) {
  sim_->spawn_daemon(
      [](NvmfTarget* t, dlsim::SimTime at) -> dlsim::Task<void> {
        const dlsim::SimTime now = t->sim_->now();
        if (at > now) co_await t->sim_->delay(at - now);
        t->recover();
      }(this, when),
      "nvmf-recover-at");
}

std::unique_ptr<IoQueue> NvmfTarget::connect(hw::NodeId client_node,
                                             mem::HugePagePool& client_pool,
                                             std::uint32_t depth,
                                             const NvmfFaultParams& fault) {
  if (depth == 0) depth = device_->params().max_queue_depth;
  auto queue = std::make_unique<RemoteIoQueue>(
      *sim_, *fabric_, *this, client_node, client_pool, depth, fault);
  Connection* conn = open_connection(client_node, depth, queue.get());
  if (conn == nullptr) {
    throw std::runtime_error("nvmf: target on node " + std::to_string(node_) +
                             " refused the connection (down)");
  }
  queue->attach(*conn);
  return queue;
}

NvmfTarget::Connection* NvmfTarget::open_connection(hw::NodeId client_node,
                                                    std::uint32_t depth,
                                                    RemoteIoQueue* queue) {
  if (!accepting()) return nullptr;
  auto conn = std::make_unique<Connection>(
      *sim_, client_node, device_->create_qpair(depth), depth);
  conn->client_queue = queue;
  Connection& ref = *conn;
  connections_.push_back(std::move(conn));
  ref.active_daemons = 2;
  sim_->spawn_daemon(dispatcher_loop(ref), "nvmf-dispatcher");
  sim_->spawn_daemon(harvester_loop(ref), "nvmf-harvester");
  return &ref;
}

void NvmfTarget::detach_connection(Connection* conn) {
  conn->client_queue = nullptr;
  conn->detached = true;
  if (!conn->inbound.is_closed()) conn->inbound.close();
  maybe_reap(conn);
}

void NvmfTarget::maybe_reap(Connection* conn) {
  if (!conn->detached || conn->active_daemons != 0 ||
      conn->pending_returns != 0) {
    return;
  }
  std::erase_if(connections_, [conn](const std::unique_ptr<Connection>& c) {
    return c.get() == conn;
  });
}

dlsim::Task<void> NvmfTarget::dispatcher_loop(Connection& conn) {
  const auto& nic = fabric_->params();
  for (;;) {
    std::optional<RemoteCmd> cmd = co_await conn.inbound.pop();
    if (!cmd) break;
    if (crashed_) continue;  // the target process died; drop the capsule
    // Target CPU: parse the capsule and build the device command;
    // serialized on the single poller core.
    {
      auto guard = co_await poller_mutex_.scoped_lock();
      co_await poller_core_.compute(nic.per_message_cpu + 300);
    }
    co_await conn.slots.acquire();
    if (crashed_) {
      conn.slots.release();
      continue;
    }
    const IoStatus st =
        conn.qp->submit(cmd->op, cmd->offset, cmd->buf, cmd->user_tag);
    if (st != IoStatus::kOk) {
      // The device refused (controller crashed mid-stream): answer with an
      // error capsule instead of wedging the slot accounting. The slot
      // semaphore still bounds healthy submissions, so anything else here
      // is a device-level failure, never kQueueFull.
      conn.slots.release();
      ++conn.pending_returns;
      sim_->spawn(
          return_data(conn, IoCompletion{cmd->user_tag, cmd->op, st, 0}, 0),
          "nvmf-return");
      continue;
    }
    co_await conn.expected.push(*cmd);
  }
  if (!conn.expected.is_closed()) conn.expected.close();
  --conn.active_daemons;
  maybe_reap(&conn);
}

dlsim::Task<void> NvmfTarget::harvester_loop(Connection& conn) {
  for (;;) {
    std::optional<RemoteCmd> exp = co_await conn.expected.pop();
    if (!exp) break;
    if (crashed_) continue;  // completions die inside the dead target
    // The per-connection qpair completes in FIFO order, so the head
    // completion corresponds to `exp`.
    std::vector<IoCompletion> done = conn.qp->poll(1);
    while (done.empty()) {
      co_await conn.qp->wait_for_completion();
      if (crashed_) break;
      done = conn.qp->poll(1);
    }
    if (done.empty()) continue;  // target crashed while waiting
    conn.slots.release();
    IoCompletion completion = done.front();
    completion.user_tag = exp->user_tag;
    {
      auto guard = co_await poller_mutex_.scoped_lock();
      co_await poller_core_.compute(fabric_->params().per_message_cpu);
    }
    // Pipeline the RDMA write back to the client: the NIC pipe model
    // serializes bandwidth; spawning keeps the harvester free to process
    // the next completion.
    // Reads RDMA-write the data back; writes return only the completion
    // capsule (their payload already travelled on the submission leg).
    const std::uint64_t ret_bytes =
        exp->op == IoOp::kWrite ? 0 : exp->buf.size();
    ++conn.pending_returns;
    sim_->spawn(return_data(conn, completion, ret_bytes), "nvmf-return");
  }
  --conn.active_daemons;
  maybe_reap(&conn);
}

dlsim::Task<void> NvmfTarget::return_data(Connection& conn,
                                          IoCompletion completion,
                                          std::uint64_t bytes) {
  bool delivered = false;
  if (!crashed_) {
    if (completion.status == IoStatus::kOk) {
      delivered = co_await fabric_->send(
          node_, conn.client_node,
          bytes > 0 ? bytes : hw::kControlMessageBytes);
    } else {
      // Errors carry no payload: just the completion capsule.
      delivered = co_await fabric_->send(node_, conn.client_node,
                                         hw::kControlMessageBytes);
    }
  }
  // Completion capsule rides behind the data (RDMA_WRITE + flagged CQE).
  // A crash or partition eats it; the client's command deadline recovers.
  if (delivered && !crashed_ && conn.client_queue != nullptr) {
    conn.client_queue->deliver(completion);
  }
  --conn.pending_returns;
  maybe_reap(&conn);
}

}  // namespace dlfs::spdk
