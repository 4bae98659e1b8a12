#include "runtime/runtime.hpp"

#include <chrono>
#include <deque>
#include <map>
#include <utility>

#include "common/buffer_pool.hpp"
#include "common/logging.hpp"
#include "common/serialization.hpp"

namespace ddbg {

namespace {
using SteadyClock = std::chrono::steady_clock;
}  // namespace

// ---------------------------------------------------------------------------
// Worker: one process, its inbox, its timers and its thread.
// ---------------------------------------------------------------------------

class Runtime::Worker final : public WorkerBase {
 public:
  Worker(Runtime& runtime, ProcessId id, ProcessPtr process, Rng rng)
      : WorkerBase(runtime, id, std::move(process), rng), runtime_(runtime) {}
  ~Worker() override { stop(); }

  void push_delivery(ChannelId channel, Message message,
                     std::uint32_t wire_bytes);
  void push_closure(Closure action) override;

  // ---- reliability layer (runtime_.links_ enabled only) ----
  // The fault and recovery policy is net/reliable_link's; the worker moves
  // the frames and acks it asks for.  The sender halves of this worker's
  // out-channels run on its thread (do_send runs on it, acks and internal
  // deadlines are dispatched on it), as do the receiver halves of its
  // in-channels.
  void rel_transmit(ChannelId channel, std::uint64_t seq);
  void rel_check_retries(ChannelId channel);

 private:
  struct Item {
    // kRelFrame: a reliability data frame arriving at this worker's
    // receiver; kAck: a cumulative ack arriving back at this worker's
    // sender; kInternal: a deadline-fired reliability action (retransmit
    // check, delayed frame/ack, reconnect resync).
    enum class Kind {
      kDeliver,
      kClosure,
      kTimer,
      kRelFrame,
      kAck,
      kInternal,
    } kind;
    ChannelId channel;
    Message message;
    std::uint32_t wire_bytes = 0;
    std::uint64_t rel_seq = 0;  // kRelFrame: data seq; kAck: cum ack
    Closure closure;
    std::function<void()> fn;
    TimerId timer;
  };

  void run() override;
  void request_stop() override;
  void wake() override { cv_.notify_one(); }
  // Queue a data frame (kRelFrame) or an ack (kAck) from another worker.
  void push_rel(Item item);
  void rel_arm_retry(ChannelId channel);
  // Hand a frame or an ack to worker `to`, after `delay` when positive.
  void rel_post(Worker& to, Item item, Duration delay);
  void rel_on_frame(Item& item, std::size_t& deliveries);
  void schedule_internal(SteadyClock::time_point when,
                         std::function<void()> fn);
  // Fills `out` with the next runnable work: the whole inbox swapped out
  // under one lock acquisition (from_inbox=true), or a single due timer.
  // Blocks until work arrives; returns false when the worker is stopping.
  bool next_batch(std::deque<Item>& out, bool& from_inbox);

  Runtime& runtime_;
  // With WorkerBase::mutex_: the inbox, deadline-fired reliability actions
  // (inserted under the mutex, executed on this worker's thread) and the
  // stop flag.
  std::condition_variable cv_;
  std::deque<Item> inbox_;
  std::multimap<SteadyClock::time_point, std::function<void()>> internal_;
  bool stopping_ = false;
};

void Runtime::Worker::request_stop() {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    stopping_ = true;
  }
  cv_.notify_all();
}

void Runtime::Worker::push_delivery(ChannelId channel, Message message,
                                    std::uint32_t wire_bytes) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopping_) return;
    Item item;
    item.kind = Item::Kind::kDeliver;
    item.channel = channel;
    item.message = std::move(message);
    item.wire_bytes = wire_bytes;
    inbox_.push_back(std::move(item));
    depth = inbox_.size();
  }
  runtime_.metrics_.observe_queue_depth(id_.value(), depth);
  cv_.notify_one();
}

void Runtime::Worker::push_closure(Closure action) {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopping_) return;
    Item item;
    item.kind = Item::Kind::kClosure;
    item.closure = std::move(action);
    inbox_.push_back(std::move(item));
  }
  cv_.notify_one();
}

bool Runtime::Worker::next_batch(std::deque<Item>& out, bool& from_inbox) {
  std::unique_lock<std::mutex> lock{mutex_};
  while (true) {
    if (stopping_) return false;
    if (!inbox_.empty()) {
      // Swap the whole inbox out: the batch dispatches lock-free while
      // senders refill a fresh deque.  Messages keep priority over due
      // timers, exactly as the one-item-per-lock loop behaved.
      out.swap(inbox_);
      from_inbox = true;
      return true;
    }
    const auto now = SteadyClock::now();
    // Internal reliability deadlines (retransmit checks, delayed frames)
    // fire with the same priority as process timers.
    if (!internal_.empty() && internal_.begin()->first <= now) {
      Item item;
      item.kind = Item::Kind::kInternal;
      item.fn = std::move(internal_.begin()->second);
      internal_.erase(internal_.begin());
      out.push_back(std::move(item));
      from_inbox = false;
      return true;
    }
    if (const auto due = timers_.pop_due(now)) {
      Item item;
      item.kind = Item::Kind::kTimer;
      item.timer = *due;
      out.push_back(std::move(item));
      from_inbox = false;
      return true;
    }
    auto deadline = timers_.next_deadline();
    if (!internal_.empty() && internal_.begin()->first < deadline) {
      deadline = internal_.begin()->first;
    }
    if (deadline != SteadyClock::time_point::max()) {
      cv_.wait_until(lock, deadline);
    } else {
      cv_.wait(lock);
    }
  }
}

void Runtime::Worker::run() {
  process_->on_start(*context_);
  std::deque<Item> batch;
  bool from_inbox = false;
  while (next_batch(batch, from_inbox)) {
    std::size_t deliveries = 0;
    for (Item& item : batch) {
      switch (item.kind) {
        case Item::Kind::kDeliver: {
          ++deliveries;
          runtime_.metrics_.on_deliver(item.channel.value(),
                                       traffic_class(item.message.kind),
                                       item.wire_bytes);
          process_->on_message(*context_, item.channel,
                               std::move(item.message));
          break;
        }
        case Item::Kind::kClosure:
          item.closure(*context_, *process_);
          break;
        case Item::Kind::kTimer:
          process_->on_timer(*context_, item.timer);
          break;
        case Item::Kind::kRelFrame:
          rel_on_frame(item, deliveries);
          break;
        case Item::Kind::kAck:
          runtime_.links_.sender(item.channel).ack(item.rel_seq);
          rel_arm_retry(item.channel);
          break;
        case Item::Kind::kInternal:
          item.fn();
          break;
      }
    }
    if (from_inbox && deliveries > 0) {
      runtime_.metrics_.on_deliver_batch(deliveries);
    }
    batch.clear();
    progress_signal().notify();
  }
}

// ---------------------------------------------------------------------------
// Worker: reliability layer
// ---------------------------------------------------------------------------

void Runtime::Worker::schedule_internal(SteadyClock::time_point when,
                                        std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopping_) return;
    internal_.emplace(when, std::move(fn));
  }
  cv_.notify_one();
}

void Runtime::Worker::rel_transmit(ChannelId channel, std::uint64_t seq) {
  const auto tx = runtime_.links_.sender(channel).transmit(seq);
  if (!tx.has_value()) return;  // acked meanwhile
  if (tx->redial) {
    // After a redial delay, resync replays the whole unacked window.
    const auto redial =
        SteadyClock::now() +
        std::chrono::nanoseconds(runtime_.links_.reliable().rto_initial.ns);
    schedule_internal(redial, [this, channel] {
      runtime_.links_.on_reconnect(channel);
      runtime_.links_.sender(channel).resync(runtime_.now());
      rel_check_retries(channel);
    });
  }
  Worker& dest = runtime_.worker_as<Worker>(
      runtime_.topology_.channel(channel).destination);
  for (std::uint8_t i = 0; i < tx->copies; ++i) {
    // Frame contents are fixed at transmission time: copy now even for a
    // delayed frame, so an ack retiring the window entry cannot
    // invalidate it.
    Item item;
    item.kind = Item::Kind::kRelFrame;
    item.channel = channel;
    item.message = tx->frame->message;
    item.wire_bytes = static_cast<std::uint32_t>(tx->frame->meta);
    item.rel_seq = seq;
    rel_post(dest, std::move(item), tx->extra_delay);
  }
  rel_arm_retry(channel);
}

void Runtime::Worker::rel_post(Worker& to, Item item, Duration delay) {
  if (delay.ns <= 0) {
    to.push_rel(std::move(item));
    return;
  }
  schedule_internal(SteadyClock::now() + std::chrono::nanoseconds(delay.ns),
                    [&to, item = std::move(item)]() mutable {
                      to.push_rel(std::move(item));
                    });
}

void Runtime::Worker::rel_check_retries(ChannelId channel) {
  const std::size_t c = channel.value();
  runtime_.retry_arm_[c] = SteadyClock::time_point::max();
  for (const std::uint64_t seq :
       runtime_.links_.sender(channel).retransmits(runtime_.now())) {
    rel_transmit(channel, seq);
  }
  rel_arm_retry(channel);
}

void Runtime::Worker::rel_arm_retry(ChannelId channel) {
  const std::size_t c = channel.value();
  const auto deadline = runtime_.links_.sender(channel).next_deadline();
  if (!deadline.has_value()) return;
  const auto when = runtime_.clock_.at(*deadline);
  if (runtime_.retry_arm_[c] <= when) return;  // an earlier check covers it
  runtime_.retry_arm_[c] = when;
  schedule_internal(when, [this, channel] { rel_check_retries(channel); });
}

void Runtime::Worker::push_rel(Item item) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopping_) return;
    inbox_.push_back(std::move(item));
    depth = inbox_.size();
  }
  runtime_.metrics_.observe_queue_depth(id_.value(), depth);
  cv_.notify_one();
}

void Runtime::Worker::rel_on_frame(Item& item, std::size_t& deliveries) {
  const std::size_t c = item.channel.value();
  LinkReceiver& receiver = runtime_.links_.receiver(item.channel);
  std::vector<ReliableReceiver::Delivery> released;
  receiver.on_frame(item.rel_seq, std::move(item.message), item.wire_bytes,
                    released);
  for (auto& delivery : released) {
    ++deliveries;
    runtime_.metrics_.on_deliver(c, traffic_class(delivery.message.kind),
                                 static_cast<std::uint32_t>(delivery.meta));
    process_->on_message(*context_, item.channel,
                         std::move(delivery.message));
  }
  const auto ack = receiver.ack();
  if (!ack.has_value()) return;
  Worker& src = runtime_.worker_as<Worker>(
      runtime_.topology_.channel(item.channel).source);
  Item reply;
  reply.kind = Item::Kind::kAck;
  reply.channel = item.channel;
  reply.rel_seq = ack->cum_ack;
  rel_post(src, std::move(reply), ack->extra_delay);
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Topology topology, std::vector<ProcessPtr> processes,
                 RuntimeConfig config)
    : RuntimeShell("threads", std::move(topology), config) {
  if (links_.enabled()) {
    retry_arm_.assign(topology_.num_channels(),
                      SteadyClock::time_point::max());
  }
  spawn_workers<Worker>(*this, std::move(processes), config.seed);
}

Runtime::~Runtime() { shutdown(); }

void Runtime::start() {
  DDBG_ASSERT(!started_.exchange(true), "Runtime::start called twice");
  launch_workers();
}

void Runtime::shutdown() {
  if (stopped_.exchange(true)) return;
  for (auto& worker : workers_) worker->stop();
}

void Runtime::do_send(ProcessId sender, ChannelId channel, Message message) {
  const ChannelSpec& spec = prepare_send(sender, channel, message);
  Worker& source = worker_as<Worker>(sender);
  // Wire-size accounting encodes into the sending worker's pooled buffer
  // (do_send runs on the sender's thread), so steady-state sends allocate
  // nothing.
  std::uint32_t wire_bytes = 0;
  {
    BufferPool::Lease lease = source.pool().acquire();
    metrics_.on_pool_acquire(lease.reused());
    ByteWriter writer(lease.bytes());
    message.encode(writer);
    wire_bytes = static_cast<std::uint32_t>(writer.size());
  }
  metrics_.on_send(channel.value(), traffic_class(message.kind), wire_bytes);
  if (links_.enabled()) {
    // Lossy transport: stage in the sending worker's retransmit window
    // (do_send runs on the sender's thread) and transmit under the fault
    // plan; the destination's receiver restores FIFO exactly-once order.
    const std::uint64_t seq =
        links_.sender(channel).stage(std::move(message), wire_bytes, now());
    source.rel_transmit(channel, seq);
    return;
  }
  worker_as<Worker>(spec.destination)
      .push_delivery(channel, std::move(message), wire_bytes);
}

}  // namespace ddbg
