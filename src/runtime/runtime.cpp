#include "runtime/runtime.hpp"

#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <utility>

#include "common/buffer_pool.hpp"
#include "common/logging.hpp"
#include "common/serialization.hpp"
#include "runtime/worker.hpp"

namespace ddbg {

namespace {
using SteadyClock = std::chrono::steady_clock;
}  // namespace

// ---------------------------------------------------------------------------
// Worker: one process, its inbox, its timers and its thread.
// ---------------------------------------------------------------------------

class Runtime::Worker {
 public:
  Worker(Runtime& runtime, ProcessId id, ProcessPtr process, Rng rng);
  ~Worker();

  void start();
  void stop();

  void push_delivery(ChannelId channel, Message message,
                     std::uint32_t wire_bytes);
  void push_closure(std::function<void(ProcessContext&, Process&)> action);

  // ---- reliability layer (runtime_.config_.faults only) ----
  // The fault and recovery policy is net/reliable_link's; the worker moves
  // the frames and acks it asks for.  The sender halves of this worker's
  // out-channels run on its thread (do_send runs on it, acks and internal
  // deadlines are dispatched on it), as do the receiver halves of its
  // in-channels.
  void rel_transmit(ChannelId channel, std::uint64_t seq);
  void rel_check_retries(ChannelId channel);

  TimerId add_timer(Duration delay);
  void cancel_timer(TimerId timer);

  [[nodiscard]] Process& process() { return *process_; }
  [[nodiscard]] Runtime& runtime() { return runtime_; }
  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  // Encode-buffer pool for sends issued from this worker's thread; only
  // that thread may touch it.
  [[nodiscard]] BufferPool& pool() { return pool_; }

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
    std::function<void(ProcessContext&, Process&)> closure;
    std::function<void()> fn;
    TimerId timer;
  };

  void thread_main();
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
  ProcessId id_;
  ProcessPtr process_;
  Rng rng_;
  std::unique_ptr<WorkerContext<Worker>> context_;
  BufferPool pool_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Item> inbox_;
  TimerQueue timers_;
  // Deadline-fired reliability actions; inserted under mutex_, executed on
  // this worker's thread.
  std::multimap<SteadyClock::time_point, std::function<void()>> internal_;
  bool stopping_ = false;

  std::thread thread_;
};

Runtime::Worker::Worker(Runtime& runtime, ProcessId id, ProcessPtr process,
                        Rng rng)
    : runtime_(runtime), id_(id), process_(std::move(process)), rng_(rng) {
  context_ = std::make_unique<WorkerContext<Worker>>(*this);
}

Runtime::Worker::~Worker() { stop(); }

void Runtime::Worker::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void Runtime::Worker::stop() {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
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

void Runtime::Worker::push_closure(
    std::function<void(ProcessContext&, Process&)> action) {
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

TimerId Runtime::Worker::add_timer(Duration delay) {
  const TimerId id(runtime_.next_timer_id_.fetch_add(1));
  const auto deadline =
      SteadyClock::now() + std::chrono::nanoseconds(delay.ns);
  {
    std::lock_guard<std::mutex> guard{mutex_};
    timers_.add(id, deadline);
  }
  cv_.notify_one();
  return id;
}

void Runtime::Worker::cancel_timer(TimerId timer) {
  std::lock_guard<std::mutex> guard{mutex_};
  timers_.cancel(timer);
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

void Runtime::Worker::thread_main() {
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
          runtime_.rel_send_[item.channel.value()].ack(item.rel_seq);
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
  const auto tx = runtime_.rel_send_[channel.value()].transmit(seq);
  if (!tx.has_value()) return;  // acked meanwhile
  if (tx->redial) {
    // After a redial delay, resync replays the whole unacked window.
    const auto redial =
        SteadyClock::now() +
        std::chrono::nanoseconds(runtime_.config_.reliable.rto_initial.ns);
    schedule_internal(redial, [this, channel] {
      runtime_.link_env_.on_reconnect(channel);
      runtime_.rel_send_[channel.value()].resync(runtime_.now());
      rel_check_retries(channel);
    });
  }
  Worker& dest =
      *runtime_.workers_[runtime_.topology_.channel(channel).destination
                             .value()];
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
       runtime_.rel_send_[c].retransmits(runtime_.now())) {
    rel_transmit(channel, seq);
  }
  rel_arm_retry(channel);
}

void Runtime::Worker::rel_arm_retry(ChannelId channel) {
  const std::size_t c = channel.value();
  const auto deadline = runtime_.rel_send_[c].next_deadline();
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
  LinkReceiver& receiver = runtime_.rel_recv_[c];
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
  Worker& src =
      *runtime_.workers_[runtime_.topology_.channel(item.channel).source
                             .value()];
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
    : topology_(std::move(topology)),
      config_(config),
      metrics_("threads", topology_.num_processes(),
               channel_meta(topology_)) {
  DDBG_ASSERT(processes.size() == topology_.num_processes(),
              "one Process per topology process required");
  if (config_.faults) {
    link_env_ = LinkEnv{config_.faults.get(), config_.reliable, &metrics_,
                        config_.replay.get()};
    rel_send_.reserve(topology_.num_channels());
    rel_recv_.reserve(topology_.num_channels());
    for (const ChannelSpec& spec : topology_.channels()) {
      rel_send_.emplace_back(link_env_, spec.id);
      rel_recv_.emplace_back(link_env_, spec.id);
    }
    retry_arm_.assign(topology_.num_channels(),
                      SteadyClock::time_point::max());
  }
  Rng root(config_.seed);
  workers_.reserve(processes.size());
  for (std::size_t i = 0; i < processes.size(); ++i) {
    workers_.push_back(std::make_unique<Worker>(
        *this, ProcessId(static_cast<std::uint32_t>(i)),
        std::move(processes[i]), root.fork()));
  }
}

Runtime::~Runtime() { shutdown(); }

void Runtime::start() {
  DDBG_ASSERT(!started_.exchange(true), "Runtime::start called twice");
  clock_.reset();
  for (auto& worker : workers_) worker->start();
}

void Runtime::shutdown() {
  if (stopped_.exchange(true)) return;
  for (auto& worker : workers_) worker->stop();
}

void Runtime::post(ProcessId target,
                   std::function<void(ProcessContext&, Process&)> action) {
  worker_of(workers_, target).push_closure(std::move(action));
}

bool Runtime::call(ProcessId target,
                   std::function<void(ProcessContext&, Process&)> action,
                   Duration timeout) {
  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  post(target, [action = std::move(action), done](ProcessContext& ctx,
                                                  Process& process) {
    action(ctx, process);
    done->set_value();
  });
  return future.wait_for(std::chrono::nanoseconds(timeout.ns)) ==
         std::future_status::ready;
}

Process& Runtime::process(ProcessId id) {
  return worker_of(workers_, id).process();
}

void Runtime::do_send(ProcessId sender, ChannelId channel, Message message) {
  const ChannelSpec& spec = topology_.channel(channel);
  DDBG_ASSERT(spec.source == sender,
              "process may only send on its own outgoing channels");
  if (message.message_id == 0) {
    message.message_id = next_message_id_.fetch_add(1);
  }
  // Wire-size accounting encodes into the sending worker's pooled buffer
  // (do_send runs on the sender's thread), so steady-state sends allocate
  // nothing.
  std::uint32_t wire_bytes = 0;
  {
    BufferPool::Lease lease = workers_[sender.value()]->pool().acquire();
    metrics_.on_pool_acquire(lease.reused());
    ByteWriter writer(lease.bytes());
    message.encode(writer);
    wire_bytes = static_cast<std::uint32_t>(writer.size());
  }
  metrics_.on_send(channel.value(), traffic_class(message.kind), wire_bytes);
  if (config_.faults) {
    // Lossy transport: stage in the sending worker's retransmit window
    // (do_send runs on the sender's thread) and transmit under the fault
    // plan; the destination's receiver restores FIFO exactly-once order.
    const std::uint64_t seq =
        rel_send_[channel.value()].stage(std::move(message), wire_bytes, now());
    workers_[sender.value()]->rel_transmit(channel, seq);
    return;
  }
  workers_[spec.destination.value()]->push_delivery(channel,
                                                    std::move(message),
                                                    wire_bytes);
}

}  // namespace ddbg
