// Deterministic discrete-event simulator.
//
// The protocol stack runs over virtual time: timers, message deliveries,
// and crypto-cost charges are all events in one priority queue. Two runs
// with the same seed execute the same event sequence — the property every
// test and benchmark in this repo leans on.
//
// Tie-breaking: events at the same virtual time fire in insertion order
// (the monotone timer id), so determinism never depends on
// std::priority_queue internals.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace bftbc::sim {

// Virtual time in nanoseconds.
using Time = std::uint64_t;

constexpr Time kMicrosecond = 1000;
constexpr Time kMillisecond = 1000 * kMicrosecond;
constexpr Time kSecond = 1000 * kMillisecond;

using TimerId = std::uint64_t;

// The timer contract protocol code is written against: current time plus
// schedule/cancel. Two implementations exist — the discrete-event
// Simulator below (virtual time) and net::EventLoop (monotonic wall
// time over epoll) — so the identical client/replica state machines
// run simulated and live. Implementations never hand out TimerId 0 and
// never reuse an id, and cancel(0) / cancel(fired id) are no-ops; a
// pending timer that is cancelled never runs, even when the cancelling
// callback fires at the same instant. Timer holders zero their stored
// ids once a timer fires (see QuorumCall).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  virtual Time now() const = 0;

  // Schedule fn to run at now() + delay. Returns an id usable with cancel.
  virtual TimerId schedule(Time delay, std::function<void()> fn) = 0;

  // Cancel a pending timer; no-op if already fired or cancelled.
  virtual void cancel(TimerId id) = 0;
};

// The timer queue behind both Schedulers: a min-heap of (deadline, id),
// so timers due at the same time pop in schedule order. Callbacks live
// beside the heap, so cancel() just erases one and pop_due() skips a
// popped entry that has none.
class TimerQueue {
 public:
  struct Due {
    Time when;
    std::function<void()> fn;
  };

  TimerId push(Time when, std::function<void()> fn);
  void cancel(TimerId id) { callbacks_.erase(id); }

  // Deadline of the earliest pending timer, if any.
  std::optional<Time> next_deadline();

  // Removes and returns the earliest pending timer if it is due at `at`.
  std::optional<Due> pop_due(Time at);

  std::size_t size() const { return callbacks_.size(); }

 private:
  struct Entry {
    Time when;
    TimerId id;
    bool operator>(const Entry& other) const {
      return when != other.when ? when > other.when : id > other.id;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_map<TimerId, std::function<void()>> callbacks_;
  TimerId next_id_ = 1;  // 0 is the "no timer" sentinel
};

class Simulator final : public Scheduler {
 public:
  Simulator();
  ~Simulator() override;

  Time now() const override { return now_; }

  TimerId schedule(Time delay, std::function<void()> fn) override;
  TimerId schedule_at(Time when, std::function<void()> fn);

  void cancel(TimerId id) override { queue_.cancel(id); }

  // Run a single event. Returns false if the queue is empty.
  bool step();

  // Run until the event queue drains or max_events fire; returns the
  // number of events executed. A bounded default guards against protocol
  // bugs that retransmit forever.
  std::size_t run(std::size_t max_events = kDefaultMaxEvents);

  // Run events with timestamp <= deadline (advances now_ to deadline even
  // if the queue empties earlier).
  std::size_t run_until(Time deadline);

  // Run until pred() is true, the queue drains, or max_events fire.
  // Returns true iff pred() held when it stopped.
  bool run_while_pending(const std::function<bool()>& pred,
                         std::size_t max_events = kDefaultMaxEvents);

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t executed_events() const { return executed_; }

  static constexpr std::size_t kDefaultMaxEvents = 50'000'000;

 private:
  void fire(TimerQueue::Due event);

  TimerQueue queue_;
  Time now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace bftbc::sim
