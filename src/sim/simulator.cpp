#include "sim/simulator.h"

#include <algorithm>
#include <limits>

#include "util/log.h"

namespace bftbc::sim {

TimerId TimerQueue::push(Time when, std::function<void()> fn) {
  const TimerId id = next_id_++;
  heap_.push(Entry{when, id});
  callbacks_.emplace(id, std::move(fn));
  return id;
}

std::optional<Time> TimerQueue::next_deadline() {
  while (!heap_.empty() && callbacks_.count(heap_.top().id) == 0) {
    heap_.pop();  // cancelled
  }
  if (heap_.empty()) return std::nullopt;
  return heap_.top().when;
}

std::optional<TimerQueue::Due> TimerQueue::pop_due(Time at) {
  while (!heap_.empty() && heap_.top().when <= at) {
    const Entry top = heap_.top();
    heap_.pop();
    auto it = callbacks_.find(top.id);
    if (it == callbacks_.end()) continue;  // cancelled
    Due due{top.when, std::move(it->second)};
    callbacks_.erase(it);
    return due;
  }
  return std::nullopt;
}

Simulator::Simulator() {
  // Log lines carry virtual time while this simulator is alive.
  set_log_time_source([this] { return now_; });
}

Simulator::~Simulator() { clear_log_time_source(); }

TimerId Simulator::schedule(Time delay, std::function<void()> fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

TimerId Simulator::schedule_at(Time when, std::function<void()> fn) {
  return queue_.push(std::max(when, now_), std::move(fn));
}

void Simulator::fire(TimerQueue::Due event) {
  now_ = event.when;
  ++executed_;
  event.fn();
}

bool Simulator::step() {
  auto event = queue_.pop_due(std::numeric_limits<Time>::max());
  if (!event) return false;
  fire(std::move(*event));
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  if (n == max_events) {
    BFTBC_LOG(kWarn) << "simulator stopped at max_events=" << max_events
                     << " with " << pending_events() << " pending";
  }
  return n;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t n = 0;
  while (auto event = queue_.pop_due(deadline)) {
    fire(std::move(*event));
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

bool Simulator::run_while_pending(const std::function<bool()>& pred,
                                  std::size_t max_events) {
  std::size_t n = 0;
  while (pred()) {
    if (n >= max_events || !step()) return pred();
    ++n;
  }
  return false;
}

}  // namespace bftbc::sim
