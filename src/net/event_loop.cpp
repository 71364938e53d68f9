#include "net/event_loop.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>

#if defined(__linux__)
#include <sys/epoll.h>
#endif

namespace bftbc::net {

EventLoop::EventLoop(bool force_poll)
    : epoch_(std::chrono::steady_clock::now()) {
#if defined(__linux__)
  if (!force_poll) {
    epoll_fd_ = epoll_create1(0);  // -1 on failure => poll() fallback
  }
#else
  (void)force_poll;
#endif
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

sim::Time EventLoop::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<sim::Time>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

sim::TimerId EventLoop::schedule(sim::Time delay, std::function<void()> fn) {
  const sim::TimerId id = next_timer_id_++;
  const sim::Time deadline = now() + delay;
  Slot& slot = wheel_[slot_of(deadline)];
  slot.push_back(Timer{id, deadline, std::move(fn)});
  timer_index_.emplace(id, std::make_pair(slot_of(deadline), --slot.end()));
  return id;
}

void EventLoop::cancel(sim::TimerId id) {
  auto it = timer_index_.find(id);
  if (it == timer_index_.end()) return;  // fired / cancelled / id 0
  wheel_[it->second.first].erase(it->second.second);
  timer_index_.erase(it);
}

bool EventLoop::timer_due(sim::Time at) const {
  // Wheel slots hold few entries, and only slots covering [oldest
  // pending, at] can contain a due timer; a full scan is still cheap at
  // 256 slots and keeps this obviously correct.
  for (const Slot& slot : wheel_) {
    for (const Timer& t : slot) {
      if (t.deadline <= at) return true;
    }
  }
  return false;
}

std::size_t EventLoop::fire_due_timers() {
  std::size_t fired = 0;
  // Re-collect after each batch: callbacks commonly schedule delay-0
  // followups (coalescing flushes, zero-cost processing charges) that
  // must run within this same wakeup, exactly as the simulator runs all
  // events of one instant before time advances. The pass bound keeps a
  // pathological self-rescheduling timer from wedging the loop; anything
  // left spills to the next iteration.
  for (int pass = 0; pass < 64; ++pass) {
    const sim::Time at = now();
    std::vector<Timer> due;
    for (Slot& slot : wheel_) {
      for (auto it = slot.begin(); it != slot.end();) {
        if (it->deadline <= at) {
          timer_index_.erase(it->id);
          due.push_back(std::move(*it));
          it = slot.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (due.empty()) return fired;
    // Same-deadline FIFO by insertion id — the simulator's tie-break.
    std::sort(due.begin(), due.end(), [](const Timer& a, const Timer& b) {
      return a.deadline != b.deadline ? a.deadline < b.deadline : a.id < b.id;
    });
    for (Timer& t : due) {
      t.fn();
      ++fired;
    }
  }
  return fired;
}

std::size_t EventLoop::wait_and_dispatch_fds(sim::Time max_wait) {
  // Block only as long as the timer wheel allows: with timers pending we
  // wake at least every tick; with a timer already due we don't block.
  sim::Time wait = max_wait;
  if (!timer_index_.empty()) wait = std::min(wait, kTickNs);
  if (timer_due(now())) wait = 0;
  const int wait_ms = static_cast<int>(wait / sim::kMillisecond);

  // Snapshot ready fds before dispatching: handlers may unwatch fds
  // (checked again at call time) or watch new ones (picked up next
  // iteration), so iteration never walks a mutating container.
  std::vector<int> ready;

  if (epoll_fd_ >= 0) {
#if defined(__linux__)
    std::array<epoll_event, 64> events;
    const int n = epoll_wait(epoll_fd_, events.data(),
                             static_cast<int>(events.size()), wait_ms);
    for (int i = 0; i < n; ++i) ready.push_back(events[i].data.fd);
#endif
  } else {
    std::vector<pollfd> fds;
    fds.reserve(fd_handlers_.size());
    for (const auto& [fd, handler] : fd_handlers_) {
      fds.push_back(pollfd{fd, POLLIN, 0});
    }
    if (fds.empty()) {
      if (wait_ms > 0) ::poll(nullptr, 0, wait_ms);  // just sleep
      return 0;
    }
    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), wait_ms);
    if (n > 0) {
      for (const pollfd& p : fds) {
        if (p.revents & (POLLIN | POLLERR | POLLHUP)) ready.push_back(p.fd);
      }
    }
  }

  std::size_t dispatched = 0;
  for (int fd : ready) {
    auto it = fd_handlers_.find(fd);
    if (it == fd_handlers_.end()) continue;  // unwatched by a prior handler
    it->second();
    ++dispatched;
  }
  return dispatched;
}

void EventLoop::watch_fd(int fd, FdHandler on_readable) {
  const bool replacing = fd_handlers_.count(fd) != 0;
  fd_handlers_[fd] = std::move(on_readable);
#if defined(__linux__)
  if (epoll_fd_ >= 0 && !replacing) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
#else
  (void)replacing;
#endif
}

void EventLoop::unwatch_fd(int fd) {
  if (fd_handlers_.erase(fd) == 0) return;
#if defined(__linux__)
  if (epoll_fd_ >= 0) epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
}

std::size_t EventLoop::poll_once(sim::Time max_wait) {
  // fds first, then timers: datagrams drained in this wakeup are
  // processed before the delay-0 timers they scheduled, preserving the
  // simulator's same-instant ordering for coalescing and replica batches.
  const std::size_t fds = wait_and_dispatch_fds(max_wait);
  return fds + fire_due_timers();
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_) poll_once();
}

bool EventLoop::run_until(const std::function<bool()>& pred,
                          sim::Time timeout) {
  const sim::Time deadline = now() + timeout;
  while (!pred()) {
    if (now() >= deadline) return false;
    poll_once(std::min<sim::Time>(deadline - now(), 10 * sim::kMillisecond));
  }
  return true;
}

}  // namespace bftbc::net
