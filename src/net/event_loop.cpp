#include "net/event_loop.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace bftbc::net {

EventLoop::EventLoop()
    : epoch_(std::chrono::steady_clock::now()), epoll_fd_(epoll_create1(0)) {
  if (epoll_fd_ < 0) {
    std::fprintf(stderr, "net::EventLoop: epoll_create1 failed: %s\n",
                 std::strerror(errno));
    std::abort();
  }
}

EventLoop::~EventLoop() { ::close(epoll_fd_); }

sim::Time EventLoop::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<sim::Time>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

sim::TimerId EventLoop::schedule(sim::Time delay, std::function<void()> fn) {
  return timers_.push(now() + delay, std::move(fn));
}

std::size_t EventLoop::fire_due_timers() {
  std::size_t fired = 0;
  // Each pass fires what is due at one reading of the clock. Callbacks
  // commonly schedule delay-0 followups (coalescing flushes, zero-cost
  // processing charges) that must run within this same wakeup, exactly
  // as the simulator runs all events of one instant before time
  // advances; they fall due at the next pass. The pass bound keeps a
  // pathological self-rescheduling timer from wedging the loop; anything
  // left spills to the next iteration.
  for (int pass = 0; pass < 64; ++pass) {
    const sim::Time at = now();
    const std::size_t before = fired;
    while (auto timer = timers_.pop_due(at)) {
      timer->fn();
      ++fired;
    }
    if (fired == before) break;
  }
  return fired;
}

std::size_t EventLoop::wait_and_dispatch_fds(sim::Time max_wait) {
  // Block until the next timer deadline at the latest, rounded up to
  // epoll_wait's millisecond so a timer is due when the wait ends. With
  // no timer and no bound, block until an fd is readable (-1); any other
  // wait is clamped to the largest int, and the round-up cannot wrap.
  sim::Time wait = max_wait;
  if (const auto next = timers_.next_deadline()) {
    const sim::Time at = now();
    wait = *next <= at ? 0 : std::min(wait, *next - at);
  }
  int wait_ms = -1;
  if (wait != kNoBound) {
    const sim::Time ms =
        wait / sim::kMillisecond + (wait % sim::kMillisecond != 0 ? 1 : 0);
    wait_ms = static_cast<int>(
        std::min<sim::Time>(ms, std::numeric_limits<int>::max()));
  }

  // The ready list is a snapshot: handlers may unwatch fds (checked again
  // at call time) or watch new ones (picked up next iteration), so
  // iteration never walks a mutating container.
  std::array<epoll_event, 64> ready;
  const int n = epoll_wait(epoll_fd_, ready.data(),
                           static_cast<int>(ready.size()), wait_ms);
  std::size_t dispatched = 0;
  for (int i = 0; i < n; ++i) {
    auto it = fd_handlers_.find(ready[i].data.fd);
    if (it == fd_handlers_.end()) continue;  // unwatched by a prior handler
    it->second();
    ++dispatched;
  }
  return dispatched;
}

void EventLoop::watch_fd(int fd, FdHandler on_readable) {
  const bool replacing = fd_handlers_.count(fd) != 0;
  fd_handlers_[fd] = std::move(on_readable);
  if (!replacing) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void EventLoop::unwatch_fd(int fd) {
  if (fd_handlers_.erase(fd) == 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
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
  while (!stopped_) poll_once(kNoBound);
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
