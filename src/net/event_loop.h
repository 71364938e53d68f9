// Live event loop: the sim::Scheduler contract over real time and fds.
//
// The protocol stack (Client, Replica, QuorumCall) is written against
// sim::Scheduler + rpc::Transport only. EventLoop is the deployment-side
// implementation of the first half: monotonic wall-clock now(), timers on
// the simulator's own sim::TimerQueue, and readable-fd dispatch via
// epoll. Pairing it with net::UdpTransport runs the identical state
// machines that the discrete-event Simulator drives in tests.
//
// Scheduler contract (see sim/simulator.h): TimerId 0 is never handed
// out, ids are never reused, cancel(0) / cancel(fired id) are no-ops, and
// a cancelled timer never runs.
//
// Ordering: due timers fire in (deadline, id) order, the simulator's
// same-time FIFO tie-break. Zero-delay timers scheduled while draining
// sockets fire in the same loop iteration, after the fd handlers — this
// is what keeps rpc::SendCoalescer and the replicas' same-tick batches
// working unchanged over UDP: every datagram drained in one wakeup lands
// before the delay-0 flush timers run.
//
// Single-threaded by design, like the simulator: all calls (including
// schedule/cancel) must come from the loop thread or before run().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>

#include "sim/simulator.h"

namespace bftbc::net {

class EventLoop final : public sim::Scheduler {
 public:
  // Aborts with the errno text if the kernel refuses an epoll instance:
  // a loop without one could never dispatch a socket.
  EventLoop();
  ~EventLoop() override;

  // Nanoseconds of CLOCK_MONOTONIC elapsed since this loop was built.
  // Starting near zero keeps values comparable to the simulator's
  // virtual timeline (and safely inside sim::Time's unsigned range).
  sim::Time now() const override;

  sim::TimerId schedule(sim::Time delay, std::function<void()> fn) override;
  void cancel(sim::TimerId id) override { timers_.cancel(id); }

  // Readable-fd watch: `on_readable` runs each time `fd` polls readable.
  // One handler per fd; re-watching replaces it. Handlers may watch or
  // unwatch fds (including their own) from inside the callback.
  using FdHandler = std::function<void()>;
  void watch_fd(int fd, FdHandler on_readable);
  void unwatch_fd(int fd);

  // One iteration: wait up to `max_wait` for fd readiness (shortened to
  // the next timer deadline), dispatch ready fd handlers, then fire due
  // timers. Every caller states its bound; run() passes one that never
  // ends the wait. Returns the number of fd events plus timers fired.
  std::size_t poll_once(sim::Time max_wait);

  // Iterate until stop() is called (from a timer or fd handler). Each
  // wait lasts until the next timer or fd event, however far off, so an
  // idle loop wakes only for its timers.
  void run();
  void stop() { stopped_ = true; }

  // Iterate until pred() holds or `timeout` elapses; true iff pred held.
  bool run_until(const std::function<bool()>& pred, sim::Time timeout);

  std::size_t pending_timers() const { return timers_.size(); }

 private:
  // run()'s poll_once bound: the wait never ends on its own.
  static constexpr sim::Time kNoBound = std::numeric_limits<sim::Time>::max();

  std::size_t fire_due_timers();
  std::size_t wait_and_dispatch_fds(sim::Time max_wait);

  std::chrono::steady_clock::time_point epoch_;
  int epoll_fd_ = -1;
  std::unordered_map<int, FdHandler> fd_handlers_;
  sim::TimerQueue timers_;
  bool stopped_ = false;
};

}  // namespace bftbc::net
