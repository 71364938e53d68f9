// Live event loop: the sim::Scheduler contract over real time and fds.
//
// The protocol stack (Client, Replica, QuorumCall) is written against
// sim::Scheduler + rpc::Transport only. EventLoop is the deployment-side
// implementation of the first half: monotonic wall-clock now(), timers on
// a hashed timer wheel, and readable-fd dispatch via epoll (with a poll()
// fallback when epoll is unavailable). Pairing it with net::UdpTransport
// runs the identical state machines that the discrete-event Simulator
// drives in tests.
//
// Scheduler contract (see sim/simulator.h): TimerId 0 is never handed
// out, ids are never reused, and cancel(0) / cancel(fired id) are no-ops.
//
// Ordering: timers due at the same wheel tick fire in (deadline,
// insertion id) order, mirroring the simulator's same-time FIFO
// tie-break. Zero-delay timers scheduled while draining sockets fire in
// the same loop iteration, after the fd handlers — this is what keeps
// SimTransport-style same-instant coalescing and the replicas' same-tick
// batches working unchanged over UDP: every datagram drained in one
// wakeup lands before the delay-0 flush timers run.
//
// Single-threaded by design, like the simulator: all calls (including
// schedule/cancel) must come from the loop thread or before run().
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"

namespace bftbc::net {

class EventLoop final : public sim::Scheduler {
 public:
  // `force_poll` skips epoll even where available — tests exercise the
  // poll() fallback path on Linux through this.
  explicit EventLoop(bool force_poll = false);
  ~EventLoop() override;

  // Nanoseconds of CLOCK_MONOTONIC elapsed since this loop was built.
  // Starting near zero keeps values comparable to the simulator's
  // virtual timeline (and safely inside sim::Time's unsigned range).
  sim::Time now() const override;

  sim::TimerId schedule(sim::Time delay, std::function<void()> fn) override;
  void cancel(sim::TimerId id) override;

  // Readable-fd watch: `on_readable` runs each time `fd` polls readable.
  // One handler per fd; re-watching replaces it. Handlers may watch or
  // unwatch fds (including their own) from inside the callback.
  using FdHandler = std::function<void()>;
  void watch_fd(int fd, FdHandler on_readable);
  void unwatch_fd(int fd);

  // One iteration: wait up to `max_wait` for fd readiness (shortened when
  // timers are pending), dispatch ready fd handlers, then fire due
  // timers. Returns the number of fd events plus timers fired.
  std::size_t poll_once(sim::Time max_wait = 10 * sim::kMillisecond);

  // Iterate until stop() is called (from a timer or fd handler).
  void run();
  void stop() { stopped_ = true; }

  // Iterate until pred() holds or `timeout` elapses; true iff pred held.
  bool run_until(const std::function<bool()>& pred, sim::Time timeout);

  bool using_epoll() const { return epoll_fd_ >= 0; }
  std::size_t pending_timers() const { return timer_index_.size(); }

 private:
  struct Timer {
    sim::TimerId id = 0;
    sim::Time deadline = 0;
    std::function<void()> fn;
  };
  using Slot = std::list<Timer>;

  // 256 slots x 1ms tick: one wheel turn covers the retransmit/deadline
  // range the protocol actually uses; longer timers simply stay in their
  // slot across turns (each expiry scan re-checks the deadline).
  static constexpr std::size_t kWheelBits = 8;
  static constexpr std::size_t kWheelSlots = std::size_t{1} << kWheelBits;
  static constexpr sim::Time kTickNs = sim::kMillisecond;

  static std::size_t slot_of(sim::Time deadline) {
    return static_cast<std::size_t>(deadline / kTickNs) & (kWheelSlots - 1);
  }

  std::size_t fire_due_timers();
  std::size_t wait_and_dispatch_fds(sim::Time max_wait);
  bool timer_due(sim::Time at) const;

  std::chrono::steady_clock::time_point epoch_;
  int epoll_fd_ = -1;  // -1 => poll() fallback
  std::unordered_map<int, FdHandler> fd_handlers_;

  std::array<Slot, kWheelSlots> wheel_;
  // id -> (slot, node) for O(1) cancel; also the pending-timer count.
  std::unordered_map<sim::TimerId, std::pair<std::size_t, Slot::iterator>>
      timer_index_;
  sim::TimerId next_timer_id_ = 1;  // 0 is the "no timer" sentinel
  bool stopped_ = false;
};

}  // namespace bftbc::net
