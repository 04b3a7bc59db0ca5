// Level-triggered epoll reactor: the single readiness multiplexer behind
// the collector server and the multiplexed client. One epoll instance,
// opaque per-fd tags, and a signal-safe Wake() (an eventfd registered
// alongside the sockets) so a SIGTERM handler or another thread can
// interrupt a blocked Wait without races.
//
// Level-triggered on purpose: a handler that reads PART of a socket's
// backlog (the server caps per-round reads for fairness) is re-notified on
// the next Wait instead of needing edge-triggered drain loops.
#pragma once

#include <cstdint>
#include <span>

#include "common/result.h"
#include "net/socket.h"

namespace numdist::net {

/// \brief epoll wrapper with an integrated wakeup channel.
class Reactor {
 public:
  /// One readiness notification. `tag` is the pointer registered with
  /// Add(); a null tag is the wakeup channel (Wake was called).
  struct Event {
    void* tag = nullptr;
    uint32_t events = 0;  ///< EPOLLIN / EPOLLOUT / EPOLLHUP / EPOLLERR bits.
  };

  static Result<Reactor> Make();

  Reactor(Reactor&&) = default;
  Reactor& operator=(Reactor&&) = default;

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT bits), reported with
  /// `tag`. A tag of nullptr is reserved for the wakeup channel.
  /// FailedPrecondition when epoll does not support the fd's type (a
  /// regular file or /dev/null: EPERM); such an fd is always readable.
  Status Add(int fd, uint32_t events, void* tag);
  /// Changes a registered fd's interest set (0 = keep registered, report
  /// nothing).
  Status Mod(int fd, uint32_t events, void* tag);
  /// Unregisters a fd.
  Status Del(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and fills `out` with ready
  /// events; returns how many. EINTR retries internally; a Wake() call
  /// shows up as one event with a null tag (its eventfd is drained before
  /// returning, so wakes never accumulate).
  Result<size_t> Wait(std::span<Event> out, int timeout_ms);

  /// Interrupts a concurrent (or the next) Wait. Async-signal-safe: one
  /// eventfd write, no locks — callable straight from a SIGTERM handler.
  void Wake();

 private:
  Reactor(Fd epoll_fd, Fd wake_fd)
      : epoll_fd_(std::move(epoll_fd)), wake_fd_(std::move(wake_fd)) {}

  Fd epoll_fd_;
  Fd wake_fd_;
};

}  // namespace numdist::net
