#include "net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace numdist::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string("net: ") + what + " failed (" +
                          std::strerror(errno) + ")");
}

}  // namespace

Result<Reactor> Reactor::Make() {
  Fd epoll_fd(epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd.valid()) return Errno("epoll_create1");
  Fd wake_fd(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd.valid()) return Errno("eventfd");
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // the reserved wakeup tag
  if (epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, wake_fd.get(), &ev) < 0) {
    return Errno("epoll_ctl(wakeup)");
  }
  return Reactor(std::move(epoll_fd), std::move(wake_fd));
}

Status Reactor::Add(int fd, uint32_t events, void* tag) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.ptr = tag;
  if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    if (errno == EPERM) {
      return Status::FailedPrecondition(
          "net: epoll does not support this fd (a regular file or "
          "/dev/null)");
    }
    return Errno("epoll_ctl(add)");
  }
  return Status::OK();
}

Status Reactor::Mod(int fd, uint32_t events, void* tag) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.ptr = tag;
  if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Errno("epoll_ctl(mod)");
  }
  return Status::OK();
}

Status Reactor::Del(int fd) {
  if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr) < 0) {
    return Errno("epoll_ctl(del)");
  }
  return Status::OK();
}

Result<size_t> Reactor::Wait(std::span<Event> out, int timeout_ms) {
  if (out.empty()) {
    return Status::InvalidArgument("net: Wait needs a non-empty event span");
  }
  // epoll_event and Reactor::Event differ in layout; a small fixed stack
  // batch keeps the translation allocation-free.
  epoll_event raw[256];
  const int capacity =
      static_cast<int>(std::min(out.size(), sizeof(raw) / sizeof(raw[0])));
  int n;
  do {
    n = epoll_wait(epoll_fd_.get(), raw, capacity, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return Errno("epoll_wait");
  size_t filled = 0;
  for (int i = 0; i < n; ++i) {
    if (raw[i].data.ptr == nullptr) {
      uint64_t drained;
      // Collapse any number of Wake() calls into one notification.
      while (read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
      }
    }
    out[filled].tag = raw[i].data.ptr;
    out[filled].events = raw[i].events;
    ++filled;
  }
  return filled;
}

void Reactor::Wake() {
  const uint64_t one = 1;
  // Async-signal-safe by construction: a single write(2). A full eventfd
  // counter (EAGAIN) already guarantees a pending wake; dropping the
  // write is correct.
  [[maybe_unused]] const ssize_t rc =
      write(wake_fd_.get(), &one, sizeof(one));
}

}  // namespace numdist::net
