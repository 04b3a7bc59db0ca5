// Multiplexed frame sender: the client half of the event-loop transport.
// Opens N non-blocking connections to one collector endpoint and
// round-robins frames across them, buffering per connection and flushing
// via EPOLLOUT readiness — one thread drives thousands of connections,
// which is how report_client --connections and net_test's fan-in case put a
// 10k-connection load on a collector without 10k threads.
//
// Frame order across connections is intentionally unspecified: the
// collector's determinism contract (net/server.h) makes the aggregate
// byte-identical for every interleaving, so the client is free to pick
// whatever the kernel accepts fastest.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "net/reactor.h"
#include "net/socket.h"

namespace numdist::net {

/// \brief N-connection round-robin frame writer over one Reactor.
class MultiSender {
 public:
  /// Dials `connections` sockets to `endpoint`. `max_buffered` caps the
  /// total unsent bytes across all connections; Send blocks (pumping the
  /// reactor) once the cap is hit, so memory stays bounded when the
  /// collector applies backpressure.
  static Result<MultiSender> Make(const Endpoint& endpoint,
                                  size_t connections,
                                  size_t max_buffered = 16u << 20);

  MultiSender(MultiSender&&) = default;
  MultiSender& operator=(MultiSender&&) = default;
  ~MultiSender();

  /// Queues `frame` (payload only — the u32 length prefix is added here)
  /// on the next connection in round-robin order and flushes
  /// opportunistically. Blocks only when `max_buffered` is exceeded.
  Status Send(std::string_view frame);

  /// Flushes every connection to empty, then closes them all (the
  /// collector sees N clean EOFs). The sender is unusable afterwards.
  Status Finish();

  size_t connections() const { return conns_.size(); }

 private:
  struct Conn {
    Fd fd;
    std::string buf;
    size_t off = 0;          ///< bytes of buf already written
    bool want_write = false; ///< registered for EPOLLOUT
  };

  MultiSender(Reactor reactor, size_t max_buffered)
      : reactor_(std::move(reactor)), max_buffered_(max_buffered) {}

  /// Writes as much of conn's buffer as the kernel accepts; registers or
  /// clears EPOLLOUT interest to match what remains.
  Status TryFlush(Conn* conn);
  /// One reactor round: flush every writable connection.
  Status PumpOnce();

  Reactor reactor_;
  size_t max_buffered_;
  std::vector<std::unique_ptr<Conn>> conns_;
  size_t next_ = 0;
  size_t total_buffered_ = 0;
};

}  // namespace numdist::net
