// Socket primitives for the event-loop collector: an owning fd handle,
// endpoint parsing ("tcp:PORT", "tcp:HOST:PORT", "unix:PATH"), and the
// listen/dial calls everything in src/net/ builds on. Numeric addresses
// only — this layer deliberately has no resolver; a deployment that needs
// DNS resolves before it gets here.
//
// Listeners come back non-blocking (they feed the epoll Reactor); dialed
// client sockets come back blocking (callers that multiplex flip them with
// SetNonBlocking). Everything is CLOEXEC so collector children never
// inherit live sockets.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace numdist::net {

/// \brief Owning file-descriptor handle (move-only, closes on destroy).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Releases ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  /// Closes the held fd (if any) and takes ownership of `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// \brief One listen/connect address: TCP (numeric host + port) or a
/// Unix-domain socket path.
struct Endpoint {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  /// TCP only. Empty means "all interfaces" for listening and loopback
  /// for dialing.
  std::string host;
  uint16_t port = 0;  ///< TCP only; 0 asks the kernel for an ephemeral port.
  std::string path;   ///< Unix only.
};

/// Parses "tcp:PORT", "tcp:HOST:PORT", or "unix:PATH". Typed
/// InvalidArgument on anything else (unknown scheme, non-numeric port,
/// empty path).
Result<Endpoint> ParseEndpoint(std::string_view spec);

/// Canonical rendering, e.g. "tcp:127.0.0.1:8471" or "unix:/tmp/c.sock".
/// ParseEndpoint(EndpointName(e)) round-trips.
std::string EndpointName(const Endpoint& endpoint);

/// Creates a non-blocking listening socket on `endpoint`. TCP listeners
/// set SO_REUSEADDR and TCP_NODELAY (which accepted sockets inherit);
/// Unix listeners unlink a stale socket file first (two live listeners on
/// one path is a deployment error the bind still catches). Use
/// LocalEndpoint to learn the bound port when it was 0.
Result<Fd> ListenOn(const Endpoint& endpoint, int backlog = 512);

/// The address a bound socket actually listens on (resolves port 0).
Result<Endpoint> LocalEndpoint(int fd, Endpoint::Kind kind);

/// Blocking connect to `endpoint`; the returned fd is blocking, and a TCP
/// one has TCP_NODELAY set.
Result<Fd> Dial(const Endpoint& endpoint);

/// Switches an fd to non-blocking mode.
Status SetNonBlocking(int fd);

/// Writes all of `bytes` to a blocking fd (retrying short writes/EINTR).
Status WriteAll(int fd, std::string_view bytes);

}  // namespace numdist::net
