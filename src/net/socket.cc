#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>

#include "common/flags.h"

namespace numdist::net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal("net: " + what + " failed (" +
                          std::strerror(errno) + ")");
}

// Sends each write at once. The library already batches its writes (one
// send per frame, one write of acks per round), so Nagle's algorithm
// would only hold a small frame or ack back until the peer acknowledges
// the previous segment.
Status SetNoDelay(int fd) {
  const int one = 1;
  if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

}  // namespace

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Result<Endpoint> ParseEndpoint(std::string_view spec) {
  Endpoint endpoint;
  if (spec.rfind("tcp:", 0) == 0) {
    endpoint.kind = Endpoint::Kind::kTcp;
    std::string_view rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    std::string_view port_part = rest;
    if (colon != std::string_view::npos) {
      endpoint.host = std::string(rest.substr(0, colon));
      port_part = rest.substr(colon + 1);
    }
    const Result<uint64_t> port = ParseUint(port_part, 65535);
    if (!port.ok()) {
      return Status::InvalidArgument("net: bad port in '" +
                                     std::string(spec) + "'");
    }
    endpoint.port = static_cast<uint16_t>(port.value());
    return endpoint;
  }
  if (spec.rfind("unix:", 0) == 0) {
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.path = std::string(spec.substr(5));
    if (endpoint.path.empty()) {
      return Status::InvalidArgument("net: '" + std::string(spec) +
                                     "' is missing a socket path");
    }
    if (endpoint.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return Status::InvalidArgument("net: unix socket path longer than " +
                                     std::to_string(
                                         sizeof(sockaddr_un{}.sun_path) - 1) +
                                     " bytes");
    }
    return endpoint;
  }
  return Status::InvalidArgument(
      "net: expected tcp:PORT, tcp:HOST:PORT, or unix:PATH, got '" +
      std::string(spec) + "'");
}

std::string EndpointName(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    return "unix:" + endpoint.path;
  }
  return "tcp:" + (endpoint.host.empty() ? "0.0.0.0" : endpoint.host) + ":" +
         std::to_string(endpoint.port);
}

namespace {

// Fills a sockaddr for `endpoint`; `for_listen` picks INADDR_ANY vs
// loopback when the host is unspecified.
Status FillSockaddr(const Endpoint& endpoint, bool for_listen,
                    sockaddr_storage* storage, socklen_t* len) {
  std::memset(storage, 0, sizeof(*storage));
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    auto* sun = reinterpret_cast<sockaddr_un*>(storage);
    sun->sun_family = AF_UNIX;
    std::strncpy(sun->sun_path, endpoint.path.c_str(),
                 sizeof(sun->sun_path) - 1);
    *len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  endpoint.path.size() + 1);
    return Status::OK();
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(storage);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(endpoint.port);
  if (endpoint.host.empty()) {
    sin->sin_addr.s_addr = htonl(for_listen ? INADDR_ANY : INADDR_LOOPBACK);
  } else if (inet_pton(AF_INET, endpoint.host.c_str(), &sin->sin_addr) != 1) {
    return Status::InvalidArgument("net: '" + endpoint.host +
                                   "' is not a numeric IPv4 address");
  }
  *len = sizeof(sockaddr_in);
  return Status::OK();
}

}  // namespace

Result<Fd> ListenOn(const Endpoint& endpoint, int backlog) {
  const int family =
      endpoint.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  Fd fd(socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket");
  if (endpoint.kind == Endpoint::Kind::kTcp) {
    const int one = 1;
    if (setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
        0) {
      return Errno("setsockopt(SO_REUSEADDR)");
    }
    // Accepted sockets inherit it from the listener.
    NUMDIST_RETURN_NOT_OK(SetNoDelay(fd.get()));
  } else {
    ::unlink(endpoint.path.c_str());  // stale socket file from a dead run
  }
  sockaddr_storage addr;
  socklen_t addr_len = 0;
  NUMDIST_RETURN_NOT_OK(FillSockaddr(endpoint, /*for_listen=*/true, &addr,
                                     &addr_len));
  if (bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), addr_len) < 0) {
    return Errno("bind to " + EndpointName(endpoint));
  }
  if (listen(fd.get(), backlog) < 0) {
    return Errno("listen on " + EndpointName(endpoint));
  }
  return fd;
}

Result<Endpoint> LocalEndpoint(int fd, Endpoint::Kind kind) {
  sockaddr_storage addr;
  socklen_t addr_len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    return Errno("getsockname");
  }
  Endpoint endpoint;
  endpoint.kind = kind;
  if (kind == Endpoint::Kind::kUnix) {
    endpoint.path = reinterpret_cast<sockaddr_un*>(&addr)->sun_path;
    return endpoint;
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(&addr);
  char host[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &sin->sin_addr, host, sizeof(host));
  endpoint.host = host;
  endpoint.port = ntohs(sin->sin_port);
  // A wildcard bind has no single dialable address; report loopback, the
  // only interface the in-repo tools and tests ever dial.
  if (endpoint.host == "0.0.0.0") endpoint.host = "127.0.0.1";
  return endpoint;
}

Result<Fd> Dial(const Endpoint& endpoint) {
  const int family =
      endpoint.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  Fd fd(socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket");
  if (endpoint.kind == Endpoint::Kind::kTcp) {
    NUMDIST_RETURN_NOT_OK(SetNoDelay(fd.get()));
  }
  sockaddr_storage addr;
  socklen_t addr_len = 0;
  NUMDIST_RETURN_NOT_OK(FillSockaddr(endpoint, /*for_listen=*/false, &addr,
                                     &addr_len));
  int rc;
  do {
    rc = connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), addr_len);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return Errno("connect to " + EndpointName(endpoint));
  return fd;
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

Status WriteAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t wrote = write(fd, bytes.data() + off, bytes.size() - off);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    off += static_cast<size_t>(wrote);
  }
  return Status::OK();
}

}  // namespace numdist::net
