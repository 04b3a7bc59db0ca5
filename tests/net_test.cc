// Event-loop transport guarantees (net/*, serve/framing.h FrameDecoder):
//  - FrameDecoder tracks a partially received frame (the read deadline's
//    trigger), and WriteFrame emits prefix+body as one stream write,
//  - CollectorServer multiplexes many connections into an aggregate that
//    is byte-identical to a sequential single-session run for any
//    connection count (up to 10 000, clamped to the fd limit), frame
//    distribution, or drain path, and survives hostile clients losing
//    only their own connection,
//  - a RetrySender delivers every frame exactly once, cleanly and through
//    a seeded script of connection resets that all fire,
//  - an already-open stream (a pipe, a regular file epoll refuses,
//    /dev/null) served as a connection is byte-identical too, acks its
//    sequenced frames on its own sink, and fails typed when cut mid-frame,
//  - rounds of 64+ frames (fanned out to slot sessions) and smaller rounds
//    (absorbed inline) fold to one sketch, and frames failing in one round
//    cost their connection one error,
//  - the mid-frame read deadline fails a stalled connection (and so ends
//    a drain waiting on it) while an idle one never times out,
//  - the WAL checkpoint cadence keeps the log replaying to the aggregate,
//    tenant accumulators included.
#include "net/server.h"

#include <gtest/gtest.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/mutator.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/retry.h"
#include "net/socket.h"
#include "protocol/sharded.h"
#include "serve/collector.h"
#include "serve/framing.h"
#include "wire/wire.h"

namespace numdist {
namespace {

// ---------------------------------------------------------------------------
// Endpoint parsing

TEST(EndpointTest, ParsesAndRoundTrips) {
  auto tcp = net::ParseEndpoint("tcp:7070").ValueOrDie();
  EXPECT_EQ(tcp.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "");
  EXPECT_EQ(tcp.port, 7070);

  auto tcp_host = net::ParseEndpoint("tcp:127.0.0.1:80").ValueOrDie();
  EXPECT_EQ(tcp_host.host, "127.0.0.1");
  EXPECT_EQ(tcp_host.port, 80);
  EXPECT_EQ(net::EndpointName(tcp_host), "tcp:127.0.0.1:80");

  auto unix_ep = net::ParseEndpoint("unix:/tmp/x.sock").ValueOrDie();
  EXPECT_EQ(unix_ep.kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
  EXPECT_EQ(net::EndpointName(unix_ep), "unix:/tmp/x.sock");
}

TEST(EndpointTest, RejectsMalformedSpecs) {
  EXPECT_EQ(net::ParseEndpoint("http://x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::ParseEndpoint("tcp:").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::ParseEndpoint("tcp:host:99999").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::ParseEndpoint("tcp:1.2.3.4:no").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::ParseEndpoint("unix:").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      net::ParseEndpoint("unix:/" + std::string(200, 'a')).status().code(),
      StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Socket options

int NoDelay(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  EXPECT_EQ(getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

// Frames and acks already leave in one send each, so Nagle's algorithm
// could only delay them: a dialed TCP socket and one accepted on a TCP
// listener both have TCP_NODELAY set. Unix sockets have no Nagle (and no
// such option) and still listen and dial.
TEST(SocketTest, TcpSocketsSendWithoutNagle) {
  const net::Fd listener =
      net::ListenOn(net::ParseEndpoint("tcp:127.0.0.1:0").ValueOrDie())
          .ValueOrDie();
  const net::Endpoint bound =
      net::LocalEndpoint(listener.get(), net::Endpoint::Kind::kTcp)
          .ValueOrDie();
  const net::Fd dialed = net::Dial(bound).ValueOrDie();
  EXPECT_EQ(NoDelay(dialed.get()), 1);
  pollfd ready{listener.get(), POLLIN, 0};
  ASSERT_EQ(poll(&ready, 1, 5000), 1);
  const net::Fd accepted(accept4(listener.get(), nullptr, nullptr,
                                 SOCK_CLOEXEC));
  ASSERT_TRUE(accepted.valid()) << std::strerror(errno);
  EXPECT_EQ(NoDelay(accepted.get()), 1);

  const net::Endpoint unix_endpoint =
      net::ParseEndpoint("unix:" + testing::TempDir() + "nodelay.sock")
          .ValueOrDie();
  const auto unix_listener = net::ListenOn(unix_endpoint);
  ASSERT_TRUE(unix_listener.ok()) << unix_listener.status().ToString();
  const auto unix_dialed = net::Dial(unix_endpoint);
  EXPECT_TRUE(unix_dialed.ok()) << unix_dialed.status().ToString();
  ::unlink(unix_endpoint.path.c_str());
}

// ---------------------------------------------------------------------------
// FrameDecoder state (the chunking/truncation taxonomy is in serve_test.cc)

std::string EncodeFrames(const std::vector<std::string>& frames) {
  std::stringstream out;
  for (const std::string& frame : frames) {
    EXPECT_TRUE(serve::WriteFrame(out, frame).ok());
  }
  return out.str();
}

TEST(FrameDecoderTest, MidFrameReflectsPartialState) {
  serve::FrameDecoder decoder;
  EXPECT_FALSE(decoder.mid_frame());
  ASSERT_TRUE(decoder.Feed(std::string("\x05", 1)).ok());
  EXPECT_TRUE(decoder.mid_frame());  // inside the prefix
  ASSERT_TRUE(decoder.Feed(std::string("\x00\x00\x00", 3)).ok());
  EXPECT_TRUE(decoder.mid_frame());  // prefix consumed, body pending
  ASSERT_TRUE(decoder.Feed("hello").ok());
  std::string frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame, "hello");
  EXPECT_FALSE(decoder.mid_frame());
  EXPECT_TRUE(decoder.AtEnd().ok());
}

// ---------------------------------------------------------------------------
// WriteFrame write coalescing

class CountingBuf : public std::stringbuf {
 public:
  int writes = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    ++writes;
    return std::stringbuf::xsputn(s, n);
  }
};

TEST(FramingTest, WriteFrameIsOneStreamWrite) {
  CountingBuf buf;
  std::ostream out(&buf);
  ASSERT_TRUE(serve::WriteFrame(out, "payload-bytes").ok());
  EXPECT_EQ(buf.writes, 1);
  // And the coalesced bytes still decode.
  serve::FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(buf.str()).ok());
  std::string frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame, "payload-bytes");
}

// ---------------------------------------------------------------------------
// Shared fixture: deterministic report frames + the sequential reference

struct NetFixture {
  wire::MethodSpec spec;
  ProtocolPtr protocol;
  std::vector<std::string> frames;
  std::string reference_sketch;
  /// The reference's EncodeSketches: one sketch frame per tenant.
  std::vector<std::string> reference_sketches;
  uint64_t total_reports = 0;
};

// Frame i carries tenant `odd_tenant` when i is odd and the default tenant
// otherwise (odd_tenant 0: every frame untagged).
NetFixture MakeNetFixture(size_t num_values, size_t shard_size,
                          uint32_t odd_tenant = wire::kDefaultTenant) {
  NetFixture fx;
  fx.spec = wire::ParseMethodSpec("sw-ems", 1.0, 32).ValueOrDie();
  fx.protocol = wire::MakeProtocolForSpec(fx.spec).ValueOrDie();
  const std::vector<double> values = GoldenRatioValues(num_values);
  const size_t num_shards = (values.size() + shard_size - 1) / shard_size;
  for (size_t i = 0; i < num_shards; ++i) {
    const size_t begin = i * shard_size;
    const size_t len = std::min(shard_size, values.size() - begin);
    Rng rng(ShardSeed(7, i));
    auto chunk = fx.protocol
                     ->EncodePerturbBatch(
                         std::span<const double>(values).subspan(begin, len),
                         rng)
                     .ValueOrDie();
    std::string frame;
    const uint32_t tenant = i % 2 == 1 ? odd_tenant : wire::kDefaultTenant;
    EXPECT_TRUE(
        wire::EncodeReportFrame(fx.spec, tenant, *fx.protocol, *chunk, &frame)
            .ok());
    fx.frames.push_back(std::move(frame));
    fx.total_reports += chunk->num_reports();
  }
  auto reference = serve::CollectorSession::Make(fx.spec).ValueOrDie();
  for (const std::string& frame : fx.frames) {
    EXPECT_TRUE(reference.HandleFrame(frame).ok());
  }
  fx.reference_sketch = reference.EncodeSketch().ValueOrDie();
  fx.reference_sketches = reference.EncodeSketches().ValueOrDie();
  return fx;
}

// ---------------------------------------------------------------------------
// CollectorServer

// Runs a server over `frames` split across `connections` MultiSender
// connections, drains it, and returns the final sketch.
std::string ServeOverConnections(const NetFixture& fx, size_t connections,
                                 net::ServerOptions options,
                                 net::ServerStats* stats_out = nullptr) {
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  {
    auto sender = net::MultiSender::Make(bound, connections).ValueOrDie();
    for (const std::string& frame : fx.frames) {
      EXPECT_TRUE(sender.Send(frame).ok());
    }
    EXPECT_TRUE(sender.Finish().ok());
  }
  server->RequestDrain();
  serving.join();
  EXPECT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->num_reports(), fx.total_reports);
  if (stats_out != nullptr) *stats_out = server->stats();
  return server->EncodeSketch().ValueOrDie();
}

void ExpectByteIdenticalOverConnections(const NetFixture& fx,
                                        size_t connections) {
  net::ServerStats stats;
  const std::string sketch = ServeOverConnections(fx, connections, {}, &stats);
  EXPECT_EQ(sketch, fx.reference_sketch) << connections << " connections";
  EXPECT_EQ(stats.connections_accepted, connections);
  EXPECT_EQ(stats.frames_absorbed, fx.frames.size());
  EXPECT_EQ(stats.connection_errors, 0u);
}

// Both ends of every loopback connection live in this process: one fd per
// side, plus slack for the listener, epoll, eventfds and stdio. Raises the
// soft RLIMIT_NOFILE to the hard limit, then returns how many connections
// fit under it.
size_t MaxLoopbackConnections() {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
  }
  EXPECT_EQ(getrlimit(RLIMIT_NOFILE, &rl), 0);
  return (static_cast<size_t>(rl.rlim_cur) - 64) / 2;
}

TEST(CollectorServerTest, AnyConnectionCountIsByteIdentical) {
  const NetFixture fx = MakeNetFixture(6000, 256);
  for (size_t connections : {size_t{1}, size_t{2}, size_t{3}, size_t{16}}) {
    ExpectByteIdenticalOverConnections(fx, connections);
  }
  // Fan-in: 1000 connections, and 10 000 clamped to the fd limit. The
  // frames are small and two per connection, so every connection carries
  // traffic (MultiSender round-robins).
  const size_t max_connections = MaxLoopbackConnections();
  constexpr size_t kFanInShard = 16;
  for (const size_t requested : {size_t{1000}, size_t{10000}}) {
    const size_t connections = std::min(requested, max_connections);
    if (connections < requested) {
      printf("# NOTE: clamping %zu connections to %zu (RLIMIT_NOFILE)\n",
             requested, connections);
    }
    SCOPED_TRACE(std::to_string(connections) + " connections");
    const NetFixture fan_in =
        MakeNetFixture(2 * connections * kFanInShard, kFanInShard);
    ASSERT_EQ(fan_in.frames.size(), 2 * connections);
    ExpectByteIdenticalOverConnections(fan_in, connections);
  }
}

TEST(CollectorServerTest, ExpectFramesStopsTheServerByItself) {
  const NetFixture fx = MakeNetFixture(3000, 256);
  net::ServerOptions options;
  options.expect_frames = fx.frames.size();
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  auto sender = net::MultiSender::Make(bound, 4).ValueOrDie();
  for (const std::string& frame : fx.frames) {
    ASSERT_TRUE(sender.Send(frame).ok());
  }
  ASSERT_TRUE(sender.Finish().ok());
  // No RequestDrain: the frame count is the stop condition.
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
}

TEST(CollectorServerTest, UnixListenerIsByteIdentical) {
  const NetFixture fx = MakeNetFixture(2000, 256);
  const std::string path = testing::TempDir() + "net_test_collector.sock";
  auto server = net::CollectorServer::Make(fx.spec).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("unix:" + path).ValueOrDie())
          .ValueOrDie();
  EXPECT_EQ(bound.path, path);
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  {
    auto sender = net::MultiSender::Make(bound, 3).ValueOrDie();
    for (const std::string& frame : fx.frames) {
      ASSERT_TRUE(sender.Send(frame).ok());
    }
    ASSERT_TRUE(sender.Finish().ok());
  }
  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
}

TEST(CollectorServerTest, WalFailureNeverAcksNonDurableFrames) {
  // An ack is a durability promise: after a WAL append failure the batch's
  // acks must be suppressed and Run must return the error, so clients
  // retransmit into the recovered log instead of retiring frames the
  // replay cannot reproduce. Deleting the segment directory out from
  // under a tiny-segment WAL makes the very first append fail at
  // rotation, after the frames were absorbed in memory.
  NetFixture fx = MakeNetFixture(600, 256);
  for (size_t i = 0; i < fx.frames.size(); ++i) {
    ASSERT_TRUE(wire::StampSequenceContext(&fx.frames[i],
                                           {.epoch = 11, .seq = i + 1})
                    .ok());
  }
  const std::string dir = testing::TempDir() + "net_wal_fail_acks";
  std::filesystem::remove_all(dir);
  net::ServerOptions options;
  options.wal_path = dir;
  options.wal.segment_bytes = 1;  // every append seals and rolls
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  std::filesystem::remove_all(dir);
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  net::Fd client = net::Dial(bound).ValueOrDie();
  const std::string bytes = EncodeFrames(fx.frames);
  ASSERT_TRUE(net::WriteAll(client.get(), bytes).ok());
  serving.join();
  EXPECT_FALSE(run_status.ok()) << "the WAL failure must be fatal to Run";
  EXPECT_EQ(server->stats().acks_queued, 0u)
      << "no ack may cover a frame the log does not hold";
  server.reset();  // closes the connection so the read below terminates
  char buf[256];
  size_t acked_bytes = 0;
  for (;;) {
    const ssize_t got = read(client.get(), buf, sizeof(buf));
    if (got > 0) {
      acked_bytes += static_cast<size_t>(got);
      continue;
    }
    break;  // EOF or reset — nothing more is coming either way
  }
  EXPECT_EQ(acked_bytes, 0u)
      << "a non-durable frame's ack reached the client";
}

TEST(CollectorServerTest, ResetStandbyFailsRunWithoutSigpipe) {
  // A standby that dies with unread data resets the replication link.
  // The primary must return the typed error from Run and ack nothing; a
  // write into the reset socket must not raise SIGPIPE, which would kill
  // this binary (nothing here ignores the signal).
  NetFixture fx = MakeNetFixture(600, 256);
  for (size_t i = 0; i < fx.frames.size(); ++i) {
    ASSERT_TRUE(wire::StampSequenceContext(&fx.frames[i],
                                           {.epoch = 12, .seq = i + 1})
                    .ok());
  }
  net::Fd standby_listener =
      net::ListenOn(net::ParseEndpoint("tcp:127.0.0.1:0").ValueOrDie())
          .ValueOrDie();
  const net::Endpoint standby =
      net::LocalEndpoint(standby_listener.get(), net::Endpoint::Kind::kTcp)
          .ValueOrDie();
  net::ServerOptions options;
  options.replicate_to = net::EndpointName(standby);
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  {
    // Make's dial is in the accept backlog: accept it, then close with a
    // zero linger, which sends a reset instead of a FIN.
    net::Fd link(accept(standby_listener.get(), nullptr, nullptr));
    ASSERT_TRUE(link.valid());
    const linger reset{.l_onoff = 1, .l_linger = 0};
    ASSERT_EQ(setsockopt(link.get(), SOL_SOCKET, SO_LINGER, &reset,
                         sizeof(reset)),
              0);
  }
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  net::Fd client = net::Dial(bound).ValueOrDie();
  ASSERT_TRUE(net::WriteAll(client.get(), EncodeFrames(fx.frames)).ok());
  serving.join();
  EXPECT_FALSE(run_status.ok()) << "a reset standby must be fatal to Run";
  EXPECT_EQ(server->stats().acks_queued, 0u)
      << "no ack may cover a frame the standby does not hold";
  EXPECT_EQ(server->stats().frames_replicated, 0u);
}

TEST(CollectorServerTest, HostileClientLosesOnlyItsOwnConnection) {
  const NetFixture fx = MakeNetFixture(2000, 256);
  auto server = net::CollectorServer::Make(fx.spec).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  {
    // A raw connection claiming a 4 GiB frame...
    net::Fd hostile = net::Dial(bound).ValueOrDie();
    ASSERT_TRUE(net::WriteAll(hostile.get(), "\xFF\xFF\xFF\xFF").ok());
    // ...while a well-behaved sender delivers the real workload.
    auto sender = net::MultiSender::Make(bound, 2).ValueOrDie();
    for (const std::string& frame : fx.frames) {
      ASSERT_TRUE(sender.Send(frame).ok());
    }
    ASSERT_TRUE(sender.Finish().ok());
    // Give the server a moment to have rejected the hostile prefix, then
    // drain (hostile fd closes with this scope).
  }
  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->stats().connection_errors, 1u);
  EXPECT_EQ(server->stats().first_error.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
}

TEST(CollectorServerTest, FuzzedHostileConnectionsCannotTouchTheSketch) {
  // Stronger hostile-client isolation: instead of one hand-built bad
  // prefix, each hostile connection streams a ByteMutator-corrupted frame
  // (the same structured mutants the fuzz harness drives through the
  // decoders) while clean senders deliver the real workload concurrently.
  // Every hostile connection must die with a typed error, and the final
  // sketch must be byte-identical to the clean reference — hostile bytes
  // cannot move counts even when they arrive over the real transport.
  const NetFixture fx = MakeNetFixture(2000, 256);

  // Pre-select mutants a CollectorSession provably rejects (a payload bit
  // flip can be a valid frame; those are not "hostile" for this test).
  std::vector<std::string> hostile_frames;
  ByteMutator mutator(0x94D049BB133111EBULL);
  auto probe = serve::CollectorSession::Make(fx.spec).ValueOrDie();
  while (hostile_frames.size() < 6) {
    std::string mutant = mutator.Mutate(fx.frames[0]);
    if (!probe.HandleFrame(mutant).ok()) {
      hostile_frames.push_back(std::move(mutant));
    }
  }

  auto server = net::CollectorServer::Make(fx.spec).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  {
    // One raw connection per hostile mutant, properly length-framed so the
    // corruption lands in the wire decoder, not the transport prefix.
    std::vector<net::Fd> hostile;
    for (const std::string& frame : hostile_frames) {
      std::ostringstream framed;
      ASSERT_TRUE(serve::WriteFrame(framed, frame).ok());
      net::Fd fd = net::Dial(bound).ValueOrDie();
      ASSERT_TRUE(net::WriteAll(fd.get(), framed.str()).ok());
      hostile.push_back(std::move(fd));
    }
    auto sender = net::MultiSender::Make(bound, 3).ValueOrDie();
    for (const std::string& frame : fx.frames) {
      ASSERT_TRUE(sender.Send(frame).ok());
    }
    ASSERT_TRUE(sender.Finish().ok());
    // Hostile fds close with this scope.
  }
  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->stats().connection_errors, hostile_frames.size());
  EXPECT_FALSE(server->stats().first_error.ok());
  EXPECT_EQ(server->num_reports(), fx.total_reports);
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
}

TEST(CollectorServerTest, SketchFramesMergeOverTheListener) {
  // Coordinator topology: two "leaf collector" sketches arrive as frames
  // over connections; the server-side aggregate must equal merging them
  // into one session directly.
  const NetFixture fx = MakeNetFixture(4000, 256);
  auto leaf_a = serve::CollectorSession::Make(fx.spec).ValueOrDie();
  auto leaf_b = serve::CollectorSession::Make(fx.spec).ValueOrDie();
  for (size_t i = 0; i < fx.frames.size(); ++i) {
    ASSERT_TRUE(((i % 2 == 0) ? leaf_a : leaf_b)
                    .HandleFrame(fx.frames[i])
                    .ok());
  }
  const std::string sketch_a = leaf_a.EncodeSketch().ValueOrDie();
  const std::string sketch_b = leaf_b.EncodeSketch().ValueOrDie();

  net::ServerOptions options;
  options.expect_frames = 2;
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  for (const std::string& sketch : {sketch_a, sketch_b}) {
    auto sender = net::MultiSender::Make(bound, 1).ValueOrDie();
    ASSERT_TRUE(sender.Send(sketch).ok());
    ASSERT_TRUE(sender.Finish().ok());
  }
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.message();
  EXPECT_EQ(server->num_reports(), fx.total_reports);
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
}

// ---------------------------------------------------------------------------
// RetrySender into a CollectorServer: sequence stamps, acks, retransmits

// Sends fx's frames through one RetrySender to a fresh server, drains it,
// checks exactly-once delivery against the single-session reference, and
// returns the sender's stats.
net::RetryStats ExpectRetrySenderExactlyOnce(const NetFixture& fx,
                                             const net::FaultPlan* faults) {
  auto server = net::CollectorServer::Make(fx.spec).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  net::RetryOptions options;
  options.base_backoff_ms = 1;
  options.max_backoff_ms = 20;
  options.faults = faults;
  auto sender = net::RetrySender::Make({bound}, options).ValueOrDie();
  for (const std::string& frame : fx.frames) {
    const Status sent = sender.Send(frame);
    EXPECT_TRUE(sent.ok()) << sent.ToString();
  }
  const Status finished = sender.Finish();
  EXPECT_TRUE(finished.ok()) << finished.ToString();
  EXPECT_EQ(sender.unacked(), 0u);
  server->RequestDrain();
  serving.join();
  EXPECT_TRUE(run_status.ok()) << run_status.ToString();
  EXPECT_EQ(server->num_reports(), fx.total_reports);
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
  return sender.stats();
}

TEST(RetrySenderTest, ExactlyOnceCleanAndThroughScriptedResets) {
  const NetFixture fx = MakeNetFixture(20000, 100);
  {
    SCOPED_TRACE("clean");
    const net::RetryStats stats = ExpectRetrySenderExactlyOnce(fx, nullptr);
    EXPECT_EQ(stats.frames, fx.frames.size());
    EXPECT_EQ(stats.injected_faults, 0u);
  }
  {
    // Attempts 0-2 reset at seeded offsets below 4 KiB; attempt 3 is
    // clean. Each reconnect retransmits the whole unacked window, so a
    // frame the server absorbed but had not acked arrives again and must
    // dedup.
    SCOPED_TRACE("3 scripted resets, seed 17");
    const net::FaultPlan plan = net::FaultPlan::Resets(17, 3, 4096);
    const net::RetryStats stats = ExpectRetrySenderExactlyOnce(fx, &plan);
    EXPECT_EQ(stats.frames, fx.frames.size());
    EXPECT_EQ(stats.injected_faults, 3u) << "the fault plan did not fire";
    EXPECT_GE(stats.reconnects, 3u);
  }
}

// ---------------------------------------------------------------------------
// Stream connections (AddStream): how collector_cli serves stdin or --in

// Serves one already-open input stream to EOF (drain_on_disconnect, as
// collector_cli's stdio mode runs it) with `ack_sink` as its ack fd.
std::unique_ptr<net::CollectorServer> ServeToEof(const wire::MethodSpec& spec,
                                                 net::Fd in, net::Fd ack_sink) {
  net::ServerOptions options;
  options.drain_on_disconnect = true;
  auto server = net::CollectorServer::Make(spec, options).ValueOrDie();
  EXPECT_TRUE(server->AddStream(std::move(in), std::move(ack_sink)).ok());
  const Status run = server->Run();
  EXPECT_TRUE(run.ok()) << run.ToString();
  return server;
}

net::Fd OpenFd(const std::string& path, int flags) {
  net::Fd fd(open(path.c_str(), flags | O_CLOEXEC, 0644));
  EXPECT_TRUE(fd.valid()) << path;
  return fd;
}

// A pipe whose write end a thread fills with `bytes` and then closes.
struct FedPipe {
  net::Fd read_end;
  std::thread writer;
};

FedPipe FeedPipe(std::string bytes) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  FedPipe fed{net::Fd(fds[0]), {}};
  fed.writer = std::thread([bytes = std::move(bytes), wfd = fds[1]] {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t wrote = write(wfd, bytes.data() + off, bytes.size() - off);
      if (wrote <= 0) break;
      off += static_cast<size_t>(wrote);
    }
    close(wfd);
  });
  return fed;
}

// A regular file holding `bytes`: a stream epoll refuses, read one full
// 64 KiB chunk per round.
std::string WriteTempFile(const std::string& name, const std::string& bytes) {
  const std::string path = testing::TempDir() + name;
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << bytes;
  return path;
}

TEST(CollectorServerTest, StreamConnectionIsByteIdenticalFromAPipeOrAFile) {
  const NetFixture fx = MakeNetFixture(4000, 512);
  const std::string input = EncodeFrames(fx.frames);

  // A pipe: epoll polls it, and the writer races the reads.
  FedPipe fed = FeedPipe(input);
  auto from_pipe = ServeToEof(fx.spec, std::move(fed.read_end),
                               OpenFd("/dev/null", O_WRONLY));
  fed.writer.join();
  EXPECT_EQ(from_pipe->EncodeSketch().ValueOrDie(), fx.reference_sketch);
  EXPECT_EQ(from_pipe->num_reports(), fx.total_reports);
  EXPECT_EQ(from_pipe->stats().connection_errors, 0u);

  // A regular file: epoll refuses it, so it is read without readiness.
  const std::string path = WriteTempFile("net_test_stream.bin", input);
  auto from_file = ServeToEof(fx.spec, OpenFd(path, O_RDONLY),
                               OpenFd("/dev/null", O_WRONLY));
  EXPECT_EQ(from_file->EncodeSketch().ValueOrDie(), fx.reference_sketch);
  EXPECT_EQ(from_file->stats().frames_absorbed, fx.frames.size());
  std::remove(path.c_str());

  // /dev/null, also refused by epoll: an empty stream, an empty sketch.
  auto from_null = ServeToEof(fx.spec, OpenFd("/dev/null", O_RDONLY),
                               OpenFd("/dev/null", O_WRONLY));
  EXPECT_EQ(from_null->EncodeSketches().ValueOrDie(),
            std::vector<std::string>{serve::CollectorSession::Make(fx.spec)
                                         .ValueOrDie()
                                         .EncodeSketch()
                                         .ValueOrDie()});
}

// Every sequenced frame is acknowledged on the stream's own sink in
// arrival order, a duplicate is re-acked without re-absorbing, and the
// sketch is byte-identical to a sequence-free run over the same payloads.
TEST(CollectorServerTest, StreamAcksSequencedFramesAndDeduplicates) {
  NetFixture fx = MakeNetFixture(120, 40);
  ASSERT_EQ(fx.frames.size(), 3u);
  std::vector<std::string> stamped = fx.frames;
  for (size_t i = 0; i < stamped.size(); ++i) {
    ASSERT_TRUE(wire::StampSequenceContext(&stamped[i],
                                           {.epoch = 21, .seq = i + 1})
                    .ok());
  }
  // Seq 2 is re-sent mid-stream (the lost-ack retry shape).
  FedPipe fed = FeedPipe(
      EncodeFrames({stamped[0], stamped[1], stamped[1], stamped[2]}));
  int acks[2];
  ASSERT_EQ(pipe(acks), 0);
  net::Fd ack_read(acks[0]);
  auto server =
      ServeToEof(fx.spec, std::move(fed.read_end), net::Fd(acks[1]));
  fed.writer.join();
  EXPECT_EQ(server->num_reports(), 120u) << "the duplicate must not absorb";
  EXPECT_EQ(server->stats().duplicates, 1u);
  server.reset();  // closes the ack sink, so the read below ends

  std::string bytes;
  char buf[256];
  for (ssize_t got; (got = read(ack_read.get(), buf, sizeof(buf))) > 0;) {
    bytes.append(buf, static_cast<size_t>(got));
  }
  serve::FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes).ok());
  const uint64_t expected_seqs[] = {1, 2, 2, 3};
  std::string frame;
  for (const uint64_t expected : expected_seqs) {
    ASSERT_TRUE(decoder.Next(&frame));
    const auto ack = wire::DecodeAckFrame(frame);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack->epoch, 21u);
    EXPECT_EQ(ack->seq, expected);
  }
  EXPECT_FALSE(decoder.Next(&frame)) << "the sink carries acks only";
  EXPECT_TRUE(decoder.AtEnd().ok());
}

// The ack frames a stream wrote to the file at `path`, decoded in order.
std::vector<wire::FrameSeq> ReadAcks(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  serve::FrameDecoder decoder;
  EXPECT_TRUE(decoder.Feed(bytes).ok());
  std::vector<wire::FrameSeq> acks;
  std::string frame;
  while (decoder.Next(&frame)) {
    const auto ack = wire::DecodeAckFrame(frame);
    EXPECT_TRUE(ack.ok()) << ack.status().ToString();
    if (ack.ok()) acks.push_back(*ack);
  }
  EXPECT_TRUE(decoder.AtEnd().ok());
  return acks;
}

// Frames completed by each 64 KiB read of the records, written back to
// back as u32-prefixed frames: how a regular-file stream cuts its rounds.
std::vector<size_t> FramesPerRead(const std::vector<std::string>& records) {
  constexpr size_t kRead = 64u << 10;
  std::vector<size_t> counts;
  size_t end = 0;
  for (const std::string& record : records) {
    end += sizeof(uint32_t) + record.size();
    const size_t read = (end - 1) / kRead;
    if (counts.size() <= read) counts.resize(read + 1, 0);
    ++counts[read];
  }
  return counts;
}

// Rounds of 64+ frames fan out to the per-slot sessions and fold; smaller
// rounds absorb inline into the main session. A file stream whose first
// rounds hold 64+ frames and whose last round holds fewer, with a re-send
// of an early frame in that last round, must fold to the single-session
// sketch per tenant and ack every frame in arrival order, whichever path
// each round took. max_parallelism = 1 absorbs every round inline.
TEST(CollectorServerTest, SmallAndLargeRoundsFoldToOneSketch) {
  constexpr size_t kShard = 256;
  constexpr size_t kParallelAbsorbMinFrames = 64;
  // Two full reads of stamped frames, then a tail of a few dozen.
  const std::string probe = MakeNetFixture(kShard, kShard).frames[0];
  const size_t framed = sizeof(uint32_t) + probe.size() + 16;
  const size_t num_frames = 2 * (64u << 10) / framed + 20;
  const NetFixture fx =
      MakeNetFixture(num_frames * kShard, kShard, /*odd_tenant=*/9);
  ASSERT_EQ(fx.frames.size(), num_frames);
  ASSERT_EQ(fx.reference_sketches.size(), 2u);

  std::vector<std::string> records = fx.frames;
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(
        wire::StampSequenceContext(&records[i], {.epoch = 33, .seq = i + 1})
            .ok());
  }
  // Seq 2 (tenant-tagged) comes again just before the last frame.
  records.insert(records.end() - 1, records[1]);
  const std::vector<size_t> per_read = FramesPerRead(records);
  ASSERT_EQ(per_read.size(), 3u);
  ASSERT_GE(per_read[0], kParallelAbsorbMinFrames);
  ASSERT_GE(per_read[1], kParallelAbsorbMinFrames);
  ASSERT_LT(per_read[2], kParallelAbsorbMinFrames);
  ASSERT_GE(per_read[2], 2u) << "the re-send must land in the last round";
  const std::string input_path =
      WriteTempFile("net_test_rounds.bin", EncodeFrames(records));

  for (const size_t max_parallelism : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE("max_parallelism " + std::to_string(max_parallelism));
    const std::string ack_path = testing::TempDir() + "net_test_rounds.acks";
    net::ServerOptions options;
    options.drain_on_disconnect = true;
    options.max_parallelism = max_parallelism;
    auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
    ASSERT_TRUE(server
                    ->AddStream(OpenFd(input_path, O_RDONLY),
                                OpenFd(ack_path, O_WRONLY | O_CREAT | O_TRUNC))
                    .ok());
    const Status run = server->Run();
    ASSERT_TRUE(run.ok()) << run.ToString();
    EXPECT_EQ(server->EncodeSketches().ValueOrDie(), fx.reference_sketches);
    EXPECT_EQ(server->stats().frames_absorbed, num_frames);
    EXPECT_EQ(server->stats().duplicates, 1u);
    EXPECT_EQ(server->stats().connection_errors, 0u)
        << server->stats().first_error.ToString();
    server.reset();  // closes the ack sink

    const std::vector<wire::FrameSeq> acks = ReadAcks(ack_path);
    ASSERT_EQ(acks.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      const uint64_t seq = i + 1 == records.size() - 1 ? 2
                           : i + 1 == records.size()   ? num_frames
                                                       : i + 1;
      EXPECT_EQ(acks[i].epoch, 33u);
      EXPECT_EQ(acks[i].seq, seq) << "ack " << i;
    }
    std::remove(ack_path.c_str());
  }
  std::remove(input_path.c_str());
}

// A connection fails once however many of its frames fail in one round.
// The re-send of an over-budget frame in the same small round finds its
// original's claim already dropped, so it is refused the same way rather
// than acked as a duplicate.
TEST(CollectorServerTest, FramesFailingInOneRoundCountOneConnectionError) {
  const NetFixture fx = MakeNetFixture(200, 100, /*odd_tenant=*/4);
  std::string frame = fx.frames[1];  // tenant 4, 100 reports
  ASSERT_TRUE(wire::StampSequenceContext(&frame, {.epoch = 5, .seq = 1}).ok());
  const std::string input_path =
      WriteTempFile("net_test_budget.bin", EncodeFrames({frame, frame}));
  const std::string ack_path = testing::TempDir() + "net_test_budget.acks";

  net::ServerOptions options;
  options.drain_on_disconnect = true;
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  server->SetTenantBudget(4, {.max_reports = 50});
  ASSERT_TRUE(server
                  ->AddStream(OpenFd(input_path, O_RDONLY),
                              OpenFd(ack_path, O_WRONLY | O_CREAT | O_TRUNC))
                  .ok());
  const Status run = server->Run();
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_EQ(server->num_reports(), 0u);
  EXPECT_EQ(server->stats().frames_absorbed, 0u);
  EXPECT_EQ(server->stats().duplicates, 0u);
  EXPECT_EQ(server->stats().acks_queued, 0u);
  EXPECT_EQ(server->stats().connection_errors, 1u);
  EXPECT_EQ(server->stats().first_error.code(),
            StatusCode::kFailedPrecondition)
      << server->stats().first_error.ToString();
  server.reset();
  EXPECT_TRUE(ReadAcks(ack_path).empty());
  std::remove(input_path.c_str());
  std::remove(ack_path.c_str());
}

TEST(CollectorServerTest, StreamEndingMidFrameIsATypedError) {
  const NetFixture fx = MakeNetFixture(1000, 512);
  const std::string input = EncodeFrames(fx.frames);
  FedPipe fed = FeedPipe(input.substr(0, input.size() - 5));
  auto server = ServeToEof(fx.spec, std::move(fed.read_end),
                            OpenFd("/dev/null", O_WRONLY));
  fed.writer.join();
  EXPECT_EQ(server->stats().connection_errors, 1u);
  EXPECT_EQ(server->stats().first_error.code(), StatusCode::kOutOfRange)
      << server->stats().first_error.ToString();
  EXPECT_EQ(server->stats().frames_absorbed, fx.frames.size() - 1);
}

// ---------------------------------------------------------------------------
// The mid-frame read deadline, over TCP

TEST(CollectorServerTest, MidFrameStallHitsTheDeadline) {
  const NetFixture fx = MakeNetFixture(600, 512);
  const std::string input = EncodeFrames({fx.frames[0]});
  net::ServerOptions options;
  options.read_timeout_ms = 100;
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  std::atomic<bool> done{false};
  Status run_status;
  std::thread serving([&] {
    run_status = server->Run();
    done = true;
  });
  // Half a frame, then silence on a socket held open: only the deadline
  // can end this connection, and with it a drain that waits for it.
  net::Fd client = net::Dial(bound).ValueOrDie();
  ASSERT_TRUE(
      net::WriteAll(client.get(), input.substr(0, input.size() / 2)).ok());
  usleep(20 * 1000);
  const auto drain_at = std::chrono::steady_clock::now();
  server->RequestDrain();
  while (!done && std::chrono::steady_clock::now() - drain_at <
                      std::chrono::seconds(10)) {
    usleep(1000);
  }
  const auto drained_in = std::chrono::steady_clock::now() - drain_at;
  client.reset();  // ends the stall for a server that ignored the deadline
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.ToString();
  EXPECT_LT(drained_in, std::chrono::seconds(2))
      << "the drain waited on a stalled connection";
  EXPECT_EQ(server->stats().connection_errors, 1u);
  EXPECT_EQ(server->stats().first_error.code(), StatusCode::kOutOfRange);
  EXPECT_NE(server->stats().first_error.message().find("timed out"),
            std::string::npos)
      << server->stats().first_error.ToString();
  EXPECT_EQ(server->num_reports(), 0u);
}

TEST(CollectorServerTest, IdleBetweenFramesNeverTimesOut) {
  const NetFixture fx = MakeNetFixture(600, 600);
  const std::string input = EncodeFrames({fx.frames[0]});
  net::ServerOptions options;
  options.read_timeout_ms = 50;
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  {
    net::Fd client = net::Dial(bound).ValueOrDie();
    ASSERT_TRUE(net::WriteAll(client.get(), input).ok());
    // Quiet client, many deadline periods long — legitimate, no timeout.
    usleep(200 * 1000);
    ASSERT_TRUE(net::WriteAll(client.get(), input).ok());
  }
  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.ToString();
  EXPECT_EQ(server->stats().connection_errors, 0u)
      << server->stats().first_error.ToString();
  EXPECT_EQ(server->num_reports(), 2 * 600u);
}

// ---------------------------------------------------------------------------
// WAL checkpoint cadence: mid-serve and after the drain, the server's log
// replays to exactly the aggregate it serves.

void ExpectCadenceLogReplaysToTheServedSketch(const NetFixture& fx,
                                              size_t connections) {
  const std::string path = testing::TempDir() + "net_wal_cadence.wal";
  std::filesystem::remove_all(path);
  net::ServerOptions options;
  options.wal_path = path;
  options.wal.checkpoint_every_frames = 2;
  auto server = net::CollectorServer::Make(fx.spec, options).ValueOrDie();
  const net::Endpoint bound =
      server->AddListener(net::ParseEndpoint("tcp:0").ValueOrDie())
          .ValueOrDie();
  Status run_status;
  std::thread serving([&] { run_status = server->Run(); });
  {
    auto sender = net::MultiSender::Make(bound, connections).ValueOrDie();
    for (const std::string& frame : fx.frames) {
      ASSERT_TRUE(sender.Send(frame).ok());
    }
    ASSERT_TRUE(sender.Finish().ok());
  }
  const auto replay = [&](serve::WalReplayStats* stats) {
    auto session = serve::CollectorSession::Make(fx.spec).ValueOrDie();
    auto replayed = serve::ReplayWal(path, session.ReplayConsumer());
    EXPECT_TRUE(replayed.ok()) << replayed.status().ToString();
    if (replayed.ok()) *stats = replayed.value();
    return session;
  };
  // Mid-serve (no drain yet): once the log covers every frame it holds
  // cadence checkpoints plus the frames appended after the last one. A
  // round appends its frames before it checkpoints, and a compaction
  // unlinks the old segments after writing the new one, so a replay may
  // land in between; spin until the log settles.
  serve::WalReplayStats mid;
  std::string mid_sketch;
  std::vector<std::string> mid_sketches;
  for (int spin = 0; spin < 2000; ++spin) {
    auto session = replay(&mid);
    if (session.num_reports() == fx.total_reports && mid.checkpoints >= 1 &&
        mid.frames < fx.frames.size()) {
      mid_sketch = session.EncodeSketch().ValueOrDie();
      mid_sketches = session.EncodeSketches().ValueOrDie();
      break;
    }
    usleep(5000);
  }
  EXPECT_EQ(mid_sketch, fx.reference_sketch);
  EXPECT_EQ(mid_sketches, fx.reference_sketches);
  EXPECT_GE(mid.checkpoints, 1u);
  EXPECT_LT(mid.frames, fx.frames.size());

  server->RequestDrain();
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.ToString();
  EXPECT_EQ(server->EncodeSketch().ValueOrDie(), fx.reference_sketch);
  EXPECT_EQ(server->EncodeSketches().ValueOrDie(), fx.reference_sketches);
  // The drain compacted the log to one checkpoint of the served state.
  serve::WalReplayStats drained;
  auto session = replay(&drained);
  EXPECT_EQ(drained.checkpoints, 1u);
  EXPECT_EQ(drained.frames, 0u);
  EXPECT_EQ(session.EncodeSketches().ValueOrDie(),
            server->EncodeSketches().ValueOrDie());
  EXPECT_EQ(session.EncodeSketches().ValueOrDie(), fx.reference_sketches);
  std::filesystem::remove_all(path);
}

TEST(CollectorServerTest, CheckpointCadenceLogReplaysToTheServedSketch) {
  {
    SCOPED_TRACE("untagged frames, 1 connection");
    const NetFixture fx = MakeNetFixture(3500, 500);
    ASSERT_EQ(fx.frames.size(), 7u);
    ExpectCadenceLogReplaysToTheServedSketch(fx, 1);
  }
  {
    // Each round folds its slot sessions, tenant accumulators included,
    // into the main session that checkpoints and the drain encode.
    SCOPED_TRACE("frames alternating tenants 0 and 5, 3 connections");
    const NetFixture fx = MakeNetFixture(3500, 500, /*odd_tenant=*/5);
    ASSERT_EQ(fx.frames.size(), 7u);
    ASSERT_EQ(fx.reference_sketches.size(), 2u);
    ExpectCadenceLogReplaysToTheServedSketch(fx, 3);
  }
}

}  // namespace
}  // namespace numdist
