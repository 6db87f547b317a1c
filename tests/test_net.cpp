// Socket transport mechanics: endpoint parsing and the line framing
// that every multi-host conversation rides on. The framing tests drive
// a net::Connection's framer from the raw peer end of a socketpair, so
// partial frames, dribbling writers, oversized lines (just past the
// real common::kMaxLineBytes bound), and mid-frame hangups are exact,
// not timing-dependent. (Tests sit outside the raw-socket lint
// scope; production code must go through src/net/.)

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "net/endpoint.hpp"
#include "net/socket.hpp"

namespace wtam::net {
namespace {

using Status = common::LineFramer::Status;
using common::kMaxLineBytes;

// ---- endpoint parsing ------------------------------------------------------

TEST(Endpoint, ParsesHostAndPort) {
  const Endpoint endpoint = parse_endpoint("127.0.0.1:8080");
  EXPECT_EQ(endpoint.host, "127.0.0.1");
  EXPECT_EQ(endpoint.port, 8080);
  EXPECT_EQ(endpoint.to_string(), "127.0.0.1:8080");
}

TEST(Endpoint, PortZeroMeansKernelAssigned) {
  EXPECT_EQ(parse_endpoint("localhost:0").port, 0);
}

TEST(Endpoint, AcceptsTheFullPortRange) {
  EXPECT_EQ(parse_endpoint("h:65535").port, 65535);
  EXPECT_EQ(parse_endpoint("h:1").port, 1);
}

TEST(Endpoint, RejectsMalformedSpellings) {
  EXPECT_THROW((void)parse_endpoint(""), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("nohost"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint(":80"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("host:"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("host:abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("host:12x"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("host:65536"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("host:999999"), std::invalid_argument);
  // IPv6 literals carry extra colons; the parser refuses rather than
  // mis-splitting.
  EXPECT_THROW((void)parse_endpoint("::1:80"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("[::1]:80"), std::invalid_argument);
}

// ---- framing on a socketpair ----------------------------------------------

/// A Connection plus the raw peer fd the test writes through, so byte
/// boundaries are exactly what the test says they are.
struct FramedPair {
  std::unique_ptr<Connection> connection;
  int raw_fd = -1;
  std::thread writer;

  FramedPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    connection = std::make_unique<Connection>(fds[0]);
    raw_fd = fds[1];
  }

  ~FramedPair() {
    // A failed assertion may leave the writer blocked on a full socket:
    // the shutdown fails its send so the join cannot hang.
    connection->shutdown_both();
    if (writer.joinable()) writer.join();
    if (raw_fd >= 0) ::close(raw_fd);
  }

  void send_raw(const std::string& bytes) const {
    ASSERT_EQ(::send(raw_fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Sends `chunks` in order from a helper thread: a frame past the
  /// bound does not fit in the socket buffer, so it must be written
  /// while the test reads.
  void send_in_background(std::vector<std::string> chunks) {
    writer = std::thread([this, chunks = std::move(chunks)] {
      for (const std::string& chunk : chunks) send_raw(chunk);
    });
  }

  void hang_up() {
    ::close(raw_fd);
    raw_fd = -1;
  }
};

TEST(Framing, ReassemblesAFrameSplitAcrossWrites) {
  FramedPair pair;
  pair.send_raw("{\"op\": ");
  pair.send_raw("\"stats\"");
  pair.send_raw("}\n");
  std::string line;
  ASSERT_EQ(pair.connection->framer().read_line(line), Status::Line);
  EXPECT_EQ(line, "{\"op\": \"stats\"}");
}

TEST(Framing, SplitsMultipleFramesArrivingInOneWrite) {
  FramedPair pair;
  pair.send_raw("alpha\nbeta\ngam");
  pair.send_raw("ma\n");
  std::string line;
  ASSERT_EQ(pair.connection->framer().read_line(line), Status::Line);
  EXPECT_EQ(line, "alpha");
  ASSERT_EQ(pair.connection->framer().read_line(line), Status::Line);
  EXPECT_EQ(line, "beta");
  ASSERT_EQ(pair.connection->framer().read_line(line), Status::Line);
  EXPECT_EQ(line, "gamma");
}

TEST(Framing, ByteAtATimeWriterStillFramesCorrectly) {
  FramedPair pair;
  const std::string message = "{\"id\": \"dribble\", \"width\": 32}";
  std::thread writer([&pair, &message] {
    for (const char byte : message) pair.send_raw(std::string(1, byte));
    pair.send_raw("\n");
  });
  std::string line;
  ASSERT_EQ(pair.connection->framer().read_line(line), Status::Line);
  EXPECT_EQ(line, message);
  writer.join();
}

TEST(Framing, OversizedLineIsRejectedAndTheStreamResyncs) {
  FramedPair pair;
  pair.send_in_background({std::string(kMaxLineBytes + 1, 'x') + "\nok\n"});
  std::string line;
  // The overlong frame is rejected without tearing the connection...
  ASSERT_EQ(pair.connection->framer().read_line(line), Status::TooLong);
  // ...and the next frame after the newline arrives intact.
  ASSERT_EQ(pair.connection->framer().read_line(line), Status::Line);
  EXPECT_EQ(line, "ok");
}

TEST(Framing, OversizedLineLargerThanTheBufferStillResyncs) {
  FramedPair pair;
  // No newline for a while: the reader must keep discarding without
  // growing its buffer past the bound.
  pair.send_in_background({std::string(kMaxLineBytes, 'a'),
                           std::string(100, 'b') + "\nafter\n"});
  std::string line;
  ASSERT_EQ(pair.connection->framer().read_line(line), Status::TooLong);
  ASSERT_EQ(pair.connection->framer().read_line(line), Status::Line);
  EXPECT_EQ(line, "after");
}

TEST(Framing, AbruptDisconnectMidFrameDeliversTheFinalPartialLine) {
  FramedPair pair;
  pair.send_raw("complete\nunterminated");
  std::string line;
  ASSERT_EQ(pair.connection->framer().read_line(line), Status::Line);
  EXPECT_EQ(line, "complete");
  pair.hang_up();
  // The unterminated tail still counts as a line (matches stdin
  // semantics)...
  ASSERT_EQ(pair.connection->framer().read_line(line), Status::Line);
  EXPECT_EQ(line, "unterminated");
  // ...and only then does the stream report EOF, forever.
  EXPECT_EQ(pair.connection->framer().read_line(line), Status::Eof);
  EXPECT_EQ(pair.connection->framer().read_line(line), Status::Eof);
}

TEST(Framing, ImmediateDisconnectIsAPlainEof) {
  FramedPair pair;
  pair.hang_up();
  std::string line;
  EXPECT_EQ(pair.connection->framer().read_line(line), Status::Eof);
}

TEST(Framing, WriteLineAppendsExactlyOneNewline) {
  FramedPair pair;
  EXPECT_TRUE(pair.connection->write_line("{\"ok\": true}"));
  char buffer[64] = {};
  const ssize_t n = ::recv(pair.raw_fd, buffer, sizeof(buffer), 0);
  EXPECT_EQ(std::string(buffer, static_cast<std::size_t>(n)),
            "{\"ok\": true}\n");
}

TEST(Framing, WritesFromManyThreadsNeverInterleave) {
  FramedPair pair;
  constexpr int kThreads = 4;
  constexpr int kLines = 50;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&pair, t] {
      const std::string payload(64, static_cast<char>('a' + t));
      for (int i = 0; i < kLines; ++i)
        (void)pair.connection->write_line(payload);
    });
  // Drain concurrently so the writers never block on a full buffer.
  std::string received;
  char chunk[4096];
  while (received.size() < kThreads * kLines * 65u) {
    const ssize_t n = ::recv(pair.raw_fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    received.append(chunk, static_cast<std::size_t>(n));
  }
  for (std::thread& writer : writers) writer.join();
  // Every received line is one writer's payload, whole.
  std::size_t start = 0;
  int count = 0;
  for (std::size_t newline = received.find('\n'); newline != std::string::npos;
       newline = received.find('\n', start)) {
    const std::string line = received.substr(start, newline - start);
    start = newline + 1;
    ASSERT_EQ(line.size(), 64u);
    for (const char byte : line) ASSERT_EQ(byte, line.front());
    ++count;
  }
  EXPECT_EQ(count, kThreads * kLines);
}

TEST(Framing, ShutdownBothUnblocksABlockedReader) {
  FramedPair pair;
  std::atomic<bool> unblocked{false};
  std::thread reader([&pair, &unblocked] {
    std::string line;
    // No data ever arrives: only the shutdown can release this read.
    (void)pair.connection->framer().read_line(line);
    unblocked.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unblocked.load());
  pair.connection->shutdown_both();
  reader.join();
  EXPECT_TRUE(unblocked.load());
  // Writes after the shutdown fail cleanly instead of crashing.
  EXPECT_FALSE(pair.connection->write_line("late"));
}

TEST(Framing, WriteToAClosedPeerFailsInsteadOfSignaling) {
  FramedPair pair;
  ::close(pair.raw_fd);
  pair.raw_fd = -1;
  // The peer is gone: the write reports failure (SIGPIPE is ignored
  // process-wide), it must not kill this test with SIGPIPE.
  EXPECT_FALSE(pair.connection->write_line("anyone there?"));
  EXPECT_FALSE(pair.connection->write_line("still no"));
}

// ---- listener + real TCP ---------------------------------------------------

TEST(Listener, PortZeroBindsAnEphemeralPortAndRoundTrips) {
  Listener listener(parse_endpoint("127.0.0.1:0"));
  const Endpoint bound = listener.local_endpoint();
  EXPECT_GT(bound.port, 0);

  std::unique_ptr<Connection> server;
  std::thread acceptor([&listener, &server] { server = listener.accept(); });
  std::unique_ptr<Connection> client = Connection::connect(bound);
  acceptor.join();
  ASSERT_NE(server, nullptr);
  ASSERT_NE(client, nullptr);

  EXPECT_TRUE(client->write_line("{\"op\": \"ping\"}"));
  std::string line;
  ASSERT_EQ(server->framer().read_line(line), Status::Line);
  EXPECT_EQ(line, "{\"op\": \"ping\"}");
  EXPECT_TRUE(server->write_line("{\"op\": \"ping\", \"ok\": true}"));
  ASSERT_EQ(client->framer().read_line(line), Status::Line);
  EXPECT_EQ(line, "{\"op\": \"ping\", \"ok\": true}");

  listener.stop();
}

TEST(Listener, StopUnblocksABlockedAccept) {
  Listener listener(parse_endpoint("127.0.0.1:0"));
  std::unique_ptr<Connection> accepted;
  std::atomic<bool> returned{false};
  std::thread acceptor([&listener, &accepted, &returned] {
    accepted = listener.accept();
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  listener.stop();
  acceptor.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(accepted, nullptr);
  // Post-stop accepts return immediately.
  EXPECT_EQ(listener.accept(), nullptr);
}

TEST(Listener, ConnectToAClosedPortFails) {
  // Bind then immediately stop: the port is (briefly) known-dead.
  Endpoint dead;
  {
    Listener listener(parse_endpoint("127.0.0.1:0"));
    dead = listener.local_endpoint();
    listener.stop();
  }
  EXPECT_THROW((void)Connection::connect(dead), std::runtime_error);
}

}  // namespace
}  // namespace wtam::net
