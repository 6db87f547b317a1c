#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/wait.h>

#include "common/subprocess.hpp"

namespace wtam::common {
namespace {

/// The child's next stdout line; nullopt at EOF.
std::optional<std::string> next_line(Subprocess& child) {
  std::string line;
  const LineFramer::Status status = child.framer().read_line(line);
  EXPECT_NE(status, LineFramer::Status::TooLong);
  if (status != LineFramer::Status::Line) return std::nullopt;
  return line;
}

TEST(Subprocess, EchoRoundTripAndCleanExit) {
  Subprocess cat({"/bin/cat"});
  EXPECT_TRUE(cat.running());
  EXPECT_GT(cat.pid(), 0);

  EXPECT_TRUE(cat.write_line("hello"));
  EXPECT_TRUE(cat.write_line("world"));
  const auto first = next_line(cat);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "hello");
  const auto second = next_line(cat);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "world");

  // EOF on stdin: cat drains and exits 0; our read side sees EOF.
  cat.close_stdin();
  EXPECT_FALSE(next_line(cat).has_value());
  const int status = cat.wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_FALSE(cat.running());
}

TEST(Subprocess, MissingBinaryThrows) {
  EXPECT_THROW(Subprocess({"/definitely/not/a/binary"}), std::runtime_error);
}

TEST(Subprocess, EmptyArgvThrows) {
  EXPECT_THROW(Subprocess({}), std::invalid_argument);
}

TEST(Subprocess, KillSurfacesAsEof) {
  Subprocess cat({"/bin/cat"});
  cat.kill();
  // The reader observes the death as EOF, not a hang or a signal.
  EXPECT_FALSE(next_line(cat).has_value());
  const int status = cat.wait();
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  EXPECT_FALSE(cat.running());
}

TEST(Subprocess, WriteToDeadChildFailsInsteadOfSignaling) {
  Subprocess child({"/bin/sh", "-c", "exit 0"});
  (void)child.wait();
  // The pipe's read end is gone: the write reports failure (EPIPE is
  // ignored process-wide), it must not kill this test with SIGPIPE.
  EXPECT_FALSE(child.write_line("anyone there?"));
  EXPECT_FALSE(child.write_line("still no"));
}

TEST(Subprocess, UnterminatedFinalLineIsReturned) {
  Subprocess child({"/bin/sh", "-c", "printf 'no-newline'"});
  const auto line = next_line(child);
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "no-newline");
  EXPECT_FALSE(next_line(child).has_value());
}

TEST(Subprocess, LongLineArrivesIntact) {
  // 1 MiB is far past any pipe buffer: the writer blocks until the
  // child echoes and this thread reads, so the write runs beside it.
  Subprocess cat({"/bin/cat"});
  std::string payload(1u << 20, 'x');
  for (std::size_t i = 0; i < payload.size(); i += 4099)
    payload[i] = static_cast<char>('a' + i % 26);
  std::thread writer([&cat, &payload] {
    EXPECT_TRUE(cat.write_line(payload));
    EXPECT_TRUE(cat.write_line("next"));
    cat.close_stdin();
  });
  const auto line = next_line(cat);
  writer.join();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, payload);
  EXPECT_EQ(next_line(cat), "next");
  EXPECT_FALSE(next_line(cat).has_value());
}

TEST(Subprocess, CloseStdinIsIdempotent) {
  Subprocess cat({"/bin/cat"});
  cat.close_stdin();
  cat.close_stdin();
  EXPECT_FALSE(cat.write_line("after close"));
  EXPECT_FALSE(next_line(cat).has_value());
}

}  // namespace
}  // namespace wtam::common
