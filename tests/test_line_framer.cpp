// common::LineFramer's stop fd: the one framer behaviour that needs a
// second thread. Framing itself is checked against a slow oracle by
// test_input_mutation, over sockets by test_net, and over pipes by
// test_subprocess.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/line_framer.hpp"

namespace wtam::common {
namespace {

TEST(LineFramer, StopFdUnblocksABlockedReaderAndDropsThePartialLine) {
  int data[2] = {-1, -1};
  int stop[2] = {-1, -1};
  ASSERT_EQ(::pipe(data), 0);
  ASSERT_EQ(::pipe(stop), 0);
  EXPECT_EQ(::write(data[1], "partial", 7), 7);

  LineFramer framer(data[0], stop[0]);
  std::string line = "untouched";
  std::atomic<bool> returned{false};
  LineFramer::Status status = LineFramer::Status::Line;
  std::thread reader([&] {
    // No newline ever arrives: only the stop fd can release this read.
    status = framer.read_line(line);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  EXPECT_EQ(::write(stop[1], "s", 1), 1);
  reader.join();
  EXPECT_EQ(status, LineFramer::Status::Stopped);
  EXPECT_EQ(line, "untouched");

  // Stopped is sticky, and the dropped partial line does not surface
  // even once its newline arrives.
  EXPECT_EQ(::write(data[1], "\n", 1), 1);
  EXPECT_EQ(framer.read_line(line), LineFramer::Status::Stopped);
  EXPECT_EQ(line, "untouched");
  EXPECT_EQ(framer.line_number(), 0u);

  for (const int fd : {data[0], data[1], stop[0], stop[1]}) ::close(fd);
}

}  // namespace
}  // namespace wtam::common
