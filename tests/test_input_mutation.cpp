// Seeded mutation test of the NDJSON input boundary. Valid job and
// constraint lines are mutated (byte flips, truncation, splices,
// inserted newlines, oversized runs), written through a pipe in random
// chunk sizes, and framed by common::LineFramer. The frames must match
// a slow oracle: split on '\n', and a frame longer than kMaxLineBytes
// is TooLong. Every frame must then come back from JsonValue::parse,
// job_from_json and constraints_from_json as a value or a
// std::exception, never a crash (the ASan build runs this too).
//
// The seed is fixed, so a failure replays exactly; every failure
// message carries it and the stream index.

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/job_io.hpp"
#include "api/json_value.hpp"
#include "common/line_framer.hpp"
#include "common/rng.hpp"

namespace wtam {
namespace {

using common::kMaxLineBytes;
using common::LineFramer;

constexpr std::uint64_t kSeed = 0x16f4a3e5;
constexpr int kStreams = 40;
constexpr int kLinesPerStream = 50;
/// Oversized runs cost ~8 MiB each through the pipe; a handful covers
/// the bound from both sides.
constexpr int kOversizedRuns = 6;

/// Valid inputs: jobs (every documented field, a constraints block, an
/// inline SOC) and bare constraint blocks.
const std::vector<std::string> kJobs = {
    R"({"id": "a", "soc": "d695", "width": 16, "backend": "rectpack"})",
    R"({"id": "b", "soc": "d695", "width": 16, "width_max": 24, )"
    R"("backend": "enumerative", "min_tams": 1, "max_tams": 3})",
    R"({"id": "c", "soc": "p93791", "width": 32, "threads": 1, )"
    R"("run_final_step": true, "rectpack_iterations": 2000, )"
    R"("rectpack_seed": 1, "deadline_s": 5.0, "priority": 0, )"
    R"("tag": "nightly"})",
    R"({"id": "d", "soc": "d695", "width": 16, "constraints": {"power": )"
    R"([100, 100, 100, 100, 100, 100, 100, 100, 100, 100], )"
    R"("power_budget": 200, "precedence": [[0, 2], [1, 2]], )"
    R"("fixed": [[3, 0, 8]], "forbidden": [[4, 8, 16]], )"
    R"("earliest_start": [[5, 1000]]}})",
    R"({"id": "e", "soc_inline": "soc x\ncore a patterns=5 inputs=2 )"
    R"(outputs=2 scan=3,4\n", "width": 8})",
};
const std::vector<std::string> kConstraints = {
    R"({"power": [120, 80, 60], "power_budget": 300, )"
    R"("precedence": [[0, 2], [1, 2]]})",
    R"({"fixed": [[3, 0, 8]], "forbidden": [[4, 8, 16]], )"
    R"("earliest_start": [[5, 1000]]})",
};

struct Frame {
  bool too_long = false;
  std::string text;
};

/// The slow oracle: split on '\n'; a final unterminated piece still
/// counts; a frame longer than the bound carries no text.
std::vector<Frame> oracle_frames(const std::string& stream) {
  std::vector<Frame> frames;
  std::size_t start = 0;
  while (start < stream.size()) {
    const std::size_t newline = stream.find('\n', start);
    const std::size_t end =
        newline == std::string::npos ? stream.size() : newline;
    if (end - start > kMaxLineBytes)
      frames.push_back({true, {}});
    else
      frames.push_back({false, stream.substr(start, end - start)});
    if (newline == std::string::npos) break;
    start = newline + 1;
  }
  return frames;
}

/// Writes `stream` into a pipe in random chunk sizes from a helper
/// thread and frames it with a LineFramer.
std::vector<Frame> framer_frames(const std::string& stream,
                                 std::uint64_t chunk_seed) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  std::thread writer([&stream, chunk_seed, fd = fds[1]] {
    common::Rng rng(chunk_seed);
    std::size_t written = 0;
    while (written < stream.size()) {
      // Mostly dribbles, sometimes large bursts.
      const std::int64_t limit = rng.uniform_int(0, 1) ? 64 : 128 * 1024;
      const std::size_t size =
          std::min(static_cast<std::size_t>(rng.uniform_int(1, limit)),
                   stream.size() - written);
      const ssize_t n = ::write(fd, stream.data() + written, size);
      if (n <= 0) break;  // the reader gave up (EPIPE): stop writing
      written += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });

  std::vector<Frame> frames;
  LineFramer framer(fds[0]);
  std::string line;
  for (;;) {
    const LineFramer::Status status = framer.read_line(line);
    if (status == LineFramer::Status::Line)
      frames.push_back({false, line});
    else if (status == LineFramer::Status::TooLong)
      frames.push_back({true, {}});
    else
      break;
    EXPECT_EQ(framer.line_number(), frames.size());
  }
  EXPECT_EQ(framer.read_line(line), LineFramer::Status::Eof);
  ::close(fds[0]);
  writer.join();
  return frames;
}

/// Applies 0-3 random mutations to a copy of `line`.
std::string mutate(std::string line, common::Rng& rng,
                   int& oversized_budget) {
  const std::vector<std::string>& donors =
      rng.uniform_int(0, 1) ? kJobs : kConstraints;
  const std::int64_t count = rng.uniform_int(0, 3);
  for (std::int64_t m = 0; m < count; ++m) {
    const auto at = [&rng](const std::string& s) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(s.size())));
    };
    switch (rng.uniform_int(0, 4)) {
      case 0:  // byte flip
        if (!line.empty())
          line[at(line) % line.size()] =
              static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:  // truncation
        line.resize(at(line));
        break;
      case 2: {  // splice with another valid line
        const std::string& donor = donors[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(donors.size()) - 1))];
        line = line.substr(0, at(line)) + donor.substr(at(donor));
        break;
      }
      case 3:  // inserted newline
        line.insert(at(line), 1, '\n');
        break;
      case 4: {  // oversized run: the frame lands on, or just past, the bound
        if (oversized_budget == 0 || rng.uniform_int(0, 15) != 0) break;
        --oversized_budget;
        const std::size_t target =
            kMaxLineBytes + static_cast<std::size_t>(rng.uniform_int(0, 2)) *
                                static_cast<std::size_t>(rng.uniform_int(1, 4096));
        const std::size_t run =
            target > line.size() ? target - line.size() : 1;
        const char fill = "x[\" 9"[rng.uniform_int(0, 4)];
        // Inside the tag string the padded job still parses.
        const std::size_t tag = line.find("nightly");
        line.insert(tag == std::string::npos ? at(line) : tag, run, fill);
        break;
      }
    }
  }
  return line;
}

/// Feeds one frame to every parser of the input boundary. Returns how
/// many accepted it.
int feed_parsers(const std::string& frame) {
  api::JsonValue value;
  try {
    value = api::JsonValue::parse(frame);
  } catch (const std::exception&) {
    return 0;
  }
  int accepted = 1;
  try {
    (void)api::job_from_json(value);
    ++accepted;
  } catch (const std::exception&) {
  }
  try {
    (void)api::constraints_from_json(value);
    ++accepted;
  } catch (const std::exception&) {
  }
  return accepted;
}

TEST(InputMutation, CorpusIsValid) {
  for (const std::string& job : kJobs)
    EXPECT_NO_THROW((void)api::job_from_json(api::JsonValue::parse(job)))
        << job;
  for (const std::string& block : kConstraints)
    EXPECT_NO_THROW(
        (void)api::constraints_from_json(api::JsonValue::parse(block)))
        << block;
}

TEST(InputMutation, TheBoundIsInclusive) {
  // A job padded by its tag to exactly the bound is a line and still a
  // valid job; one byte more is TooLong; the stream resyncs after it.
  std::string job = kJobs[2];
  job.insert(job.find("nightly"), kMaxLineBytes - job.size(), 'x');
  ASSERT_EQ(job.size(), kMaxLineBytes);
  const std::string stream = job + "\n" + job + "y\n" + kJobs[0];
  const std::vector<Frame> frames = framer_frames(stream, kSeed);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_FALSE(frames[0].too_long);
  EXPECT_TRUE(frames[0].text == job);
  EXPECT_EQ(feed_parsers(frames[0].text), 2);
  EXPECT_TRUE(frames[1].too_long);
  EXPECT_FALSE(frames[2].too_long);
  EXPECT_EQ(frames[2].text, kJobs[0]);
}

TEST(InputMutation, FramesMatchTheOracleAndEveryParserReturnsOrThrows) {
  // A reader that gives up must surface as a failed write, not SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  common::Rng rng(kSeed);
  int oversized_budget = kOversizedRuns;
  int frames_seen = 0;
  int too_long_seen = 0;
  int parsed = 0;
  int accepted = 0;
  for (int s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("seed " + std::to_string(kSeed) + ", stream " +
                 std::to_string(s));
    std::string stream;
    for (int l = 0; l < kLinesPerStream; ++l) {
      const std::vector<std::string>& source =
          rng.uniform_int(0, 3) == 0 ? kConstraints : kJobs;
      const std::string& base = source[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(source.size()) - 1))];
      stream += mutate(base, rng, oversized_budget);
      // Sometimes the final line stays unterminated.
      if (l + 1 < kLinesPerStream || rng.uniform_int(0, 1)) stream += '\n';
    }

    const std::vector<Frame> expected = oracle_frames(stream);
    const std::vector<Frame> actual = framer_frames(stream, rng());
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].too_long, expected[i].too_long) << "frame " << i;
      ASSERT_TRUE(actual[i].text == expected[i].text) << "frame " << i;
    }

    for (const Frame& frame : actual) {
      ++frames_seen;
      if (frame.too_long) {
        ++too_long_seen;
        continue;
      }
      const int result = feed_parsers(frame.text);
      parsed += result > 0;
      accepted += result > 1;
    }
  }
  // The test is not vacuous: it reached the bound, and mutated input
  // still got through the parsers as well as being rejected by them.
  EXPECT_EQ(oversized_budget, 0);
  EXPECT_GT(too_long_seen, 0);
  EXPECT_GT(accepted, 0);
  EXPECT_LT(parsed, frames_seen);
}

}  // namespace
}  // namespace wtam
