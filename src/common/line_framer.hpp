// The one NDJSON line reader for every transport: stdin, worker pipes
// and TCP. It owns the buffer and read(2) loop over an fd it does not
// own. A frame longer than kMaxLineBytes comes back as TooLong and is
// dropped through its newline, so the buffer stays bounded and the next
// call reads the next frame. A final unterminated line before EOF still
// counts, and the newline scan resumes where it stopped. An optional
// stop fd, polled beside the data fd, makes a read that needs more
// bytes return Stopped and drop the partial line; its byte is left
// unread, so Stopped is sticky. Single reader: the fd's owner unblocks
// a blocked read by ending the stream, or through the stop fd.
// write_frame is the matching writer that the pipe and socket
// transports share.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace wtam::common {

/// Longest accepted frame in bytes, excluding the newline: room to
/// spare over the largest result line (p93791 schedules serialize well
/// under 1 MiB).
inline constexpr std::size_t kMaxLineBytes = 8u << 20;

class LineFramer {
 public:
  enum class Status { Line, TooLong, Eof, Stopped };

  /// `stop_fd` < 0 means no stop fd.
  explicit LineFramer(int fd, int stop_fd = -1) noexcept
      : fd_(fd), stop_fd_(stop_fd) {}

  /// Blocks for the next frame. On Line, `line` holds it without its
  /// newline; other statuses leave `line` alone. Eof is sticky, and an
  /// I/O error reads as Eof.
  [[nodiscard]] Status read_line(std::string& line);

  /// The 1-based number of the last Line or TooLong frame.
  [[nodiscard]] std::uint64_t line_number() const noexcept {
    return line_number_;
  }

 private:
  /// One read(2), after polling the stop fd if there is one; false when
  /// the stop fd fired.
  [[nodiscard]] bool fill();

  int fd_;
  int stop_fd_;
  std::string buffer_;
  std::size_t start_ = 0;    ///< first byte of the current frame
  std::size_t scanned_ = 0;  ///< no newline before this offset
  bool skipping_ = false;    ///< dropping an oversized frame's tail
  bool eof_ = false;
  std::uint64_t line_number_ = 0;
};

/// Writes `line` and its newline to `fd` in one buffer, retrying EINTR;
/// false on any other error. Callers serialize their writers.
/// Call ignore_sigpipe() first, so a reader that hung up reads as false.
[[nodiscard]] bool write_frame(int fd, std::string_view line);

/// Ignores SIGPIPE process-wide; every transport calls it before its
/// first write. Idempotent.
void ignore_sigpipe();

/// The error text every tool answers a TooLong frame with.
[[nodiscard]] std::string too_long_message(std::uint64_t line_number);

}  // namespace wtam::common
