#include "common/line_framer.hpp"

#include <cerrno>
#include <csignal>
#include <mutex>

#include <poll.h>
#include <unistd.h>

namespace wtam::common {

LineFramer::Status LineFramer::read_line(std::string& line) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned_);
    const bool complete = newline != std::string::npos;
    if (complete || eof_) {
      const std::size_t end = complete ? newline : buffer_.size();
      if (!complete && !skipping_ && start_ == end) return Status::Eof;
      const bool oversized = skipping_ || end - start_ > kMaxLineBytes;
      if (!oversized) line.assign(buffer_, start_, end - start_);
      start_ = scanned_ = complete ? end + 1 : end;
      skipping_ = false;
      ++line_number_;
      return oversized ? Status::TooLong : Status::Line;
    }
    // No newline yet: keep only the partial frame, or none of it once
    // it is past the bound.
    if (buffer_.size() - start_ > kMaxLineBytes) skipping_ = true;
    buffer_.erase(0, skipping_ ? buffer_.size() : start_);
    start_ = 0;
    scanned_ = buffer_.size();
    if (!fill()) {
      buffer_.clear();
      scanned_ = 0;
      return Status::Stopped;
    }
  }
}

bool LineFramer::fill() {
  if (stop_fd_ >= 0) {
    pollfd fds[2] = {{fd_, POLLIN, 0}, {stop_fd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      eof_ = errno != EINTR;
      return true;
    }
    if ((fds[1].revents & POLLIN) != 0) return false;
  }
  char chunk[64 * 1024];
  const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
  if (n > 0)
    buffer_.append(chunk, static_cast<std::size_t>(n));
  else
    eof_ = n == 0 || errno != EINTR;
  return true;
}

bool write_frame(int fd, std::string_view line) {
  std::string buffer;
  buffer.reserve(line.size() + 1);
  buffer.append(line);
  buffer.push_back('\n');
  for (std::size_t written = 0; written < buffer.size();) {
    const ssize_t n =
        ::write(fd, buffer.data() + written, buffer.size() - written);
    if (n >= 0)
      written += static_cast<std::size_t>(n);
    else if (errno != EINTR)
      return false;
  }
  return true;
}

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

std::string too_long_message(std::uint64_t line_number) {
  return "line " + std::to_string(line_number) +
         ": frame exceeds the line-length bound of " +
         std::to_string(kMaxLineBytes) +
         " bytes; resynced at the next newline";
}

}  // namespace wtam::common
