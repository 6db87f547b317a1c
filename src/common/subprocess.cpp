#include "common/subprocess.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace wtam::common {

namespace {

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

[[noreturn]] void throw_errno(const std::string& what, int error) {
  throw std::runtime_error("Subprocess: " + what + ": " +
                           std::strerror(error));
}

}  // namespace

Subprocess::Subprocess(std::vector<std::string> argv) {
  if (argv.empty())
    throw std::invalid_argument("Subprocess: empty argv");
  ignore_sigpipe();

  int to_child[2] = {-1, -1};    // parent writes [1] -> child stdin [0]
  int from_child[2] = {-1, -1};  // child stdout [1] -> parent reads [0]
  // Exec status channel: CLOEXEC, so a successful exec closes it silently
  // and a failed exec reports the child's errno — the only reliable way
  // to turn "no such binary" into a constructor exception.
  int status_pipe[2] = {-1, -1};
  if (::pipe(to_child) != 0) throw_errno("pipe(stdin)", errno);
  if (::pipe(from_child) != 0) {
    close_quietly(to_child[0]);
    close_quietly(to_child[1]);
    throw_errno("pipe(stdout)", errno);
  }
  if (::pipe(status_pipe) != 0 ||
      ::fcntl(status_pipe[0], F_SETFD, FD_CLOEXEC) != 0 ||
      ::fcntl(status_pipe[1], F_SETFD, FD_CLOEXEC) != 0) {
    const int error = errno;
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1], status_pipe[0], status_pipe[1]})
      close_quietly(fd);
    throw_errno("pipe(status)", error);
  }

  const pid_t child = ::fork();
  if (child < 0) {
    const int error = errno;
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1], status_pipe[0], status_pipe[1]})
      close_quietly(fd);
    throw_errno("fork", error);
  }

  if (child == 0) {
    // Child: wire the pipes to stdin/stdout, restore default SIGPIPE
    // (the parent's SIG_IGN would leak through exec), and become argv.
    ::signal(SIGPIPE, SIG_DFL);
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    for (const int fd :
         {to_child[0], to_child[1], from_child[0], from_child[1],
          status_pipe[0]})
      close_quietly(fd);
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (std::string& arg : argv) args.push_back(arg.data());
    args.push_back(nullptr);
    ::execvp(args[0], args.data());
    // Exec failed: ship errno to the parent and die without running any
    // of the parent's atexit machinery.
    const int error = errno;
    ssize_t ignored = ::write(status_pipe[1], &error, sizeof(error));
    (void)ignored;
    ::_exit(127);
  }

  // Parent.
  pid_ = child;
  close_quietly(to_child[0]);
  close_quietly(from_child[1]);
  close_quietly(status_pipe[1]);
  {
    const MutexLock lock(write_mutex_);
    stdin_fd_ = to_child[1];
  }
  stdout_fd_ = from_child[0];
  framer_ = LineFramer(stdout_fd_);

  int exec_errno = 0;
  ssize_t n = 0;
  do {
    n = ::read(status_pipe[0], &exec_errno, sizeof(exec_errno));
  } while (n < 0 && errno == EINTR);
  close_quietly(status_pipe[0]);
  if (n > 0) {
    // Exec failed; the child already _exit(127)ed. Reap and throw.
    {
      const MutexLock lock(state_mutex_);
      reap_locked(true);
    }
    close_stdin();
    close_quietly(stdout_fd_);
    stdout_fd_ = -1;
    throw_errno("exec " + argv[0], exec_errno);
  }
}

Subprocess::~Subprocess() {
  {
    const MutexLock lock(state_mutex_);
    if (!reaped_) {
      ::kill(pid_, SIGKILL);
      reap_locked(true);
    }
  }
  close_stdin();
  close_quietly(stdout_fd_);
}

bool Subprocess::write_line(std::string_view line) {
  const MutexLock lock(write_mutex_);
  if (stdin_fd_ < 0) return false;
  if (write_frame(stdin_fd_, line)) return true;
  // EPIPE (child died) or a real I/O error: this channel is done.
  ::close(stdin_fd_);
  stdin_fd_ = -1;
  return false;
}

void Subprocess::close_stdin() {
  const MutexLock lock(write_mutex_);
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
}

bool Subprocess::running() {
  const MutexLock lock(state_mutex_);
  if (!reaped_) reap_locked(false);
  return !reaped_;
}

void Subprocess::kill() {
  const MutexLock lock(state_mutex_);
  if (!reaped_) ::kill(pid_, SIGKILL);
}

int Subprocess::wait() {
  const MutexLock lock(state_mutex_);
  if (!reaped_) reap_locked(true);
  return exit_status_;
}

void Subprocess::reap_locked(bool block) {
  int status = 0;
  pid_t result = 0;
  do {
    result = ::waitpid(pid_, &status, block ? 0 : WNOHANG);
  } while (result < 0 && errno == EINTR);
  if (result == pid_) {
    reaped_ = true;
    exit_status_ = status;
  }
}

}  // namespace wtam::common
