// Line-oriented child-process transport (the router's worker channel).
//
// A Subprocess is one spawned child with its stdin/stdout connected to
// the parent over pipes, wrapped for the NDJSON protocols this repo
// speaks: the parent writes request lines and reads response lines
// through a bounded common::LineFramer, and the child's exit is
// observable without blocking. This is the ONLY
// place in the tree allowed to call fork/exec (tools/wtam_lint.py
// enforces it): process spawning concentrates the signal handling,
// fd hygiene, and reaping subtleties that scattered popen() calls get
// wrong — stderr passes through to the parent's stderr so worker
// diagnostics stay visible.
//
// Concurrency contract (matches the router's one-writer/one-reader
// shape):
//   * write_line is safe from any thread (serialized by an internal
//     mutex; EINTR-retried; SIGPIPE is ignored process-wide the first
//     time a Subprocess is constructed, so a dead child yields a false
//     return, not a signal);
//   * framer() is read by at most ONE thread at a time — it is the
//     reader thread's blocking loop; its buffer is deliberately
//     unsynchronized;
//   * running()/kill()/wait() are safe from any thread (child state is
//     mutex-guarded; waitpid is only ever called under that mutex, so
//     the pid is reaped exactly once).
//
// Spawn failures (missing binary, not executable) are detected reliably
// via a CLOEXEC status pipe — the constructor throws std::runtime_error
// with the child's errno text instead of leaving a zombie that dies on
// its first read.

#pragma once

#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

#include "common/line_framer.hpp"
#include "common/thread_annotations.hpp"

namespace wtam::common {

class Subprocess {
 public:
  /// Spawns `argv` (argv[0] = binary path, resolved via PATH) with
  /// stdin/stdout piped to this object. Throws std::invalid_argument on
  /// an empty argv and std::runtime_error when the pipes, fork, or exec
  /// fail.
  explicit Subprocess(std::vector<std::string> argv);

  /// Kills (SIGKILL) a still-running child, closes the pipes, reaps.
  ~Subprocess();

  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// Writes `line` plus a trailing newline atomically with respect to
  /// other write_line calls. Returns false when the child's stdin is
  /// gone (child exited or close_stdin() was called) — the caller
  /// decides whether that is a crash (router: respawn) or a shutdown.
  bool write_line(std::string_view line);

  /// The child's stdout, framed into lines. Eof means the child closed
  /// stdout, almost always by exiting. Single reader only; see the
  /// concurrency contract above.
  [[nodiscard]] LineFramer& framer() noexcept { return framer_; }

  /// Closes the child's stdin — the NDJSON idiom for "no more requests"
  /// (wtam_serve treats EOF as drain-and-exit). Idempotent.
  void close_stdin();

  /// True while the child has neither exited nor been reaped. Non-
  /// blocking (WNOHANG); a child observed dead stays dead.
  [[nodiscard]] bool running();

  /// SIGKILLs the child if it still runs (no-op afterwards). The reader
  /// thread sees EOF shortly after.
  void kill();

  /// Blocks until the child exits and returns its raw waitpid status
  /// (use WIFEXITED/WEXITSTATUS). Idempotent: later calls return the
  /// recorded status.
  int wait();

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

 private:
  /// waitpid under state_mutex_; `block` chooses WNOHANG or not.
  void reap_locked(bool block) WTAM_REQUIRES(state_mutex_);

  pid_t pid_ = -1;

  Mutex write_mutex_;
  int stdin_fd_ WTAM_GUARDED_BY(write_mutex_) = -1;

  // Reader-thread-only state (single reader by contract, so no lock).
  int stdout_fd_ = -1;
  LineFramer framer_{-1};

  mutable Mutex state_mutex_;
  bool reaped_ WTAM_GUARDED_BY(state_mutex_) = false;
  int exit_status_ WTAM_GUARDED_BY(state_mutex_) = 0;
};

}  // namespace wtam::common
