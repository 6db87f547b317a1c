// TCP transport for the NDJSON serving protocol (the multi-host tier).
//
// The serving stack speaks newline-delimited JSON over byte streams;
// common::Subprocess carries those frames over pipes, this module
// carries them over TCP so a router can front workers on other hosts.
// It is the ONLY place in the tree allowed to make socket syscalls
// (tools/wtam_lint.py enforces it, mirroring the raw-subprocess rule):
// address resolution and shutdown-vs-close subtleties live here once.
//
//   * Connection — one connected stream. Reads and writes go through
//     common::LineFramer / write_frame, bounded and resyncing like every
//     transport.
//     Writes are whole-line, any-thread, and a dead peer yields `false`
//     (SIGPIPE is ignored process-wide), the same contract as
//     common::Subprocess::write_line.
//   * Listener — a bound, listening socket. accept() blocks in poll()
//     on the listen fd plus an internal wake pipe, so stop() (any
//     thread) unblocks it deterministically; port 0 binds an ephemeral
//     port reported by local_endpoint().
//
// Concurrency contract (same shape as Subprocess): write_line from any
// thread; framer() read from at most one thread at a time;
// shutdown_both / the destructor from any thread — shutdown_both()
// forces a blocked reader to see Eof (close() alone would not unblock
// it), which is how the router severs a remote worker it has declared
// dead.

#pragma once

#include <memory>
#include <string_view>

#include "common/line_framer.hpp"
#include "common/thread_annotations.hpp"
#include "net/endpoint.hpp"

namespace wtam::net {

class Connection {
 public:
  /// Adopts an already-connected fd (Listener::accept's path).
  explicit Connection(int fd);

  /// Resolves `endpoint` (IPv4 / hostname) and connects. Throws
  /// std::runtime_error with the resolver/connect errno text on failure.
  [[nodiscard]] static std::unique_ptr<Connection> connect(
      const Endpoint& endpoint);

  /// Shuts down and closes the socket.
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes `line` plus a trailing newline, atomically with respect to
  /// other write_line calls. Returns false when the peer is gone or the
  /// connection was shut down.
  bool write_line(std::string_view line);

  /// The incoming byte stream, framed into lines. Eof means the peer
  /// closed (or the connection was shut down locally). Single reader
  /// only; see the concurrency contract above.
  [[nodiscard]] common::LineFramer& framer() noexcept { return framer_; }

  /// Half-close: no more writes from this side (the socket analogue of
  /// Subprocess::close_stdin — wtam_serve treats it as client EOF).
  /// Idempotent.
  void shutdown_write();

  /// Full shutdown: a blocked framer read returns Eof promptly and every
  /// later write fails. The fd itself is closed by the destructor.
  /// Idempotent, any thread — this is the "sever a dead worker" path.
  void shutdown_both();

  /// Peer address as reported by the kernel ("ip:port"); best-effort
  /// (empty host on failure). For diagnostics only.
  [[nodiscard]] Endpoint peer_endpoint() const;

 private:
  const int fd_;

  common::Mutex write_mutex_;
  bool write_open_ WTAM_GUARDED_BY(write_mutex_) = true;

  // Reader-thread-only state (single reader by contract, so no lock).
  common::LineFramer framer_;
};

class Listener {
 public:
  /// Binds and listens on `endpoint` (host resolved like connect; port 0
  /// = kernel-assigned, see local_endpoint). SO_REUSEADDR is set so
  /// restarting a service does not trip over TIME_WAIT. Throws
  /// std::runtime_error on resolve/bind/listen failure.
  explicit Listener(const Endpoint& endpoint);

  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The actually-bound address — meaningful when the requested port
  /// was 0.
  [[nodiscard]] Endpoint local_endpoint() const { return local_; }

  /// Blocks for the next client; nullptr once stop() has been called.
  /// Transient accept errors (ECONNABORTED, EMFILE pressure) are
  /// retried, not surfaced. Single accepter at a time.
  [[nodiscard]] std::unique_ptr<Connection> accept();

  /// Unblocks accept() and makes every later accept() return nullptr.
  /// Any thread; idempotent.
  void stop();

 private:
  int fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  Endpoint local_;
  common::Mutex stop_mutex_;
  bool stopped_ WTAM_GUARDED_BY(stop_mutex_) = false;
};

}  // namespace wtam::net
