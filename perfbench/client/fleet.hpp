// The server side of a benchmark run, driven from outside: spawning the
// shipped binaries over a pipe, timing their set-up, reading their
// process tree's CPU and memory from /proc, and the closed request loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/worker_link.hpp"

namespace perfbench {

/// What to spawn: a command line and the control verb whose answer
/// means "ready". wtam_router answers `ping` itself, so a router fleet
/// is ready only when a fanned-out `stats` comes back.
struct FleetSpec {
  std::vector<std::string> argv;
  std::string ready_op;
};

/// `wtam_serve --threads 2` (solve_cold, the direct hop
/// of the hit path) or `wtam_router --workers 2 --worker-threads 1`
/// (serve_hits). `extra` is appended (e.g. --trace, --cache-file P).
[[nodiscard]] FleetSpec serve_spec(const std::string& bin_dir, int threads,
                                   std::vector<std::string> extra = {});
[[nodiscard]] FleetSpec router_spec(const std::string& bin_dir, int workers,
                                    std::vector<std::string> extra = {});

class Fleet {
 public:
  /// Spawns the fleet and blocks until it is ready; throws
  /// std::runtime_error when it dies or answers garbage first.
  explicit Fleet(const FleetSpec& spec);
  /// Severs and reaps a fleet that was not shut down.
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Spawn-to-ready wall time.
  [[nodiscard]] double setup_s() const noexcept { return setup_s_; }
  [[nodiscard]] wtam::serve::WorkerLink& link() { return *link_; }
  /// Graceful stop: `shutdown` verb, wait for its ack, reap. Idempotent.
  void shutdown();

 private:
  std::unique_ptr<wtam::serve::WorkerLink> link_;
  double setup_s_ = 0.0;
  bool stopped_ = false;
};

/// Reads the next line whose "op" member is `op`, dropping others.
/// Throws when the link reaches EOF first.
[[nodiscard]] std::string await_op(wtam::serve::WorkerLink& link,
                                   const std::string& op);

/// CPU time and peak resident memory summed over every live descendant
/// process of this one (the fleet it spawned), from /proc.
struct TreeSample {
  double cpu_s = 0.0;    ///< utime + stime
  double hwm_mib = 0.0;  ///< sum of VmHWM
  int processes = 0;
};
[[nodiscard]] TreeSample sample_process_tree();

/// One request of a closed loop. Times are ns since the loop started.
struct Exchange {
  std::size_t point = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = -1;  ///< -1 = never answered
  std::string response;
  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(done_ns - sent_ns) / 1e6;
  }
};

/// A slice boundary of a loop: answers so far, the time, and the fleet's
/// CPU time then.
struct Mark {
  std::size_t answered = 0;
  std::int64_t ns = 0;
  double cpu_s = 0.0;
};

/// When a loop sets a mark: after every `answers`-th answer, or at the
/// first answer past each `period_s` inside the sending window (0 = not
/// by that rule). The loop always marks its start and its end.
struct Slicing {
  std::size_t answers = 0;
  double period_s = 0.0;
};

struct LoopResult {
  /// In send order; index = id number. A deque, so growth never moves
  /// earlier entries in the middle of a timed loop.
  std::deque<Exchange> exchanges;
  double window_s = 0.0;  ///< first send to last answer
  std::vector<Mark> marks;  ///< start, slice boundaries, end
};

/// What `next` returns to ask closed_loop for a barrier.
inline constexpr std::size_t kBarrier = static_cast<std::size_t>(-1);

/// Closed loop: keeps `outstanding` requests in flight, sending the next
/// one only when an answer arrives. Request n carries id "<prefix><n>"
/// and asks for point `next(n)`; sending stops when `next` returns
/// nullopt or, if `seconds` > 0, once that much time has passed. When
/// `next` returns kBarrier, the loop sends nothing more until every sent
/// request is answered, calls `barrier` (which may use the link), and
/// goes on. Returns after every sent request was answered.
/// Throws std::runtime_error when the link dies or an answer cannot be
/// matched to a request.
[[nodiscard]] LoopResult closed_loop(
    wtam::serve::WorkerLink& link, int outstanding, double seconds,
    const Slicing& slicing, const std::string& id_prefix,
    const std::function<std::optional<std::size_t>(std::size_t)>& next,
    const std::function<std::string(std::size_t point, const std::string& id)>&
        line_for,
    const std::function<void()>& barrier = {});

}  // namespace perfbench
