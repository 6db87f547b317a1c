// The wtam_serve request service, factored out of the tool so one
// implementation answers every transport.
//
// PR 8's server was a stdin/stdout loop with the protocol logic inlined;
// the multi-host tier needs the same verbs and the same admission
// control on TCP connections too (`wtam_serve --listen`), where many
// clients talk concurrently. Service is that shared core: it owns the
// solver, worker pool, result cache (with --cache-file warm boot /
// save), and job accounting, and processes one request line at a time
// against a caller-supplied sink. The tool keeps what is genuinely
// per-transport: reading lines, building a sink per client, and deciding
// what EOF means (stdin EOF drains the service; a socket client's EOF
// just ends that client).
//
// Threading: handle_line may be called concurrently from multiple
// transport threads (one per socket client). Verbs run inline on the
// calling thread; jobs run on the shared pool and their results go to
// the sink that submitted them. Sinks must therefore be thread-safe and
// must tolerate outliving their client (a write after disconnect is
// dropped by the transport, not an error here). The `shutdown` verb
// drains the whole service — every client's in-flight jobs — before
// acking, and Action::Shutdown tells the transport to stop the world.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "api/job_io.hpp"
#include "api/json_value.hpp"
#include "api/result_cache.hpp"
#include "api/solver.hpp"
#include "common/thread_pool.hpp"

namespace wtam::serve {

struct ServiceOptions {
  int threads = 0;  ///< worker pool size; 0 = one per hardware thread
  std::size_t cache_mb = 64;
  bool use_cache = true;
  /// Warm-boot persistence: loaded in the constructor (missing file =
  /// cold start, wrong version = refused loudly via diag), saved by
  /// drain_and_save and the shutdown verb.
  std::string cache_file;
  std::uint64_t queue_limit = 0;  ///< admission control; 0 = never shed
  bool timing = false;
  bool trace = false;
};

class Service {
 public:
  /// Receives one complete response line (no trailing newline). Called
  /// from handle_line's thread and from pool workers, possibly
  /// concurrently — implementations serialize internally.
  using Sink = std::function<void(const std::string&)>;
  /// Human-readable operational notices (warm boot, failed saves); the
  /// tool routes these to stderr. May be empty.
  using Diag = std::function<void(const std::string&)>;

  /// What the transport should do after a line.
  enum class Action {
    Continue,  ///< keep reading
    Shutdown,  ///< shutdown verb fully processed (drained, saved, acked)
  };

  /// Builds the solver/cache/pool and performs the warm boot.
  explicit Service(ServiceOptions options, Diag diag = {});

  /// Joins the pool (any still-running jobs finish and their sinks are
  /// invoked). Call drain_and_save first on clean exits.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Processes one request line. `line_number` is the caller's per-
  /// stream counter, echoed in parse-error messages. Thread-safe.
  [[nodiscard]] Action handle_line(const std::string& line,
                                   std::uint64_t line_number,
                                   const Sink& sink);

  /// Answers a frame the transport dropped for exceeding the line-length
  /// bound. Thread-safe.
  void reject_line(std::uint64_t line_number, const Sink& sink);

  /// The EOF / signal path: blocks until no job is in flight, then saves
  /// the cache file (when configured). Emits no ack line. Idempotent.
  void drain_and_save();

  [[nodiscard]] int workers() const noexcept { return workers_; }
  [[nodiscard]] bool cache_enabled() const noexcept {
    return cache_ != nullptr;
  }
  [[nodiscard]] std::size_t cache_mb() const noexcept {
    return options_.cache_mb;
  }

 private:
  class Accounting;

  void note(const std::string& message);
  void save_cache();
  void write_error(const Sink& sink, const std::string& id,
                   const std::string& message);
  /// Handles a parsed control verb; returns the action for the caller.
  [[nodiscard]] Action handle_op(const api::JsonValue& value,
                                 const std::string& verb,
                                 std::uint64_t line_number, const Sink& sink);
  void submit_job(api::SolveRequest request, std::uint64_t job_number,
                  const Sink& sink);

  ServiceOptions options_;
  Diag diag_;
  std::shared_ptr<api::ResultCache> cache_;
  std::unique_ptr<api::Solver> solver_;
  api::ResultsWriteOptions write_options_;
  std::unique_ptr<Accounting> accounting_;
  int workers_ = 0;
  // Declared last: the pool's joining destructor must run before any
  // state its workers reference is torn down.
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace wtam::serve
