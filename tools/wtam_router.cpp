// wtam_router — shard router fronting a fleet of wtam_serve workers.
//
// Speaks the same NDJSON protocol as wtam_serve on stdin/stdout, so any
// wtam_serve client can point at the router unchanged. Stdin and every
// worker channel read through common::LineFramer: a client line longer
// than common::kMaxLineBytes is answered with a "router: " error and
// never forwarded, and an oversized worker frame is skipped. Workers are
// local subprocesses (spawned from --serve) and/or remote `wtam_serve
// --listen` endpoints (--worker host:port), mixed freely in one fleet.
// Jobs shard by cache identity (the job's first RequestKey hashes to a
// worker), so resubmissions land on the worker that cached them;
// responses come back as workers finish (possibly out of submission
// order) with the client's ids restored. Workers that die are respawned
// (local) or reconnected with backoff (remote) and their in-flight jobs
// replayed — at-least-once delivery over idempotent solves, so the
// client still sees exactly one response per job. With --ping-interval,
// a health thread also catches hung-but-not-exited workers: a missed
// pong severs the worker, which recovers through the same replay path.
//
// Control verbs fan out to every worker and the acks merge (numbers
// sum, "ok" ANDs; merged stats/metrics add the router's own counters
// as a "router" section / serve.router.* names; {"op": "metrics",
// "format": "prometheus"} renders the merged snapshot as Prometheus
// text in a "body" field). Router-specific verbs:
//   {"op": "ping"}                      — router liveness (answers
//                                         itself, echoes "seq")
//   {"op": "kill_worker", "worker": i}  — sever worker i (crash-
//                                         recovery test hook; acks
//                                         after the respawn completes)
//   {"op": "resize", "workers": M}      — hot re-shard: drain, stop the
//                                         old fleet, re-hash every
//                                         persisted cache entry to its
//                                         new owner's P.w<i> snapshot,
//                                         boot M workers
//   {"op": "shutdown"}                  — drain the fleet, merged ack,
//                                         exit 0; EOF = same, no ack
//
// Options:
//   --workers N        local fleet size (default 2 when no --worker
//                      endpoints are given, else 0)
//   --worker HOST:PORT remote worker endpoint (repeatable); remote
//                      workers fill the first slots, locals follow
//   --serve PATH       wtam_serve binary (default: next to this binary,
//                      falling back to PATH lookup)
//   --queue-limit N    per-worker in-flight cap: jobs beyond it are shed
//                      with status "overloaded" (0 = never shed)
//   --cache-file P     per-LOCAL-worker warm-boot persistence: local
//                      worker i loads/saves P.w<i> (sharding keys by
//                      worker keeps each file disjoint, so save/load
//                      round-trips the fleet); resize re-shards these
//   --ping-interval MS health-check cadence (0 = off, the default)
//   --ping-deadline MS missed-pong threshold (default 2000)
//   --worker-threads N forwarded to each local worker as --threads
//   --cache-mb M       forwarded to each local worker
//   --no-cache         forwarded to each local worker
//   --timing / --trace forwarded to each local worker
//   --quiet            no banner, no respawn notices on stderr
//
// Exit status: 0 on clean shutdown/EOF, 1 when the fleet cannot boot,
// 2 on usage errors.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/line_framer.hpp"
#include "net/endpoint.hpp"
#include "serve/router.hpp"

namespace {

using namespace wtam;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: wtam_router [--workers N] [--worker HOST:PORT]...\n"
         "                   [--serve PATH] [--queue-limit N]\n"
         "                   [--cache-file PATH] [--ping-interval MS]\n"
         "                   [--ping-deadline MS] [--worker-threads N]\n"
         "                   [--cache-mb M] [--no-cache] [--timing] "
         "[--trace]\n"
         "                   [--quiet]\n"
         "NDJSON protocol on stdin/stdout; see README (Fleet serving).\n";
  std::exit(2);
}

/// Default worker binary: wtam_serve next to this executable (the
/// normal build-tree layout), else bare "wtam_serve" for PATH lookup.
std::string default_serve_path(const char* argv0) {
  const std::string self = argv0;
  const std::size_t slash = self.find_last_of('/');
  if (slash == std::string::npos) return "wtam_serve";
  return self.substr(0, slash + 1) + "wtam_serve";
}

}  // namespace

int main(int argc, char** argv) {
  int workers = -1;  // -1 = default (2 local, or 0 once --worker is given)
  std::vector<std::string> endpoints;
  std::string serve_path;
  std::string cache_file;
  std::uint64_t queue_limit = 0;
  int ping_interval_ms = 0;
  int ping_deadline_ms = 2000;
  int worker_threads = 0;
  int cache_mb = -1;  // -1 = worker default
  bool no_cache = false;
  bool timing = false;
  bool trace = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workers") {
      workers = std::atoi(value());
      if (workers < 0) usage("--workers must be >= 0");
    } else if (arg == "--worker") {
      const std::string endpoint = value();
      try {
        (void)net::parse_endpoint(endpoint);  // fail at flag-parse time
      } catch (const std::exception& e) {
        usage(e.what());
      }
      endpoints.push_back(endpoint);
    } else if (arg == "--serve") {
      serve_path = value();
      if (serve_path.empty()) usage("--serve needs a non-empty path");
    } else if (arg == "--queue-limit") {
      const int limit = std::atoi(value());
      if (limit < 0) usage("--queue-limit must be >= 0 (0 = never shed)");
      queue_limit = static_cast<std::uint64_t>(limit);
    } else if (arg == "--cache-file") {
      cache_file = value();
      if (cache_file.empty()) usage("--cache-file needs a non-empty path");
    } else if (arg == "--ping-interval") {
      ping_interval_ms = std::atoi(value());
      if (ping_interval_ms < 0) usage("--ping-interval must be >= 0 (0 = off)");
    } else if (arg == "--ping-deadline") {
      ping_deadline_ms = std::atoi(value());
      if (ping_deadline_ms < 1) usage("--ping-deadline must be >= 1");
    } else if (arg == "--worker-threads") {
      worker_threads = std::atoi(value());
      if (worker_threads < 0) usage("--worker-threads must be >= 0");
    } else if (arg == "--cache-mb") {
      cache_mb = std::atoi(value());
      if (cache_mb < 0) usage("--cache-mb must be >= 0");
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (workers < 0) workers = endpoints.empty() ? 2 : 0;
  if (workers == 0 && endpoints.empty())
    usage("the fleet needs at least one worker (--workers or --worker)");
  if (serve_path.empty()) serve_path = default_serve_path(argv[0]);

  // Fleet composition for a given size, used both for the initial boot
  // and for the resize verb: remote endpoints pin the first slots (a
  // resize cannot conjure new hosts, so they persist across sizes as
  // long as M covers them), local workers fill the rest. Local worker
  // slot w gets the disjoint snapshot P.w<w> — sharding pins each key
  // to one worker, so the P.w* files partition the fleet's cache and
  // resize can re-deal them.
  const auto fleet_factory =
      [endpoints, serve_path, worker_threads, cache_mb, no_cache, cache_file,
       timing, trace](std::size_t count) {
        if (count < endpoints.size())
          throw std::runtime_error(
              "cannot shrink below the " + std::to_string(endpoints.size()) +
              " remote worker(s) pinned by --worker");
        std::vector<serve::WorkerSpec> specs;
        specs.reserve(count);
        for (const std::string& endpoint : endpoints)
          specs.push_back(serve::WorkerSpec::connect(endpoint));
        for (std::size_t w = specs.size(); w < count; ++w) {
          std::vector<std::string> command = {serve_path, "--quiet"};
          if (worker_threads > 0) {
            command.push_back("--threads");
            command.push_back(std::to_string(worker_threads));
          }
          if (cache_mb >= 0) {
            command.push_back("--cache-mb");
            command.push_back(std::to_string(cache_mb));
          }
          if (no_cache) command.push_back("--no-cache");
          std::string snapshot;
          if (!cache_file.empty()) {
            snapshot = cache_file + ".w" + std::to_string(w);
            command.push_back("--cache-file");
            command.push_back(snapshot);
          }
          if (timing) command.push_back("--timing");
          if (trace) command.push_back("--trace");
          specs.push_back(
              serve::WorkerSpec::local(std::move(command), std::move(snapshot)));
        }
        return specs;
      };

  serve::RouterOptions options;
  options.queue_limit = queue_limit;
  options.ping_interval = std::chrono::milliseconds(ping_interval_ms);
  options.ping_deadline = std::chrono::milliseconds(ping_deadline_ms);
  options.workers =
      fleet_factory(endpoints.size() + static_cast<std::size_t>(workers));
  options.fleet_factory = fleet_factory;

  // The router serializes sink calls, so plain cout is line-safe here.
  const auto sink = [](const std::string& line) {
    std::cout << line << '\n' << std::flush;
  };
  const auto diag = [quiet](const std::string& message) {
    if (!quiet) std::cerr << "wtam_router: " << message << "\n";
  };

  try {
    serve::Router router(std::move(options), sink, diag);
    if (!quiet)
      std::cerr << "wtam_router: ready (" << router.workers() << " workers: "
                << endpoints.size() << " remote, " << workers << " local via "
                << serve_path
                << "); one JSON request per line, {\"op\": \"shutdown\"} "
                   "to stop\n";
    common::LineFramer input(STDIN_FILENO);
    for (std::string line;;) {
      const common::LineFramer::Status status = input.read_line(line);
      if (status == common::LineFramer::Status::TooLong)
        router.reject_line(common::too_long_message(input.line_number()));
      else if (status != common::LineFramer::Status::Line)
        break;
      else if (!line.empty() && !router.handle_line(line))
        return 0;
    }
    router.shutdown();  // EOF: drain the fleet silently
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "wtam_router: fleet failed to start: " << e.what() << "\n";
    return 1;
  }
}
