// wtam_serve — long-running wrapper/TAM co-optimization service.
//
// Speaks newline-delimited JSON (NDJSON): one request per input line,
// one response object per output line, on either transport:
//   * stdin/stdout (the default) — one client, the process's pipes;
//   * --listen HOST:PORT — a TCP server; every connected client speaks
//     the same protocol concurrently against one shared service (one
//     solver, one cache, one admission-controlled pool).
// The job schema is exactly the batch wire format (src/api/job_io.hpp),
// so anything that can write a jobs file can talk to the server:
//
//   {"id": "a", "soc": "d695", "width": 32, "backend": "rectpack"}
//   {"id": "b", "soc": "d695", "width": 16, "width_max": 24}
//   {"op": "stats"}
//   {"op": "shutdown"}
//
// Jobs execute concurrently on a worker pool and results are written
// *as they complete* — possibly out of submission order; the request
// `id` is echoed into every result so callers correlate. Every result
// carries `cache: hit|miss|bypass` (the memoizing ResultCache is on by
// default; an identical resubmission is served byte-identically without
// running an engine). Control verbs (src/serve/service.hpp implements
// them; full semantics documented there):
//   ping         — liveness probe, answered inline even under load;
//                  echoes "seq" (the router's health checks use this)
//   stats        — job counters + cache counters, one consistent snapshot
//   metrics      — full MetricsRegistry snapshot ({"drain": true} waits
//                  for in-flight jobs; {"format": "prometheus"} returns
//                  the text exposition in a "body" string field)
//   cache_clear  — drop every cached entry; ack carries the PRE-clear
//                  counters
//   cache_save   — snapshot the cache to {"path": ...} (default: the
//                  --cache-file path)
//   shutdown     — stop reading, drain in-flight jobs, save the cache
//                  (when --cache-file is set), ack, exit 0. Over TCP
//                  this stops the whole server, not just the client.
// EOF on stdin behaves like shutdown (without the ack line); EOF from a
// TCP client just ends that client. SIGTERM/SIGINT drain and save the
// cache before exiting, so kill-based orchestration keeps the warmth.
//
// Options:
//   --listen H:P     serve TCP clients on H:P instead of stdin/stdout
//                    (port 0 = kernel-assigned; see --port-file)
//   --port-file P    write the actually-bound host:port to P once
//                    listening (how scripts use --listen 127.0.0.1:0)
//   --threads N      concurrent jobs (default 0 = one per hardware thread)
//   --cache-mb M     cache byte budget in MiB (default 64; 0 disables)
//   --no-cache       disable the result cache
//   --cache-file P   warm-boot persistence: load the snapshot at P on
//                    start (missing file = cold start; torn tail = load
//                    the valid prefix; wrong version = refuse the file
//                    and start cold, loudly) and save back to P on
//                    shutdown/EOF/SIGTERM after the drain
//   --queue-limit N  admission control: when more than N accepted jobs
//                    are waiting for a worker, new jobs are shed with
//                    status "overloaded" instead of queued (0 = never
//                    shed, the default)
//   --timing         include cpu_s/wall_s in results (off by default so
//                    responses are byte-identical across runs)
//   --trace          include per-solve stage spans (`trace` array) in
//                    results — opt-in execution provenance like --timing
//   --quiet          no startup banner on stderr
//
// Exit status: 0 on clean shutdown/EOF/signal, 1 when --listen cannot
// bind, 2 on usage errors. Malformed request lines are answered with an
// {"error": ...} object (the id is echoed when one can be salvaged) and
// the server keeps serving — a bad client must not take the service
// down. A line longer than common::kMaxLineBytes gets the same error
// on stdin and TCP, and the stream resyncs at the next newline.

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "common/line_framer.hpp"
#include "common/thread_annotations.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"
#include "serve/service.hpp"

namespace {

using namespace wtam;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: wtam_serve [--listen HOST:PORT] [--port-file PATH]\n"
               "                  [--threads N] [--cache-mb M] [--no-cache]\n"
               "                  [--cache-file PATH] [--queue-limit N]\n"
               "                  [--timing] [--trace] [--quiet]\n"
               "NDJSON protocol on stdin/stdout (or TCP with --listen); "
               "see README (wtam_serve).\n";
  std::exit(2);
}

/// Serializes stdout response lines: results may complete on any pool
/// worker, but each NDJSON line must hit stdout whole and be flushed
/// (callers block on our output).
class StdoutWriter {
 public:
  void write(const std::string& line) {
    const common::MutexLock lock(mutex_);
    std::cout << line << '\n' << std::flush;
  }

 private:
  common::Mutex mutex_;
};

// SIGTERM/SIGINT land here: the self-pipe trick. The handler does the
// only async-signal-safe thing — writes one byte — and the transport
// loops treat that byte as "stop accepting, drain, save, exit", so a
// kill-based orchestrator gets the same warm cache a clean shutdown
// leaves behind. Installed WITHOUT SA_RESTART so a blocked stdin poll
// returns instead of silently resuming.
int g_signal_pipe[2] = {-1, -1};

extern "C" void handle_stop_signal(int) {
  const char byte = 's';
  const ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

void install_signal_handlers() {
  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "wtam_serve: signal pipe failed; running without "
                 "drain-on-signal\n";
    return;
  }
  struct sigaction action = {};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: interrupted reads must return
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

/// Tracks live TCP connections so shutdown (verb or signal) can sever
/// every client and unblock their reader threads.
class ConnectionRegistry {
 public:
  void add(std::uint64_t id, std::shared_ptr<net::Connection> connection) {
    const common::MutexLock lock(mutex_);
    connections_.emplace(id, std::move(connection));
  }

  void remove(std::uint64_t id) {
    const common::MutexLock lock(mutex_);
    connections_.erase(id);
  }

  void sever_all() {
    std::vector<std::shared_ptr<net::Connection>> victims;
    {
      const common::MutexLock lock(mutex_);
      victims.reserve(connections_.size());
      for (auto& [id, connection] : connections_)
        victims.push_back(connection);
      connections_.clear();
    }
    for (const auto& connection : victims) connection->shutdown_both();
  }

 private:
  common::Mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<net::Connection>>
      connections_ WTAM_GUARDED_BY(mutex_);
};

/// The one dispatch loop, for stdin and every TCP client. Returns true
/// when a shutdown verb ended the stream (drained, saved and acked
/// inside the verb), false on EOF or a stop signal.
bool pump(serve::Service& service, common::LineFramer& framer,
          const serve::Service::Sink& sink) {
  std::string line;
  for (;;) {
    switch (framer.read_line(line)) {
      case common::LineFramer::Status::Line:
        if (service.handle_line(line, framer.line_number(), sink) ==
            serve::Service::Action::Shutdown)
          return true;
        continue;
      case common::LineFramer::Status::TooLong:
        service.reject_line(framer.line_number(), sink);
        continue;
      case common::LineFramer::Status::Eof:
      case common::LineFramer::Status::Stopped:
        return false;
    }
  }
}

/// The stdin/stdout transport; the signal self-pipe is the framer's
/// stop fd. Returns the process exit status.
int run_stdio(serve::Service& service) {
  StdoutWriter out;
  const serve::Service::Sink sink = [&out](const std::string& line) {
    out.write(line);
  };
  common::LineFramer input(STDIN_FILENO, g_signal_pipe[0]);
  // EOF or signal: drain and exit like a silent shutdown (cache saved
  // the same).
  if (!pump(service, input, sink)) service.drain_and_save();
  return 0;
}

/// The TCP transport: accept loop + one reader thread per client, all
/// sharing one Service. A client's `shutdown` verb (or SIGTERM/SIGINT)
/// stops the listener, severs every client, drains, and saves.
int run_listen(serve::Service& service, const net::Endpoint& endpoint,
               const std::string& port_file, bool quiet) {
  std::unique_ptr<net::Listener> listener;
  try {
    listener = std::make_unique<net::Listener>(endpoint);
  } catch (const std::exception& e) {
    std::cerr << "wtam_serve: " << e.what() << "\n";
    return 1;
  }

  if (!port_file.empty()) {
    // tmp + rename: pollers waiting on the file never read a torn
    // endpoint.
    const std::string tmp = port_file + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    out << listener->local_endpoint().to_string() << "\n";
    out.close();
    if (!out || std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      std::cerr << "wtam_serve: cannot write --port-file " << port_file
                << "\n";
      return 1;
    }
  }
  if (!quiet)
    std::cerr << "wtam_serve: listening on "
              << listener->local_endpoint().to_string() << " ("
              << service.workers() << " workers, cache "
              << (service.cache_enabled()
                      ? std::to_string(service.cache_mb()) + " MiB"
                      : std::string("off"))
              << ")\n";

  ConnectionRegistry registry;
  std::atomic<bool> stopping{false};

  // Signal watcher: SIGTERM/SIGINT (via the self-pipe) stop the accept
  // loop; the main thread then severs clients, drains, and saves. The
  // main thread wakes this watcher with its own byte on clean exits.
  std::thread signal_watcher;
  if (g_signal_pipe[0] >= 0)
    signal_watcher = std::thread([&listener] {
      char byte = 0;
      ssize_t n = 0;
      do {
        n = ::read(g_signal_pipe[0], &byte, 1);
      } while (n < 0 && errno == EINTR);
      listener->stop();
    });

  std::vector<std::thread> readers;
  std::uint64_t next_id = 0;
  while (std::unique_ptr<net::Connection> accepted = listener->accept()) {
    const std::uint64_t id = ++next_id;
    std::shared_ptr<net::Connection> connection(std::move(accepted));
    registry.add(id, connection);
    readers.push_back(std::thread([&service, &registry, &listener, &stopping,
                                   connection, id] {
      // The sink holds the connection alive until its last in-flight
      // job has written its response; writes after a disconnect fail
      // silently inside the transport.
      const serve::Service::Sink sink =
          [connection](const std::string& line) {
            (void)connection->write_line(line);
          };
      if (pump(service, connection->framer(), sink)) {
        // Drained and saved; now stop the world. The ack already
        // reached this client.
        stopping.store(true);
        listener->stop();
        registry.sever_all();
      } else {
        // Client hung up: just this client ends. In-flight jobs still
        // complete (their writes land on the dead socket and are
        // dropped).
        registry.remove(id);
      }
    }));
  }

  // Accept loop ended: a signal or a shutdown verb. Sever any remaining
  // clients so their readers unblock, then join and drain.
  registry.sever_all();
  for (std::thread& reader : readers) reader.join();
  if (signal_watcher.joinable()) {
    const char byte = 'q';
    const ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
    (void)ignored;
    signal_watcher.join();
  }
  if (!stopping.load()) service.drain_and_save();  // signal path
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServiceOptions options;
  options.threads = 0;  // server default: use the hardware
  std::string listen;
  std::string port_file;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--listen") {
      listen = value();
      try {
        (void)net::parse_endpoint(listen);  // fail at flag-parse time
      } catch (const std::exception& e) {
        usage(e.what());
      }
    } else if (arg == "--port-file") {
      port_file = value();
      if (port_file.empty()) usage("--port-file needs a non-empty path");
    } else if (arg == "--threads") {
      options.threads = std::atoi(value());
      if (options.threads < 0)
        usage("--threads must be >= 0 (0 = hardware threads)");
    } else if (arg == "--cache-mb") {
      const int mb = std::atoi(value());
      if (mb < 0) usage("--cache-mb must be >= 0 (0 disables the cache)");
      options.cache_mb = static_cast<std::size_t>(mb);
      options.use_cache = mb > 0;
    } else if (arg == "--no-cache") {
      options.use_cache = false;
    } else if (arg == "--cache-file") {
      options.cache_file = value();
      if (options.cache_file.empty())
        usage("--cache-file needs a non-empty path");
    } else if (arg == "--queue-limit") {
      const int limit = std::atoi(value());
      if (limit < 0) usage("--queue-limit must be >= 0 (0 = never shed)");
      options.queue_limit = static_cast<std::uint64_t>(limit);
    } else if (arg == "--timing") {
      options.timing = true;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!options.use_cache && !options.cache_file.empty())
    usage("--cache-file needs the cache (drop --no-cache / --cache-mb 0)");
  if (listen.empty() && !port_file.empty())
    usage("--port-file only makes sense with --listen");

  install_signal_handlers();

  serve::Service service(std::move(options),
                         [quiet](const std::string& message) {
                           if (!quiet)
                             std::cerr << "wtam_serve: " << message << "\n";
                         });

  if (!listen.empty())
    return run_listen(service, net::parse_endpoint(listen), port_file, quiet);

  if (!quiet)
    std::cerr << "wtam_serve: ready (" << service.workers()
              << " workers, cache "
              << (service.cache_enabled()
                      ? std::to_string(service.cache_mb()) + " MiB"
                      : std::string("off"))
              << "); one JSON request per line, {\"op\": \"shutdown\"} to "
                 "stop\n";
  return run_stdio(service);
}
