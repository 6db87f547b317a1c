#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "api/cache_store.hpp"
#include "common/line_framer.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_json.hpp"

namespace wtam::serve {

namespace {

using namespace wtam;

api::JsonValue error_response(const std::string& id,
                              const std::string& message) {
  api::JsonValue response = api::JsonValue::object();
  if (!id.empty()) response.set("id", api::JsonValue::string(id));
  response.set("error", api::JsonValue::string(message));
  return response;
}

/// Best-effort id extraction from a parsed request that failed later
/// validation, so the client can still correlate the error response.
std::string salvage_id(const api::JsonValue& value) {
  if (const api::JsonValue* id = value.find("id"))
    if (id->kind() == api::JsonValue::Kind::String) return id->as_string();
  return {};
}

void set_count(api::JsonValue& object, const char* key, std::uint64_t count) {
  object.set(key, api::JsonValue::number(static_cast<std::int64_t>(count)));
}

api::JsonValue cache_stats_json(const api::ResultCacheStats& stats,
                                bool include_max_bytes) {
  api::JsonValue cache_json = api::JsonValue::object();
  set_count(cache_json, "hits", stats.hits);
  set_count(cache_json, "misses", stats.misses);
  set_count(cache_json, "coalesced", stats.coalesced);
  set_count(cache_json, "insertions", stats.insertions);
  set_count(cache_json, "evictions", stats.evictions);
  set_count(cache_json, "entries", stats.entries);
  set_count(cache_json, "bytes", stats.bytes);
  if (include_max_bytes) set_count(cache_json, "max_bytes", stats.max_bytes);
  return cache_json;
}

}  // namespace

/// Job accounting shared between transport threads and the worker pool.
/// Every field sits under one mutex so `stats` reads one consistent
/// snapshot (accepted/completed/pending can never be observed torn) and
/// the drain wait observes the same counters the workers update.
class Service::Accounting {
 public:
  struct Snapshot {
    std::uint64_t accepted = 0;
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t errors = 0;
    std::uint64_t shed = 0;
    std::size_t pending = 0;

    /// Jobs a worker is executing right now.
    [[nodiscard]] std::uint64_t running() const noexcept {
      return started - completed;
    }
    /// Jobs accepted but still waiting for a worker.
    [[nodiscard]] std::uint64_t queue_depth() const noexcept {
      return accepted - started;
    }
  };

  /// Admission control: accepts the job only when fewer than `limit`
  /// jobs are queued (limit 0 = unlimited). The depth check and the
  /// accept are one critical section, so concurrent transport threads
  /// can never overshoot the limit between checking and counting.
  /// Returns the 1-based accept number (used to synthesize ids), or 0
  /// when the job was shed.
  [[nodiscard]] std::uint64_t try_accept(std::uint64_t limit) {
    const common::MutexLock lock(mutex_);
    if (limit != 0 && accepted_ - started_ >= limit) {
      ++shed_;
      return 0;
    }
    ++pending_;
    return ++accepted_;
  }

  /// Marks one job picked up by a worker (running = started - completed).
  void job_started() {
    const common::MutexLock lock(mutex_);
    ++started_;
  }

  /// Marks one job finished and wakes the drain waiter when idle.
  void job_completed() {
    const common::MutexLock lock(mutex_);
    --pending_;
    ++completed_;
    if (pending_ == 0) drained_.notify_all();
  }

  /// Counts one per-line error response (malformed JSON, bad op, bad
  /// job).
  void error_recorded() {
    const common::MutexLock lock(mutex_);
    ++errors_;
  }

  /// Blocks until no job is in flight; returns the counters as observed
  /// in that same critical section (the shutdown ack reports `completed`
  /// from here rather than re-reading it unlocked later).
  [[nodiscard]] Snapshot wait_for_drain() {
    const common::MutexLock lock(mutex_);
    while (pending_ != 0) drained_.wait(mutex_);
    return snapshot_locked();
  }

  [[nodiscard]] Snapshot snapshot() const {
    const common::MutexLock lock(mutex_);
    return snapshot_locked();
  }

 private:
  [[nodiscard]] Snapshot snapshot_locked() const WTAM_REQUIRES(mutex_) {
    Snapshot snapshot;
    snapshot.accepted = accepted_;
    snapshot.started = started_;
    snapshot.completed = completed_;
    snapshot.errors = errors_;
    snapshot.shed = shed_;
    snapshot.pending = pending_;
    return snapshot;
  }

  mutable common::Mutex mutex_;
  common::CondVar drained_;
  std::size_t pending_ WTAM_GUARDED_BY(mutex_) = 0;
  std::uint64_t accepted_ WTAM_GUARDED_BY(mutex_) = 0;
  std::uint64_t started_ WTAM_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ WTAM_GUARDED_BY(mutex_) = 0;
  std::uint64_t errors_ WTAM_GUARDED_BY(mutex_) = 0;
  std::uint64_t shed_ WTAM_GUARDED_BY(mutex_) = 0;
};

Service::Service(ServiceOptions options, Diag diag)
    : options_(std::move(options)), diag_(std::move(diag)) {
  if (options_.use_cache && options_.cache_mb > 0) {
    api::ResultCacheOptions cache_options;
    cache_options.max_bytes = options_.cache_mb << 20;
    cache_ = std::make_shared<api::ResultCache>(cache_options);
  }

  // Warm boot: load the snapshot before any job runs, then zero the
  // counters so scrapes only count this process's traffic (the loader's
  // own insertions are bookkeeping, not service history).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  if (cache_ && !options_.cache_file.empty()) {
    try {
      const api::CacheLoadStats loaded =
          api::load_cache_file(*cache_, options_.cache_file);
      registry.counter("serve.persist.loaded_entries")
          .increment(static_cast<std::int64_t>(loaded.entries_loaded));
      registry.counter("serve.persist.rejected_entries")
          .increment(static_cast<std::int64_t>(loaded.entries_rejected));
      if (!loaded.clean_tail)
        registry.counter("serve.persist.torn_tails").increment();
      if (loaded.found)
        note("warm boot from " + options_.cache_file + " (" +
             std::to_string(loaded.entries_loaded) + " entries" +
             (loaded.clean_tail ? "" : ", torn tail truncated") + ")");
    } catch (const std::exception& e) {
      // Version mismatch / unreadable snapshot: refuse the file, start
      // cold, and say so — a stale-format cache must never be trusted,
      // but it must not take the service down either.
      registry.counter("serve.persist.load_failures").increment();
      note(std::string("ignoring cache file: ") + e.what());
    }
    cache_->reset_stats();
  }

  // Each job runs through one shared Solver (single-solve calls are
  // thread-safe; the cache coalesces concurrent identical jobs).
  api::SolverOptions solver_options =
      api::SolverOptions::with_threads(1, cache_);
  solver_options.trace = options_.trace;
  solver_ = std::make_unique<api::Solver>(std::move(solver_options));
  write_options_.include_timing = options_.timing;
  write_options_.include_cache = true;
  write_options_.include_trace = options_.trace;

  accounting_ = std::make_unique<Accounting>();
  workers_ = options_.threads == 0 ? common::ThreadPool::hardware_threads()
                                   : options_.threads;
  pool_ = std::make_unique<common::ThreadPool>(workers_);
}

Service::~Service() = default;

void Service::note(const std::string& message) {
  if (diag_) diag_(message);
}

void Service::save_cache() {
  // A failed save must not turn a clean shutdown into a crash — it is
  // reported and counted.
  if (!cache_ || options_.cache_file.empty()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  try {
    (void)api::save_cache_file(*cache_, options_.cache_file);
    registry.counter("serve.persist.saves").increment();
  } catch (const std::exception& e) {
    registry.counter("serve.persist.save_failures").increment();
    note(std::string("cache save failed: ") + e.what());
  }
}

void Service::drain_and_save() {
  (void)accounting_->wait_for_drain();
  save_cache();
}

void Service::write_error(const Sink& sink, const std::string& id,
                          const std::string& message) {
  accounting_->error_recorded();
  obs::MetricsRegistry::instance().counter("serve.errors").increment();
  sink(error_response(id, message).dump_compact_string());
}

void Service::reject_line(std::uint64_t line_number, const Sink& sink) {
  write_error(sink, {}, common::too_long_message(line_number));
}

Service::Action Service::handle_line(const std::string& line,
                                     std::uint64_t line_number,
                                     const Sink& sink) {
  if (line.empty()) return Action::Continue;

  // Each line is parsed exactly once; control verbs run inline on the
  // transport thread, jobs go to the pool so the transport keeps
  // accepting while engines run.
  api::JsonValue value;
  try {
    value = api::JsonValue::parse(line);
  } catch (const std::exception& e) {
    write_error(sink, {},
                "line " + std::to_string(line_number) + ": " + e.what());
    return Action::Continue;
  }

  if (const api::JsonValue* op = value.find("op")) {
    try {
      return handle_op(value, op->as_string(), line_number, sink);
    } catch (const std::exception& e) {
      write_error(sink, salvage_id(value),
                  "line " + std::to_string(line_number) + ": " + e.what());
      return Action::Continue;
    }
  }

  api::SolveRequest request;
  try {
    request = api::job_from_json(value);
  } catch (const std::exception& e) {
    write_error(sink, salvage_id(value),
                "line " + std::to_string(line_number) + ": " + e.what());
    return Action::Continue;
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  const std::uint64_t job_number =
      accounting_->try_accept(options_.queue_limit);
  if (job_number == 0) {
    // Admission control: the queue is at its limit — shed instead of
    // stalling. The response is a result line (status "overloaded"), not
    // an error object: the job was well-formed, the service just
    // declined it right now. Fixed text keeps shed responses
    // byte-deterministic.
    registry.counter("serve.jobs_shed").increment();
    api::JsonValue response = api::JsonValue::object();
    if (!request.id.empty())
      response.set("id", api::JsonValue::string(request.id));
    response.set("status",
                 api::JsonValue::string(
                     std::string(api::to_string(api::Status::Overloaded))));
    response.set("error",
                 api::JsonValue::string(
                     "queue limit reached; job shed — retry later"));
    sink(response.dump_compact_string());
    return Action::Continue;
  }
  registry.counter("serve.jobs_accepted").increment();
  if (request.id.empty()) request.id = "job-" + std::to_string(job_number);
  submit_job(std::move(request), job_number, sink);
  return Action::Continue;
}

void Service::submit_job(api::SolveRequest request, std::uint64_t /*number*/,
                         const Sink& sink) {
  pool_->submit([this, request = std::move(request), sink,
                 queued = common::Stopwatch()] {
    accounting_->job_started();
    const std::int64_t queue_ns = queued.elapsed_ns();  // accept -> pickup
    // Solver::solve never throws: every failure mode is a Status.
    api::SolveResult result = solver_->solve(request);
    if (options_.trace) {
      // The solver timed its own (empty) queue: overwrite with the
      // accept-to-execution wait this server actually imposed, so the
      // echoed trace shows real queueing under load.
      for (auto& span : result.trace)
        if (span.stage == "queue-wait") {
          span.duration_ns = queue_ns;
          break;
        }
    }
    // Readers frame this stream with the same bound, so an answer past
    // it (an echoed tag is enough) becomes an error line.
    const std::string line =
        api::result_to_json(result, write_options_).dump_compact_string();
    if (line.size() > common::kMaxLineBytes)
      write_error(sink, request.id,
                  "answer exceeds the line-length bound of " +
                      std::to_string(common::kMaxLineBytes) + " bytes");
    else
      sink(line);
    obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
    registry.histogram("serve.job_ns").record_ns(queued.elapsed_ns());
    registry.counter("serve.jobs_completed").increment();
    accounting_->job_completed();
  });
}

Service::Action Service::handle_op(const api::JsonValue& value,
                                   const std::string& verb,
                                   std::uint64_t line_number,
                                   const Sink& sink) {
  (void)line_number;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();

  if (verb == "ping") {
    // Liveness probe: answered inline on the transport thread, never
    // queued behind jobs, so a busy-but-healthy worker still pongs
    // within the router's deadline. Echoes "seq" for correlation.
    api::JsonValue response = api::JsonValue::object();
    response.set("op", api::JsonValue::string("ping"));
    response.set("ok", api::JsonValue::boolean(true));
    if (const api::JsonValue* seq = value.find("seq"))
      if (seq->kind() == api::JsonValue::Kind::Int)
        response.set("seq", api::JsonValue::number(seq->as_int()));
    sink(response.dump_compact_string());
    return Action::Continue;
  }

  if (verb == "shutdown") {
    const Accounting::Snapshot drained = accounting_->wait_for_drain();
    save_cache();
    api::JsonValue response = api::JsonValue::object();
    response.set("op", api::JsonValue::string("shutdown"));
    response.set("ok", api::JsonValue::boolean(true));
    response.set("jobs", api::JsonValue::number(
                             static_cast<std::int64_t>(drained.completed)));
    sink(response.dump_compact_string());
    return Action::Shutdown;
  }

  if (verb == "stats") {
    api::JsonValue response = api::JsonValue::object();
    response.set("op", api::JsonValue::string("stats"));
    const Accounting::Snapshot now = accounting_->snapshot();
    set_count(response, "accepted", now.accepted);
    set_count(response, "completed", now.completed);
    set_count(response, "pending", now.pending);
    set_count(response, "errors", now.errors);
    set_count(response, "shed", now.shed);
    set_count(response, "running", now.running());
    set_count(response, "queue_depth", now.queue_depth());
    if (cache_)
      response.set("cache",
                   cache_stats_json(cache_->stats(), /*include_max_bytes=*/true));
    sink(response.dump_compact_string());
    return Action::Continue;
  }

  if (verb == "metrics") {
    bool drain = false;
    if (const api::JsonValue* flag = value.find("drain"))
      drain = flag->as_bool();
    std::string format = "json";
    if (const api::JsonValue* requested = value.find("format"))
      format = requested->as_string();
    if (format != "json" && format != "prometheus") {
      write_error(sink, salvage_id(value),
                  "metrics format must be \"json\" or \"prometheus\"");
      return Action::Continue;
    }
    // drain waits for in-flight jobs first, so a scripted scrape
    // observes deterministic counters (the CI smoke asserts accepted ==
    // completed == jobs submitted).
    const Accounting::Snapshot now =
        drain ? accounting_->wait_for_drain() : accounting_->snapshot();

    // Sync the serve gauges from job accounting, snapshot the process
    // registry, and fold the cache's counters in, so one scrape shows
    // the whole service. Counter/gauge lists are re-sorted so the merged
    // snapshot keeps the registry's deterministic name order.
    registry.gauge("serve.inflight_jobs")
        .set(static_cast<std::int64_t>(now.running()));
    registry.gauge("serve.queue_depth")
        .set(static_cast<std::int64_t>(now.queue_depth()));
    obs::MetricsSnapshot snapshot = registry.snapshot();
    if (cache_) {
      const api::ResultCacheStats stats = cache_->stats();
      const auto counter = [&snapshot](const char* name, std::uint64_t count) {
        snapshot.counters.push_back({name, static_cast<std::int64_t>(count)});
      };
      counter("serve.cache.hits", stats.hits);
      counter("serve.cache.misses", stats.misses);
      counter("serve.cache.coalesced", stats.coalesced);
      counter("serve.cache.insertions", stats.insertions);
      counter("serve.cache.evictions", stats.evictions);
      const auto gauge = [&snapshot](const char* name, std::uint64_t count) {
        snapshot.gauges.push_back({name, static_cast<std::int64_t>(count)});
      };
      gauge("serve.cache.entries", stats.entries);
      gauge("serve.cache.bytes", stats.bytes);
      gauge("serve.cache.max_bytes", stats.max_bytes);
      const auto by_name = [](const auto& a, const auto& b) {
        return a.name < b.name;
      };
      std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
      std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
    }

    api::JsonValue response = api::JsonValue::object();
    response.set("op", api::JsonValue::string("metrics"));
    if (format == "prometheus") {
      response.set("format", api::JsonValue::string("prometheus"));
      response.set("body",
                   api::JsonValue::string(obs::to_prometheus(snapshot)));
    } else {
      // Materialized first: members() returns a reference into the
      // document, which must outlive the loop.
      const api::JsonValue sections = obs::metrics_to_json(snapshot);
      for (const auto& [section, content] : sections.members())
        response.set(section, content);
    }
    sink(response.dump_compact_string());
    return Action::Continue;
  }

  if (verb == "cache_clear") {
    api::JsonValue response = api::JsonValue::object();
    response.set("op", api::JsonValue::string("cache_clear"));
    response.set("ok", api::JsonValue::boolean(cache_ != nullptr));
    if (cache_) {
      // The ack carries the PRE-clear counters: the last consistent look
      // at the epoch being discarded. After the ack, both the entries
      // and the counters read from zero.
      response.set("cache", cache_stats_json(cache_->stats(),
                                             /*include_max_bytes=*/false));
      cache_->clear();
      cache_->reset_stats();
    }
    sink(response.dump_compact_string());
    return Action::Continue;
  }

  if (verb == "cache_save") {
    std::string path = options_.cache_file;
    if (const api::JsonValue* requested = value.find("path"))
      path = requested->as_string();
    if (!cache_) {
      write_error(sink, salvage_id(value), "cache_save: the cache is off");
      return Action::Continue;
    }
    if (path.empty()) {
      write_error(sink, salvage_id(value),
                  "cache_save: no path (give \"path\" or start with "
                  "--cache-file)");
      return Action::Continue;
    }
    try {
      const api::CacheSaveStats saved = api::save_cache_file(*cache_, path);
      registry.counter("serve.persist.saves").increment();
      api::JsonValue response = api::JsonValue::object();
      response.set("op", api::JsonValue::string("cache_save"));
      response.set("ok", api::JsonValue::boolean(true));
      response.set("path", api::JsonValue::string(path));
      set_count(response, "entries", saved.entries);
      set_count(response, "bytes", saved.bytes);
      sink(response.dump_compact_string());
    } catch (const std::exception& e) {
      registry.counter("serve.persist.save_failures").increment();
      write_error(sink, salvage_id(value),
                  std::string("cache_save: ") + e.what());
    }
    return Action::Continue;
  }

  write_error(sink, salvage_id(value),
              "unknown op '" + verb +
                  "' (known: ping, stats, metrics, cache_clear, cache_save, "
                  "shutdown)");
  return Action::Continue;
}

}  // namespace wtam::serve
