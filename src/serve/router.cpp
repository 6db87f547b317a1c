#include "serve/router.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/cache_store.hpp"
#include "api/job_io.hpp"
#include "api/request_key.hpp"
#include "api/result_cache.hpp"
#include "api/solver.hpp"
#include "common/hash.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace wtam::serve {

namespace {

api::JsonValue error_object(const std::string& message) {
  api::JsonValue value = api::JsonValue::object();
  value.set("error", api::JsonValue::string(message));
  return value;
}

/// Generic fleet fold for op acks: numbers sum, "ok" flags AND, objects
/// merge key-wise (the first ack fixes the key order), strings/arrays
/// keep the first worker's value. Good for stats / cache_clear /
/// cache_save / shutdown; metrics needs the histogram-aware merge below.
api::JsonValue merge_acks(const api::JsonValue& a, const api::JsonValue& b) {
  using Kind = api::JsonValue::Kind;
  if (a.kind() == Kind::Int && b.kind() == Kind::Int)
    return api::JsonValue::number(a.as_int() + b.as_int());
  if ((a.kind() == Kind::Int || a.kind() == Kind::Double) &&
      (b.kind() == Kind::Int || b.kind() == Kind::Double))
    return api::JsonValue::number(a.as_double() + b.as_double());
  if (a.kind() == Kind::Bool && b.kind() == Kind::Bool)
    return api::JsonValue::boolean(a.as_bool() && b.as_bool());
  if (a.kind() == Kind::Object && b.kind() == Kind::Object) {
    api::JsonValue merged = api::JsonValue::object();
    for (const auto& [key, value] : a.members()) {
      const api::JsonValue* other = b.find(key);
      merged.set(key, other ? merge_acks(value, *other) : value);
    }
    for (const auto& [key, value] : b.members())
      if (a.find(key) == nullptr) merged.set(key, value);
    return merged;
  }
  return a;
}

/// Merges fleet metrics acks: counters and gauges sum per name (sorted),
/// histograms combine count/sum/min/max and recompute the mean.
/// Percentiles are dropped — quantiles of independent sketches do not
/// merge, and a made-up number is worse than an absent one.
api::JsonValue merge_metrics_acks(
    const std::vector<const api::JsonValue*>& acks) {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  struct Hist {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
  };
  std::map<std::string, Hist> histograms;

  for (const api::JsonValue* ack : acks) {
    if (const api::JsonValue* section = ack->find("counters"))
      if (section->is_object())
        for (const auto& [name, value] : section->members())
          counters[name] += value.as_int();
    if (const api::JsonValue* section = ack->find("gauges"))
      if (section->is_object())
        for (const auto& [name, value] : section->members())
          gauges[name] += value.as_int();
    if (const api::JsonValue* section = ack->find("histograms"))
      if (section->is_object())
        for (const auto& [name, entry] : section->members()) {
          const api::JsonValue* count = entry.find("count");
          if (count == nullptr || count->as_int() == 0) continue;
          Hist& hist = histograms[name];
          const std::int64_t entry_min = entry.find("min")->as_int();
          const std::int64_t entry_max = entry.find("max")->as_int();
          if (hist.count == 0) {
            hist.min = entry_min;
            hist.max = entry_max;
          } else {
            hist.min = std::min(hist.min, entry_min);
            hist.max = std::max(hist.max, entry_max);
          }
          hist.count += count->as_int();
          hist.sum += entry.find("sum")->as_int();
        }
  }

  api::JsonValue merged = api::JsonValue::object();
  merged.set("op", api::JsonValue::string("metrics"));
  api::JsonValue counters_json = api::JsonValue::object();
  for (const auto& [name, value] : counters)
    counters_json.set(name, api::JsonValue::number(value));
  merged.set("counters", std::move(counters_json));
  api::JsonValue gauges_json = api::JsonValue::object();
  for (const auto& [name, value] : gauges)
    gauges_json.set(name, api::JsonValue::number(value));
  merged.set("gauges", std::move(gauges_json));
  api::JsonValue histograms_json = api::JsonValue::object();
  for (const auto& [name, hist] : histograms) {
    api::JsonValue entry = api::JsonValue::object();
    entry.set("count", api::JsonValue::number(hist.count));
    entry.set("sum", api::JsonValue::number(hist.sum));
    entry.set("min", api::JsonValue::number(hist.min));
    entry.set("max", api::JsonValue::number(hist.max));
    entry.set("mean",
              api::JsonValue::number(static_cast<double>(hist.sum) /
                                     static_cast<double>(hist.count)));
    histograms_json.set(name, std::move(entry));
  }
  merged.set("histograms", std::move(histograms_json));
  return merged;
}

/// Renders a merged metrics ack as Prometheus text. Counters and gauges
/// are typed samples; each histogram becomes a summary with only
/// _sum/_count — the merge already dropped the per-worker quantiles
/// (they do not combine), so none appear here either.
std::string merged_metrics_to_prometheus(const api::JsonValue& merged) {
  std::ostringstream out;
  if (const api::JsonValue* section = merged.find("counters"))
    for (const auto& [name, value] : section->members()) {
      const std::string sanitized = obs::sanitize_metric_name(name);
      out << "# TYPE " << sanitized << " counter\n"
          << sanitized << " " << value.as_int() << "\n";
    }
  if (const api::JsonValue* section = merged.find("gauges"))
    for (const auto& [name, value] : section->members()) {
      const std::string sanitized = obs::sanitize_metric_name(name);
      out << "# TYPE " << sanitized << " gauge\n"
          << sanitized << " " << value.as_int() << "\n";
    }
  if (const api::JsonValue* section = merged.find("histograms"))
    for (const auto& [name, entry] : section->members()) {
      const std::string sanitized = obs::sanitize_metric_name(name);
      out << "# TYPE " << sanitized << " summary\n";
      out << sanitized << "_sum " << entry.find("sum")->as_int() << "\n";
      out << sanitized << "_count " << entry.find("count")->as_int() << "\n";
    }
  return out.str();
}

api::JsonValue router_counters_json(const RouterCounters& counters) {
  api::JsonValue value = api::JsonValue::object();
  const auto set = [&value](const char* key, std::uint64_t count) {
    value.set(key, api::JsonValue::number(static_cast<std::int64_t>(count)));
  };
  set("routed", counters.routed);
  set("shed", counters.shed);
  set("respawns", counters.respawns);
  set("replayed", counters.replayed);
  set("orphaned", counters.orphaned);
  set("pings", counters.pings);
  set("health_severed", counters.health_severed);
  set("resizes", counters.resizes);
  return value;
}

struct ReshardStats {
  std::size_t entries = 0;  ///< entries re-hashed into the new mapping
  std::size_t dropped = 0;  ///< entries whose new owner has no cache file
  std::size_t files = 0;    ///< snapshot files written
};

/// Re-shards the old fleet's persisted caches for a new fleet size:
/// every entry from every old local snapshot is re-hashed with the new
/// worker count and written into its new owner's snapshot file. Workers
/// without a cache file (remote workers — their snapshot lives on their
/// host) contribute nothing and receive nothing; entries relocating to
/// them are dropped and simply recompute (deterministically) on first
/// touch. Every new local snapshot is (re)written, even when empty, so
/// no stale pre-resize file survives at a reused path.
ReshardStats reshard_cache_files(const std::vector<WorkerSpec>& old_specs,
                                 const std::vector<WorkerSpec>& new_specs) {
  ReshardStats stats;
  // The temp caches only ferry entries between files: give them room so
  // the re-shard itself never evicts (budget >> any worker's snapshot).
  api::ResultCacheOptions temp_options;
  temp_options.max_bytes = std::size_t(1) << 30;

  std::vector<std::pair<api::RequestKey, api::CachedSolve>> entries;
  for (const WorkerSpec& spec : old_specs) {
    if (spec.cache_file.empty()) continue;
    api::ResultCache loaded(temp_options);
    (void)api::load_cache_file(loaded, spec.cache_file);  // missing = empty
    for (auto& entry : loaded.export_entries())
      entries.push_back(std::move(entry));
  }

  const std::size_t count = new_specs.size();
  std::vector<std::unique_ptr<api::ResultCache>> parts(count);
  for (auto& [key, value] : entries) {
    const std::size_t owner = static_cast<std::size_t>(key.hash()) % count;
    if (new_specs[owner].cache_file.empty()) {
      ++stats.dropped;
      continue;
    }
    if (!parts[owner])
      parts[owner] = std::make_unique<api::ResultCache>(temp_options);
    parts[owner]->insert(key, std::move(value));
    ++stats.entries;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (new_specs[i].cache_file.empty()) continue;
    if (!parts[i]) parts[i] = std::make_unique<api::ResultCache>(temp_options);
    (void)api::save_cache_file(*parts[i], new_specs[i].cache_file);
    ++stats.files;
  }
  return stats;
}

}  // namespace

/// One worker slot: the live link (swapped on respawn/reconnect; null
/// once a respawn has failed permanently), its in-flight job count for
/// the admission check, heartbeat state, and the dedicated reader
/// thread. `incarnation` bumps each time a death is resolved (respawn
/// or permanent failure), so kill_worker can block until the slot is
/// live again.
struct Router::Slot {
  std::shared_ptr<WorkerLink> link;  // guarded by Router::mutex_
  std::uint64_t inflight = 0;        // guarded by Router::mutex_
  std::uint64_t incarnation = 0;     // guarded by Router::mutex_
  bool awaiting_pong = false;        // guarded by Router::mutex_
  std::chrono::steady_clock::time_point ping_sent;  // guarded by mutex_
  std::thread reader;
};

Router::Router(RouterOptions options, Sink sink, Diag diag)
    : options_(std::move(options)),
      sink_(std::move(sink)),
      diag_(std::move(diag)) {
  if (options_.workers.empty())
    throw std::invalid_argument("router needs at least one worker");
  slots_.reserve(options_.workers.size());
  for (const WorkerSpec& spec : options_.workers) {
    auto slot = std::make_unique<Slot>();
    slot->link = make_worker_link(spec, options_.connect_wait);
    slots_.push_back(std::move(slot));
  }
  // Readers start only after every spawn/connect succeeded, so a boot
  // failure throws out of the constructor with no threads to unwind.
  for (std::size_t i = 0; i < slots_.size(); ++i)
    slots_[i]->reader = std::thread([this, i] { reader_loop(i); });
  if (options_.ping_interval.count() > 0)
    health_thread_ = std::thread([this] { health_loop(); });
}

Router::~Router() {
  {
    const common::MutexLock lock(mutex_);
    shutting_down_ = true;
    health_cv_.notify_all();
  }
  if (health_thread_.joinable()) health_thread_.join();
  for (const auto& slot : slots_) {
    std::shared_ptr<WorkerLink> link;
    {
      const common::MutexLock lock(mutex_);
      link = slot->link;
    }
    if (link) link->sever();
  }
  for (const auto& slot : slots_)
    if (slot->reader.joinable()) slot->reader.join();
}

RouterCounters Router::counters() const {
  const common::MutexLock lock(mutex_);
  return counters_;
}

int Router::workers() const {
  const common::MutexLock lock(mutex_);
  return static_cast<int>(slots_.size());
}

void Router::emit(const api::JsonValue& value) {
  emit_raw(value.dump_compact_string());
}

void Router::emit_raw(const std::string& line) {
  const common::MutexLock lock(sink_mutex_);
  if (sink_) sink_(line);
}

void Router::note(const std::string& message) {
  const common::MutexLock lock(sink_mutex_);
  if (diag_) diag_(message);
}

std::size_t Router::shard_for(const api::JsonValue& value,
                              const std::string& line) const {
  // Route by cache identity so resubmissions hit the worker that cached
  // them: the job's first RequestKey (a sweep's lowest width) hashes to
  // a worker. Jobs whose key cannot be computed still route
  // deterministically, by a stable hash of the raw line, so their error
  // responses are reproducible too.
  std::size_t count = 0;
  {
    const common::MutexLock lock(mutex_);
    count = slots_.size();
  }
  try {
    const api::SolveRequest request = api::job_from_json(value);
    const std::vector<api::RequestKey> keys = api::request_keys(request);
    if (!keys.empty())
      return static_cast<std::size_t>(keys.front().hash()) % count;
  } catch (const std::exception&) {
  }
  return static_cast<std::size_t>(common::stable_hash_128(line).word()) %
         count;
}

void Router::reject_line(const std::string& message) {
  emit(error_object("router: " + message));
}

bool Router::handle_line(const std::string& line) {
  api::JsonValue value;
  try {
    value = api::JsonValue::parse(line);
  } catch (const std::exception& e) {
    emit(error_object(std::string("router: ") + e.what()));
    return true;
  }

  const api::JsonValue* op = value.find("op");
  if (op == nullptr) {
    route_job(std::move(value));
    return true;
  }

  std::string verb;
  try {
    verb = op->as_string();
  } catch (const std::exception&) {
    emit(error_object("router: 'op' must be a string"));
    return true;
  }

  if (verb == "ping") {
    // The router answers for itself — a client pinging the fleet's
    // front door is asking "is the router alive", and worker liveness
    // is the health thread's business.
    api::JsonValue ack = api::JsonValue::object();
    ack.set("op", api::JsonValue::string("ping"));
    ack.set("ok", api::JsonValue::boolean(true));
    if (const api::JsonValue* seq = value.find("seq"))
      if (seq->kind() == api::JsonValue::Kind::Int)
        ack.set("seq", api::JsonValue::number(seq->as_int()));
    ack.set("workers", api::JsonValue::number(static_cast<std::int64_t>(workers())));
    emit(ack);
    return true;
  }

  if (verb == "kill_worker") {
    // Crash-recovery test hook: sever one worker (SIGKILL for a local
    // process, connection shutdown for a remote one); its reader brings
    // the slot back and replays the in-flight jobs.
    const api::JsonValue* index_json = value.find("worker");
    std::int64_t index = -1;
    try {
      if (index_json != nullptr) index = index_json->as_int();
    } catch (const std::exception&) {
    }
    if (index < 0 || index >= static_cast<std::int64_t>(slots_.size())) {
      emit(error_object("kill_worker: 'worker' must be in [0, " +
                        std::to_string(slots_.size()) + ")"));
      return true;
    }
    Slot& slot = *slots_[static_cast<std::size_t>(index)];
    std::shared_ptr<WorkerLink> link;
    std::uint64_t incarnation = 0;
    {
      const common::MutexLock lock(mutex_);
      link = slot.link;
      incarnation = slot.incarnation;
    }
    if (link) link->sever();
    bool respawned = false;
    if (link) {
      // Block (bounded) until the reader resolves the death — fresh
      // link swapped in (or the slot declared dead). Acking only after
      // the respawn makes kill-then-assert flows deterministic: a
      // following op broadcast reaches the live fleet instead of racing
      // the respawn window, and the respawn counter is already visible
      // to the next stats scrape.
      const common::MutexLock lock(mutex_);
      for (int i = 0; i < 100 && slot.incarnation == incarnation; ++i)
        (void)op_cv_.wait_for(mutex_, std::chrono::milliseconds(100));
      respawned = slot.incarnation != incarnation && slot.link != nullptr;
    }
    api::JsonValue ack = api::JsonValue::object();
    ack.set("op", api::JsonValue::string("kill_worker"));
    ack.set("ok", api::JsonValue::boolean(link != nullptr));
    ack.set("worker", api::JsonValue::number(index));
    ack.set("respawned", api::JsonValue::boolean(respawned));
    emit(ack);
    return true;
  }

  if (verb == "resize") {
    handle_resize(value);
    return true;
  }

  if (verb == "shutdown") {
    {
      const common::MutexLock lock(mutex_);
      if (shutting_down_) return false;
      shutting_down_ = true;
      health_cv_.notify_all();
    }
    const std::vector<api::JsonValue> acks = broadcast(line);
    stop_fleet_for_shutdown();
    api::JsonValue merged = api::JsonValue::object();
    for (const api::JsonValue& ack : acks)
      merged = merged.is_object() && !merged.members().empty()
                   ? merge_acks(merged, ack)
                   : ack;
    merged.set("workers",
               api::JsonValue::number(
                   static_cast<std::int64_t>(slots_.size())));
    emit(merged);
    return false;
  }

  if (verb == "metrics") {
    std::string format = "json";
    if (const api::JsonValue* requested = value.find("format"))
      if (requested->kind() == api::JsonValue::Kind::String)
        format = requested->as_string();
    if (format != "json" && format != "prometheus") {
      emit(error_object(
          "router: metrics format must be \"json\" or \"prometheus\""));
      return true;
    }
    // The fleet is always scraped in JSON (the only form that merges);
    // prometheus is a rendering of the merged snapshot.
    api::JsonValue fleet_request = value;
    fleet_request.set("format", api::JsonValue::string("json"));
    const std::vector<api::JsonValue> acks =
        broadcast(fleet_request.dump_compact_string());
    std::vector<const api::JsonValue*> ack_ptrs;
    std::size_t errors = 0;
    for (const api::JsonValue& ack : acks) {
      if (ack.find("error") != nullptr && ack.find("op") == nullptr)
        ++errors;
      else
        ack_ptrs.push_back(&ack);
    }
    api::JsonValue merged = merge_metrics_acks(ack_ptrs);
    // The router's own counters join the scrape under serve.router.*,
    // re-sorted into the counters section's name order.
    const RouterCounters now = counters();
    const api::JsonValue* counters_json = merged.find("counters");
    std::map<std::string, std::int64_t> all;
    for (const auto& [name, count] : counters_json->members())
      all[name] = count.as_int();
    all["serve.router.routed"] = static_cast<std::int64_t>(now.routed);
    all["serve.router.shed"] = static_cast<std::int64_t>(now.shed);
    all["serve.router.respawns"] = static_cast<std::int64_t>(now.respawns);
    all["serve.router.replayed"] = static_cast<std::int64_t>(now.replayed);
    all["serve.router.orphaned"] = static_cast<std::int64_t>(now.orphaned);
    all["serve.router.pings"] = static_cast<std::int64_t>(now.pings);
    all["serve.router.health_severed"] =
        static_cast<std::int64_t>(now.health_severed);
    all["serve.router.resizes"] = static_cast<std::int64_t>(now.resizes);
    api::JsonValue rebuilt = api::JsonValue::object();
    for (const auto& [name, count] : all)
      rebuilt.set(name, api::JsonValue::number(count));
    merged.set("counters", std::move(rebuilt));
    if (format == "prometheus") {
      api::JsonValue response = api::JsonValue::object();
      response.set("op", api::JsonValue::string("metrics"));
      response.set("format", api::JsonValue::string("prometheus"));
      response.set("body",
                   api::JsonValue::string(merged_metrics_to_prometheus(merged)));
      response.set("workers", api::JsonValue::number(static_cast<std::int64_t>(workers())));
      if (errors != 0)
        response.set("worker_errors",
                     api::JsonValue::number(static_cast<std::int64_t>(errors)));
      emit(response);
      return true;
    }
    merged.set("workers", api::JsonValue::number(static_cast<std::int64_t>(workers())));
    if (errors != 0)
      merged.set("worker_errors",
                 api::JsonValue::number(static_cast<std::int64_t>(errors)));
    emit(merged);
    return true;
  }

  if (verb == "stats" || verb == "cache_clear" || verb == "cache_save") {
    const std::vector<api::JsonValue> acks = broadcast(line);
    api::JsonValue merged;
    std::size_t errors = 0;
    for (const api::JsonValue& ack : acks) {
      if (ack.find("error") != nullptr && ack.find("op") == nullptr) {
        ++errors;
        continue;
      }
      merged = merged.is_object() ? merge_acks(merged, ack) : ack;
    }
    if (!merged.is_object()) {
      // Every worker errored (e.g. cache_save on a cacheless fleet):
      // surface the first error verbatim.
      emit(acks.empty() ? error_object("router: no workers") : acks.front());
      return true;
    }
    merged.set("workers", api::JsonValue::number(static_cast<std::int64_t>(workers())));
    if (verb == "stats")
      merged.set("router", router_counters_json(counters()));
    if (errors != 0)
      merged.set("worker_errors",
                 api::JsonValue::number(static_cast<std::int64_t>(errors)));
    emit(merged);
    return true;
  }

  // Unknown verbs still fan out (a newer wtam_serve may know them); the
  // workers' own error responses come back and merge like any ack.
  const std::vector<api::JsonValue> acks = broadcast(line);
  emit(acks.empty() ? error_object("router: no workers") : acks.front());
  return true;
}

void Router::route_job(api::JsonValue value) {
  const std::string raw = value.dump_compact_string();
  const std::size_t worker = shard_for(value, raw);

  std::string client_id;
  if (const api::JsonValue* id = value.find("id")) {
    if (id->kind() != api::JsonValue::Kind::String) {
      emit(error_object("router: 'id' must be a string"));
      return;
    }
    client_id = id->as_string();
  }

  std::shared_ptr<WorkerLink> link;
  std::string wire_line;
  std::string internal_id;
  {
    const common::MutexLock lock(mutex_);
    if (options_.queue_limit != 0 &&
        slots_[worker]->inflight >= options_.queue_limit) {
      ++counters_.shed;
    } else {
      const std::uint64_t seq = ++serial_;
      // Built with += : GCC 12's -Wrestrict misfires on operator+ here.
      internal_id = "r";
      internal_id += std::to_string(seq);
      if (client_id.empty()) {
        client_id = "job-";
        client_id += std::to_string(seq);
      }
      value.set("id", api::JsonValue::string(internal_id));
      wire_line = value.dump_compact_string();
      pending_.emplace(internal_id,
                       Pending{client_id, wire_line, worker, seq});
      ++slots_[worker]->inflight;
      ++counters_.routed;
      link = slots_[worker]->link;
    }
  }
  if (internal_id.empty()) {
    // Shed: answered here, never forwarded. Fixed text keeps shed
    // responses byte-deterministic (mirrors wtam_serve's own shedding).
    api::JsonValue response = api::JsonValue::object();
    if (!client_id.empty())
      response.set("id", api::JsonValue::string(client_id));
    response.set("status", api::JsonValue::string("overloaded"));
    response.set("error", api::JsonValue::string(
                              "queue limit reached; job shed — retry later"));
    emit(response);
    return;
  }
  // A failed write means the worker just died: the job stays pending and
  // the reader's respawn replays it, so nothing is lost here.
  if (link) (void)link->write_line(wire_line);
}

std::vector<api::JsonValue> Router::broadcast(const std::string& line) {
  std::vector<std::shared_ptr<WorkerLink>> links(slots_.size());
  {
    const common::MutexLock lock(mutex_);
    op_active_ = true;
    op_remaining_ = static_cast<int>(slots_.size());
    op_filled_.assign(slots_.size(), false);
    op_responses_.assign(slots_.size(), api::JsonValue());
    for (std::size_t i = 0; i < slots_.size(); ++i)
      links[i] = slots_[i]->link;
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (links[i] && links[i]->write_line(line)) continue;
    // Dead (or permanently failed) worker: fill its slot immediately so
    // the wait below always terminates.
    const common::MutexLock lock(mutex_);
    if (!op_filled_[i]) {
      op_filled_[i] = true;
      op_responses_[i] =
          error_object("worker " + std::to_string(i) + " unavailable");
      --op_remaining_;
    }
  }
  std::vector<api::JsonValue> responses;
  {
    const common::MutexLock lock(mutex_);
    while (op_remaining_ > 0) op_cv_.wait(mutex_);
    op_active_ = false;
    responses = std::move(op_responses_);
    op_responses_.clear();
  }
  return responses;
}

void Router::stop_fleet_for_shutdown() {
  if (health_thread_.joinable()) health_thread_.join();
  for (const auto& slot : slots_) {
    std::shared_ptr<WorkerLink> link;
    {
      const common::MutexLock lock(mutex_);
      link = slot->link;
    }
    if (link) link->close_input();
  }
  for (const auto& slot : slots_)
    if (slot->reader.joinable()) slot->reader.join();
  for (const auto& slot : slots_)
    if (slot->link) slot->link->finish();
}

void Router::shutdown() {
  {
    const common::MutexLock lock(mutex_);
    if (shutting_down_) return;
    shutting_down_ = true;
    health_cv_.notify_all();
  }
  (void)broadcast("{\"op\": \"shutdown\"}");
  stop_fleet_for_shutdown();
}

void Router::handle_worker_line(std::size_t index, const std::string& line) {
  api::JsonValue value;
  try {
    value = api::JsonValue::parse(line);
  } catch (const std::exception&) {
    const common::MutexLock lock(mutex_);
    ++counters_.orphaned;
    return;
  }

  // Health pongs answer the health thread, never a broadcast (the
  // router never broadcasts ping — it answers client pings itself).
  if (const api::JsonValue* op = value.find("op"))
    if (op->kind() == api::JsonValue::Kind::String &&
        op->as_string() == "ping") {
      const common::MutexLock lock(mutex_);
      slots_[index]->awaiting_pong = false;
      return;
    }

  // Job responses carry the internal id we assigned; everything else
  // (op acks, op error objects) answers the one in-flight broadcast.
  if (const api::JsonValue* id = value.find("id")) {
    if (id->kind() == api::JsonValue::Kind::String) {
      std::string client_id;
      {
        const common::MutexLock lock(mutex_);
        const auto it = pending_.find(id->as_string());
        if (it == pending_.end()) {
          // Late duplicate after a replay, or a stray line: at-least-
          // once delivery means the first response already answered the
          // client, so this one is dropped, counted, never emitted.
          ++counters_.orphaned;
          return;
        }
        client_id = it->second.client_id;
        --slots_[it->second.worker]->inflight;
        pending_.erase(it);
        // The resize drain waits for an empty pending set.
        if (pending_.empty()) op_cv_.notify_all();
      }
      value.set("id", api::JsonValue::string(client_id));
      emit(value);
      return;
    }
  }

  {
    const common::MutexLock lock(mutex_);
    if (op_active_ && !op_filled_[index]) {
      op_filled_[index] = true;
      op_responses_[index] = std::move(value);
      --op_remaining_;
      op_cv_.notify_all();
      return;
    }
    ++counters_.orphaned;
  }
}

void Router::reader_loop(std::size_t index) {
  for (;;) {
    std::shared_ptr<WorkerLink> link;
    {
      const common::MutexLock lock(mutex_);
      link = slots_[index]->link;
    }
    if (!link) return;  // respawn failed permanently; slot is dead

    if (const std::optional<std::string> line = link->read_line()) {
      handle_worker_line(index, *line);
      continue;
    }

    // EOF: the worker exited (or its connection dropped). During
    // shutdown or a resize teardown that is expected; any other time it
    // is a crash to recover from.
    link->finish();
    {
      const common::MutexLock lock(mutex_);
      if (op_active_ && !op_filled_[index]) {
        // An op was outstanding to the dead worker — its ack is gone.
        op_filled_[index] = true;
        op_responses_[index] = error_object(
            "worker " + std::to_string(index) + " exited during the op");
        --op_remaining_;
        op_cv_.notify_all();
      }
      if (shutting_down_ || resizing_) return;
    }

    std::shared_ptr<WorkerLink> fresh;
    try {
      fresh = make_worker_link(options_.workers[index], options_.connect_wait);
    } catch (const std::exception& e) {
      // Respawn/reconnect failed (binary gone? host down past the
      // backoff budget?): the slot dies for good and its in-flight jobs
      // are answered with errors so no client hangs.
      std::vector<std::pair<std::string, std::string>> failed;  // id, client
      {
        const common::MutexLock lock(mutex_);
        slots_[index]->link.reset();
        ++slots_[index]->incarnation;  // resolved: permanently dead
        op_cv_.notify_all();
        for (auto it = pending_.begin(); it != pending_.end();) {
          if (it->second.worker == index) {
            failed.emplace_back(it->first, it->second.client_id);
            --slots_[index]->inflight;
            it = pending_.erase(it);
          } else {
            ++it;
          }
        }
        if (pending_.empty()) op_cv_.notify_all();
      }
      note("worker " + std::to_string(index) +
           " died and could not be respawned (" + e.what() + "); " +
           std::to_string(failed.size()) + " in-flight job(s) failed");
      for (const auto& [internal_id, client_id] : failed) {
        api::JsonValue response = api::JsonValue::object();
        if (!client_id.empty())
          response.set("id", api::JsonValue::string(client_id));
        response.set("error",
                     api::JsonValue::string(
                         "worker lost and not respawnable; resubmit"));
        emit(response);
      }
      return;
    }

    // Swap the fresh worker in first, then collect the replay set: any
    // job routed while the old worker was dying is in pending_ by now
    // (route_job registers before writing), so it is either in this
    // replay batch or was written to the fresh link directly. A job
    // that gets both is de-duplicated by the pending_ erase on its
    // first response (the orphan path above drops the second).
    std::vector<const Pending*> replay_refs;
    std::vector<Pending> replay;
    bool torn_down = false;
    {
      const common::MutexLock lock(mutex_);
      // Re-check under the lock: a shutdown/resize that started while
      // the fresh link was booting has already run its sever pass, so
      // installing now would leave a live link nobody severs and hang
      // the teardown's reader join on the next blocking read.
      if (shutting_down_ || resizing_) {
        ++slots_[index]->incarnation;  // resolved: torn down, not revived
        op_cv_.notify_all();
        torn_down = true;
      } else {
        slots_[index]->link = fresh;
        slots_[index]->awaiting_pong = false;  // new incarnation, clean slate
        ++slots_[index]->incarnation;          // resolved: fresh link live
        op_cv_.notify_all();
        ++counters_.respawns;
        for (const auto& [internal_id, pending] : pending_)
          if (pending.worker == index) replay_refs.push_back(&pending);
        std::sort(replay_refs.begin(), replay_refs.end(),
                  [](const Pending* a, const Pending* b) {
                    return a->seq < b->seq;
                  });
        replay.reserve(replay_refs.size());
        for (const Pending* pending : replay_refs) replay.push_back(*pending);
        counters_.replayed += replay.size();
      }
    }
    if (torn_down) {
      fresh->sever();
      fresh->finish();
      return;
    }
    note("worker " + std::to_string(index) + " died; respawned, replaying " +
         std::to_string(replay.size()) + " in-flight job(s)");
    for (const Pending& pending : replay)
      if (!fresh->write_line(pending.line)) break;  // died again: next loop
  }
}

void Router::health_loop() {
  for (;;) {
    std::vector<std::shared_ptr<WorkerLink>> to_sever;
    std::vector<std::size_t> sever_index;
    std::vector<std::shared_ptr<WorkerLink>> to_ping;
    std::vector<std::string> ping_lines;
    {
      const common::MutexLock lock(mutex_);
      if (shutting_down_) return;
      (void)health_cv_.wait_for(mutex_, options_.ping_interval);
      if (shutting_down_) return;
      if (resizing_) continue;  // the old fleet is being torn down
      const auto now = common::steady_now();
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot& slot = *slots_[i];
        if (!slot.link) continue;
        if (slot.awaiting_pong) {
          if (now - slot.ping_sent >= options_.ping_deadline) {
            // Missed heartbeat: the worker is hung or its connection is
            // silently dead. Severing it turns "maybe dead" into the
            // EOF the reader already knows how to recover from.
            slot.awaiting_pong = false;
            ++counters_.health_severed;
            to_sever.push_back(slot.link);
            sever_index.push_back(i);
          }
          continue;  // ping still in flight and within its deadline
        }
        slot.awaiting_pong = true;
        slot.ping_sent = now;
        ++counters_.pings;
        to_ping.push_back(slot.link);
        ping_lines.push_back("{\"op\": \"ping\", \"seq\": " +
                             std::to_string(++ping_serial_) + "}");
      }
    }
    // Writes and severs happen outside the lock: a blocked send on a
    // wedged worker must not freeze routing.
    for (std::size_t i = 0; i < to_sever.size(); ++i) {
      note("worker " + std::to_string(sever_index[i]) +
           " missed its heartbeat; severing");
      to_sever[i]->sever();
    }
    for (std::size_t i = 0; i < to_ping.size(); ++i)
      (void)to_ping[i]->write_line(ping_lines[i]);  // dead = reader's problem
  }
}

void Router::handle_resize(const api::JsonValue& value) {
  const auto fail = [this](const std::string& message) {
    api::JsonValue ack = api::JsonValue::object();
    ack.set("op", api::JsonValue::string("resize"));
    ack.set("ok", api::JsonValue::boolean(false));
    ack.set("error", api::JsonValue::string(message));
    emit(ack);
  };

  std::int64_t target = -1;
  try {
    if (const api::JsonValue* workers_json = value.find("workers"))
      target = workers_json->as_int();
  } catch (const std::exception&) {
  }
  if (target < 1) {
    fail("resize: 'workers' must be an integer >= 1");
    return;
  }
  if (!options_.fleet_factory) {
    fail("resize: this router has no fleet factory (run through "
         "wtam_router)");
    return;
  }
  std::vector<WorkerSpec> new_specs;
  try {
    new_specs = options_.fleet_factory(static_cast<std::size_t>(target));
  } catch (const std::exception& e) {
    fail(std::string("resize: fleet factory failed: ") + e.what());
    return;
  }
  if (new_specs.size() != static_cast<std::size_t>(target)) {
    fail("resize: fleet factory returned " +
         std::to_string(new_specs.size()) + " specs for " +
         std::to_string(target) + " workers");
    return;
  }

  // Drain: every routed job must be answered before the old fleet
  // stops, so nothing needs replaying across the resize. handle_line is
  // single-caller, so no new jobs arrive while we wait. Bounded: a
  // wedged worker must not hang the control verb forever.
  std::size_t stuck = 0;
  {
    const common::MutexLock lock(mutex_);
    for (int i = 0; i < 600 && !pending_.empty(); ++i)
      (void)op_cv_.wait_for(mutex_, std::chrono::milliseconds(100));
    stuck = pending_.size();
    if (stuck == 0) resizing_ = true;
  }
  if (stuck != 0) {
    fail("resize: drain timed out with " + std::to_string(stuck) +
         " job(s) still in flight");
    return;
  }

  // Stop the old fleet. Local workers get EOF — wtam_serve's EOF path
  // drains (empty) and saves its --cache-file, which is exactly the
  // snapshot the re-shard below reads. Remote workers are severed: the
  // process on the other host stays up (its in-memory cache intact) for
  // the new fleet to reconnect to.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    std::shared_ptr<WorkerLink> link;
    {
      const common::MutexLock lock(mutex_);
      link = slots_[i]->link;
    }
    if (!link) continue;
    if (options_.workers[i].remote())
      link->sever();
    else
      link->close_input();
  }
  for (const auto& slot : slots_)
    if (slot->reader.joinable()) slot->reader.join();
  for (const auto& slot : slots_)
    if (slot->link) slot->link->finish();

  // Re-shard the persisted caches under the new mapping, so every
  // relocated key warm-boots on its new owner.
  ReshardStats resharded;
  try {
    resharded = reshard_cache_files(options_.workers, new_specs);
  } catch (const std::exception& e) {
    // A failed re-shard costs warmth, not correctness: the new fleet
    // boots with whatever snapshots exist and recomputes the rest.
    note(std::string("resize: cache re-shard failed: ") + e.what());
  }

  // Boot the new fleet.
  std::vector<std::unique_ptr<Slot>> fresh;
  try {
    fresh.reserve(new_specs.size());
    for (const WorkerSpec& spec : new_specs) {
      auto slot = std::make_unique<Slot>();
      slot->link = make_worker_link(spec, options_.connect_wait);
      fresh.push_back(std::move(slot));
    }
  } catch (const std::exception& e) {
    for (const auto& slot : fresh)
      if (slot->link) slot->link->sever();
    fail(std::string("resize: could not boot the new fleet: ") + e.what());
    // The old fleet is already gone — the router is dead. Leave the
    // slots empty so routing reports unavailability rather than
    // crashing.
    {
      const common::MutexLock lock(mutex_);
      slots_.clear();
      resizing_ = false;
    }
    return;
  }
  {
    const common::MutexLock lock(mutex_);
    slots_ = std::move(fresh);
    options_.workers = std::move(new_specs);
    ++counters_.resizes;
    resizing_ = false;
  }
  for (std::size_t i = 0; i < slots_.size(); ++i)
    slots_[i]->reader = std::thread([this, i] { reader_loop(i); });

  note("resized fleet to " + std::to_string(slots_.size()) + " worker(s); " +
       std::to_string(resharded.entries) + " cache entr(ies) re-sharded "
       "across " + std::to_string(resharded.files) + " snapshot(s)");
  api::JsonValue ack = api::JsonValue::object();
  ack.set("op", api::JsonValue::string("resize"));
  ack.set("ok", api::JsonValue::boolean(true));
  ack.set("workers", api::JsonValue::number(
                         static_cast<std::int64_t>(slots_.size())));
  ack.set("resharded_entries",
          api::JsonValue::number(
              static_cast<std::int64_t>(resharded.entries)));
  ack.set("resharded_files",
          api::JsonValue::number(static_cast<std::int64_t>(resharded.files)));
  ack.set("dropped_entries",
          api::JsonValue::number(
              static_cast<std::int64_t>(resharded.dropped)));
  emit(ack);
}

}  // namespace wtam::serve
