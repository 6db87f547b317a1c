#include "layers.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "api/cache_store.hpp"
#include "api/job_io.hpp"
#include "api/json_value.hpp"
#include "api/request_key.hpp"
#include "api/result_cache.hpp"
#include "check.hpp"
#include "common/thread_annotations.hpp"
#include "core/backend.hpp"
#include "core/lower_bounds.hpp"
#include "core/test_time_table.hpp"
#include "fleet.hpp"
#include "pack/packed_schedule.hpp"
#include "serve/service.hpp"
#include "soc/core.hpp"
#include "wrapper/wrapper.hpp"

namespace perfbench {

namespace {

using wtam::api::JsonValue;

/// Hit-path round trips per measurement, spread over the replay points.
constexpr std::size_t kHitSamples = 1000;

std::string variant_of(const Point& point) {
  return point.inline_soc ? "inline" : "builtin";
}

/// Per-rectpack-call facts for the ratio metrics.
struct PackCall {
  std::int64_t repacks = 0;
  bool at_lower_bound = false;
};

/// Everything the cold replay learns besides its spans.
struct ColdReplay {
  std::vector<PackCall> pack_calls;
  std::vector<double> design_call_ns;  ///< one entry per design_wrapper call
  std::shared_ptr<wtam::api::ResultCache> cache;
};

ColdReplay replay_cold(const Inputs& inputs,
                       const std::vector<std::size_t>& points, SpanLog& log) {
  ColdReplay replay;
  replay.cache = std::make_shared<wtam::api::ResultCache>();
  const wtam::core::SolveContext context;
  for (const std::size_t index : points) {
    const Point& point = inputs.points[index];
    const std::string variant = variant_of(point);
    const std::int64_t root = log.open("request", -1, index);

    std::int64_t span = log.open("job-parse", root, index);
    const wtam::api::SolveRequest request = wtam::api::job_from_json(
        JsonValue::parse(request_line(point, make_id("t", index))));
    log.close(span);

    // soc-resolve is one of the server's own spans; it is timed there.
    const wtam::soc::Soc soc = wtam::api::resolve_soc(request);

    span = log.open("request-key", root, index, variant);
    wtam::api::RequestKey key = wtam::api::make_request_key(
        soc, request.width, request.backend, request.options);
    log.close(span);

    const wtam::core::OptimizerBackend& backend =
        wtam::core::BackendRegistry::instance().at(request.backend);
    // cache-lookup and validate are the server's own spans; the replay
    // makes the calls for their results only.
    (void)replay.cache->lookup(key);

    span = log.open("table-build", root, index);
    const wtam::core::TestTimeTable table(soc, request.width);
    log.close(span);

    span = log.open(request.backend, root, index);
    wtam::core::BackendOutcome outcome =
        backend.optimize(table, request.width, request.options, context);
    log.close(span);

    span = log.open("lower-bound", root, index);
    const std::int64_t lower_bound =
        wtam::core::testing_time_lower_bounds(table, request.width).combined();
    log.close(span);

    const bool valid = wtam::pack::validate_packed_schedule(
                           table, outcome.schedule, request.options.constraints)
                           .empty();

    if (request.backend == "rectpack") {
      PackCall call;
      call.at_lower_bound = outcome.testing_time == lower_bound;
      for (const auto& [name, value] : outcome.details)
        if (name == "repacks") call.repacks = std::stoll(value);
      replay.pack_calls.push_back(call);
    }
    replay.cache->insert(key, wtam::api::CachedSolve{outcome, lower_bound, valid});
    wtam::api::SolveResult result;
    result.widths_tried = 1;
    result.width = request.width;
    result.lower_bound = lower_bound;
    result.schedule_valid = valid;
    result.outcome = std::move(outcome);

    span = log.open("result-serialize", root, index);
    result.status = wtam::api::Status::Ok;
    result.id = make_id("t", index);
    result.soc_name = soc.name;
    result.core_count = soc.core_count();
    result.backend = request.backend;
    result.cache = wtam::api::CacheOutcome::Miss;
    wtam::api::ResultsWriteOptions write;
    write.include_cache = true;
    (void)wtam::api::result_to_json(result, write).dump_compact_string();
    log.close(span);
    log.close(root);

    // Beside the root: the design_wrapper calls table-build made, one
    // timed call at a time (same early stop at the core's floor time).
    const std::int64_t design = log.open("wrapper-design", root, index);
    std::int64_t calls = 0;
    for (const wtam::soc::Core& core : soc.cores) {
      const std::int64_t floor_time = wtam::soc::min_test_time_bound(core);
      std::int64_t best = -1;
      for (int w = 1; w <= request.width; ++w) {
        if (best >= 0 && best <= floor_time) break;
        const std::int64_t start = log.now_ns();
        const std::int64_t time = wtam::wrapper::design_wrapper(core, w).test_time;
        replay.design_call_ns.push_back(static_cast<double>(log.now_ns() - start));
        ++calls;
        if (best < 0 || time < best) best = time;
      }
    }
    log.close(design, calls);
  }
  return replay;
}

/// Waits for one Service sink line.
class Mailbox {
 public:
  void put(const std::string& line) {
    const wtam::common::MutexLock lock(mutex_);
    line_ = line;
    ready_.notify_all();
  }
  std::string take() {
    const wtam::common::MutexLock lock(mutex_);
    while (!line_.has_value()) ready_.wait(mutex_);
    std::string line = std::move(*line_);
    line_.reset();
    return line;
  }

 private:
  wtam::common::Mutex mutex_;
  wtam::common::CondVar ready_;
  std::optional<std::string> line_ WTAM_GUARDED_BY(mutex_);
};

struct HitCheck {
  std::size_t failed = 0;
  std::vector<std::string> problems;
  void expect_hit(const std::string& where, const std::string& line) {
    const std::optional<Answer> answer = parse_answer(line);
    if (answer.has_value() && answer->status == "ok" && answer->cache == "hit")
      return;
    ++failed;
    if (problems.size() < 5)
      problems.push_back(where + " answer is not a cache hit: " +
                         line.substr(0, 160));
  }
};

/// Sequential round trips over `link`, one span per trip.
void round_trips(wtam::serve::WorkerLink& link, const Inputs& inputs,
                 const std::vector<std::size_t>& order, const std::string& name,
                 SpanLog& log, HitCheck& check) {
  std::uint64_t n = 0;
  for (const std::size_t index : order) {
    const std::string line =
        request_line(inputs.points[index], make_id("h", n++));
    const std::int64_t span = log.open(name, -1, index);
    if (!link.write_line(line))
      throw std::runtime_error(name + ": server closed its pipe");
    std::optional<std::string> answer = link.read_line();
    log.close(span);
    if (!answer.has_value())
      throw std::runtime_error(name + ": server closed its pipe");
    check.expect_hit(name, *answer);
  }
}

void replay_hits(const Inputs& inputs, const std::vector<std::size_t>& points,
                 const ColdReplay& cold, const std::string& bin_dir,
                 const std::string& work_dir, SpanLog& log, HitCheck& check) {
  std::vector<std::size_t> order;
  while (order.size() < kHitSamples)
    order.insert(order.end(), points.begin(), points.end());

  // wtam_serve warm-boots from the file; the router hands its worker
  // "<file>.w0".
  const std::string snapshot = work_dir + "/replay.cache";
  (void)wtam::api::save_cache_file(*cold.cache, snapshot);
  (void)wtam::api::save_cache_file(*cold.cache, snapshot + "-router.w0");

  {
    Fleet router(router_spec(bin_dir, 1, {"--cache-file", snapshot + "-router"}));
    round_trips(router.link(), inputs, order, "hit-request", log, check);
    router.shutdown();
  }
  {
    Fleet direct(serve_spec(bin_dir, 1, {"--cache-file", snapshot}));
    round_trips(direct.link(), inputs, order, "pipe-rtt", log, check);
    direct.shutdown();
  }
  {
    wtam::serve::ServiceOptions options;
    options.threads = 1;
    options.cache_file = snapshot;
    wtam::serve::Service service(options);
    Mailbox mailbox;
    const wtam::serve::Service::Sink sink = [&mailbox](const std::string& line) {
      mailbox.put(line);
    };
    std::uint64_t n = 0;
    for (const std::size_t index : order) {
      const std::string line =
          request_line(inputs.points[index], make_id("s", n));
      const std::int64_t span = log.open("service-hit", -1, index);
      (void)service.handle_line(line, ++n, sink);
      const std::string answer = mailbox.take();
      log.close(span);
      check.expect_hit("service-hit", answer);
    }
    service.drain_and_save();
  }

  // The calls a hit makes in-process, per request: the router parses
  // the line and derives the request's keys to shard it (router-key,
  // which resolves the SOC); the worker parses it again, resolves the
  // SOC, derives its key (request-key) and looks each width up; one
  // result is serialized. soc-resolve and cache-lookup are the server's
  // own spans, so they are called here but not timed.
  std::uint64_t n = 0;
  for (const std::size_t index : order) {
    const Point& point = inputs.points[index];
    const std::string variant = variant_of(point);
    const std::string line = request_line(point, make_id("i", n++));

    std::int64_t span = log.open("job-parse", -1, index);
    wtam::api::SolveRequest request = wtam::api::job_from_json(JsonValue::parse(line));
    log.close(span);
    span = log.open("router-key", -1, index, variant);
    (void)wtam::api::request_keys(request);
    log.close(span);

    span = log.open("job-parse", -1, index);
    request = wtam::api::job_from_json(JsonValue::parse(line));
    log.close(span);
    const wtam::soc::Soc soc = wtam::api::resolve_soc(request);
    span = log.open("request-key", -1, index, variant);
    wtam::api::RequestKey key = wtam::api::make_request_key(
        soc, request.width, request.backend, request.options);
    log.close(span);
    std::optional<wtam::api::CachedSolve> hit = cold.cache->lookup(key);
    if (!hit.has_value())
      throw std::runtime_error("in-process replay cache missed a primed key");
    span = log.open("result-serialize", -1, index);
    wtam::api::SolveResult result;
    result.status = wtam::api::Status::Ok;
    result.id = make_id("i", n);
    result.backend = request.backend;
    result.cache = wtam::api::CacheOutcome::Hit;
    result.widths_tried = 1;
    result.width = request.width;
    result.lower_bound = hit->lower_bound;
    result.schedule_valid = hit->schedule_valid;
    result.outcome = std::move(hit->outcome);
    wtam::api::ResultsWriteOptions write;
    write.include_cache = true;
    (void)wtam::api::result_to_json(result, write).dump_compact_string();
    log.close(span);
  }
}

/// Summed, median and count statistics of one named layer in one log.
struct LayerStats {
  std::vector<double> durations_ns;
  double total_ns = 0.0;
  std::int64_t calls = 0;
};

LayerStats collect(const SpanLog& log, const std::string& name,
                   const std::string& variant = {}) {
  LayerStats stats;
  for (const Span& span : log.spans()) {
    if (span.name != name || (!variant.empty() && span.variant != variant))
      continue;
    stats.durations_ns.push_back(span.duration_ns());
    stats.total_ns += span.duration_ns();
    stats.calls += span.count;
  }
  return stats;
}

/// Adds <layer>.<unit> (median per call), <layer>.per_request and
/// <layer>.share for a layer measured in `log` under root `root`.
void add_layer(Report& report, const SpanLog& log, const std::string& root,
               const std::string& layer, const std::string& unit) {
  const LayerStats roots = collect(log, root);
  const LayerStats stats = collect(log, layer);
  const double scale = unit == "ms" ? 1e6 : 1e3;
  const auto requests = static_cast<double>(roots.durations_ns.size());
  const std::string base = std::to_string(roots.durations_ns.size()) + " " +
                           log.pass() + " requests";
  report.add({layer + "." + unit, median(stats.durations_ns) / scale, unit,
              "median of " + std::to_string(stats.durations_ns.size()) +
                  " calls, " + log.pass() + " replay"});
  report.add({layer + ".per_request",
              requests > 0 ? static_cast<double>(stats.calls) / requests : 0.0,
              "count", base});
  report.add({layer + ".share",
              roots.total_ns > 0 ? stats.total_ns / roots.total_ns : 0.0,
              "share", "of " + root + " time over " + base});
}

void add_variant_medians(Report& report, const SpanLog& log,
                         const std::string& layer) {
  for (const char* variant : {"builtin", "inline"}) {
    const LayerStats stats = collect(log, layer, variant);
    report.add({layer + "." + variant + "_us",
                median(stats.durations_ns) / 1e3, "us",
                "median of " + std::to_string(stats.durations_ns.size()) +
                    " calls, " + log.pass() + " replay"});
  }
}

}  // namespace

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int64_t SpanLog::open(std::string name, std::int64_t parent,
                           std::uint64_t request, std::string variant) {
  Span span;
  span.name = std::move(name);
  span.variant = std::move(variant);
  span.parent = parent;
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t index, std::int64_t count) {
  Span& span = spans_.at(static_cast<std::size_t>(index));
  span.end_ns = now_ns();
  span.count = count;
}

std::int64_t SpanLog::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  for (const Span& span : spans_) {
    JsonValue line = JsonValue::object();
    line.set("pass", JsonValue::string(pass_));
    line.set("name", JsonValue::string(span.name));
    if (!span.variant.empty())
      line.set("variant", JsonValue::string(span.variant));
    line.set("start_ns", JsonValue::number(span.start_ns));
    line.set("end_ns", JsonValue::number(span.end_ns));
    line.set("parent", JsonValue::number(span.parent));
    line.set("request", JsonValue::number(static_cast<std::int64_t>(span.request)));
    line.set("count", JsonValue::number(span.count));
    out << line.dump_compact_string() << '\n';
  }
}

ReplayResult replay_layers(const Inputs& inputs,
                           const std::vector<std::size_t>& points,
                           const std::string& bin_dir,
                           const std::string& work_dir, Report& report) {
  SpanLog cold_log("cold");
  SpanLog hit_log("hit");
  const ColdReplay cold = replay_cold(inputs, points, cold_log);
  HitCheck check;
  replay_hits(inputs, points, cold, bin_dir, work_dir, hit_log, check);

  const bool hits_timed = inputs.workload == Workload::ServeHits;
  const SpanLog& path = hits_timed ? hit_log : cold_log;
  const std::string path_root = hits_timed ? "hit-request" : "request";

  // Engine-side layers: only the cold replay runs them.
  add_layer(report, cold_log, "request", "rectpack", "ms");
  std::int64_t repacks_total = 0;
  std::int64_t repacks_at_lb = 0;
  std::size_t at_lb = 0;
  std::vector<double> repacks;
  for (const PackCall& call : cold.pack_calls) {
    repacks.push_back(static_cast<double>(call.repacks));
    repacks_total += call.repacks;
    if (call.at_lower_bound) {
      ++at_lb;
      repacks_at_lb += call.repacks;
    }
  }
  const std::string pack_base =
      std::to_string(cold.pack_calls.size()) + " rectpack calls";
  report.add({"rectpack.repacks", median(repacks), "count", "median over " + pack_base});
  report.add({"rectpack.lb_share",
              cold.pack_calls.empty() ? 0.0
                                      : static_cast<double>(at_lb) /
                                            static_cast<double>(cold.pack_calls.size()),
              "share", "calls ending at the lower bound, of " + pack_base});
  report.add({"rectpack.repacks_at_lb_share",
              repacks_total > 0 ? static_cast<double>(repacks_at_lb) /
                                      static_cast<double>(repacks_total)
                                : 0.0,
              "share", "repacks spent in calls that ended at the lower bound, of " +
                           std::to_string(repacks_total)});
  add_layer(report, cold_log, "request", "enumerative", "ms");
  add_layer(report, cold_log, "request", "table-build", "ms");
  {
    const LayerStats design = collect(cold_log, "wrapper-design");
    const LayerStats roots = collect(cold_log, "request");
    report.add({"wrapper-design.us", median(cold.design_call_ns) / 1e3, "us",
                "median of " + std::to_string(cold.design_call_ns.size()) +
                    " calls, cold replay"});
    report.add({"wrapper-design.calls",
                static_cast<double>(design.calls) /
                    static_cast<double>(std::max<std::size_t>(1, roots.durations_ns.size())),
                "count", "per cold request"});
    report.add({"wrapper-design.share",
                roots.total_ns > 0 ? design.total_ns / roots.total_ns : 0.0,
                "share", "of request time, replayed beside table-build"});
  }
  add_layer(report, cold_log, "request", "lower-bound", "us");

  // Request-path layers: from the replay the timed requests take.
  add_variant_medians(report, path, "request-key");
  add_layer(report, path, path_root, "request-key", "us");
  add_layer(report, path, path_root, "job-parse", "us");
  add_layer(report, path, path_root, "result-serialize", "us");
  add_layer(report, hit_log, "hit-request", "router-key", "us");

  // Hit-path round trips (always from the hit replay).
  add_layer(report, hit_log, "hit-request", "service-hit", "us");
  add_layer(report, hit_log, "hit-request", "pipe-rtt", "us");
  const LayerStats router = collect(hit_log, "hit-request");
  const LayerStats direct = collect(hit_log, "pipe-rtt");
  report.add({"hit-request.us", median(router.durations_ns) / 1e3, "us",
              "median of " + std::to_string(router.durations_ns.size()) +
                  " round trips through wtam_router"});
  report.add({"router.self_us",
              (median(router.durations_ns) - median(direct.durations_ns)) / 1e3,
              "us", "router round trip minus direct pipe round trip (medians)"});
  report.add({"request.ms", median(collect(cold_log, "request").durations_ns) / 1e6,
              "ms", "median cold replay request"});

  const std::string spans_path = work_dir + "/spans-" +
                                 std::string(workload_name(inputs.workload)) +
                                 "-" + std::to_string(inputs.seed) + ".jsonl";
  cold_log.write(spans_path);
  hit_log.write(spans_path);
  return ReplayResult{check.failed, check.problems};
}

}  // namespace perfbench
