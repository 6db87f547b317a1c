// bench_serve — serve-session load generator. Drives the api::Solver the
// way tools/wtam_serve.cpp does (one job per request on a worker pool,
// every job sharing one memoizing ResultCache) and publishes throughput,
// cache hit rate, and tail-latency percentiles to BENCH_serve.json.
//
// Seven phases, extending the CI serve soak (cmake/cli_checks.cmake):
//   * cold — unique (soc, width) points: every request is a cache miss,
//     so this phase prices the raw solve path;
//   * soak — the 102-request mix (34 x {d695 w12/w14/w16 rectpack}): the
//     first request per point computes, concurrent duplicates coalesce
//     onto it, the rest hit — the steady-state serve workload;
//   * warm — the same 102 requests replayed against the hot cache: the
//     pure lookup path, the floor the server can promise;
//   * warm_boot — the cache is snapshotted to disk (api/cache_store),
//     loaded into a FRESH cache, and the cold sweep replayed against it:
//     every request must hit (100% — asserted) with testing times
//     byte-identical to the cold run, pricing the restart story;
//   * fleet — the distributed tier end-to-end: a wtam_router with two
//     wtam_serve workers (found next to this binary) first replays the
//     sweep (testing times must match the in-process reference), then
//     takes a 40-job unique-key burst against --queue-limit 4 — the
//     saturated fleet must SHED (status "overloaded", serve.router.shed
//     counted — both asserted) rather than stall: every burst job gets
//     an answer or this bench exits 1;
//   * pipe / tcp — the transport comparison: sequential request/response
//     round-trips of one cached point against a single wtam_serve worker,
//     first over its stdin/stdout pipes, then over a localhost socket
//     (--listen 127.0.0.1:0). After the priming solve every round is a
//     cache hit, so the percentiles price the transport itself — what a
//     multi-host deployment pays per hop relative to a local fleet.
//
// Per-request latency (submit -> result) feeds an obs::Histogram;
// p50/p90/p95/p99 come from its merged quantiles. Determinism is part of
// the contract: every result for the same point must report the same
// testing time in every phase — cache hits are byte-identical to the
// cold run — else this bench exits 1.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/cache_store.hpp"
#include "api/job_io.hpp"
#include "api/json_value.hpp"
#include "api/result_cache.hpp"
#include "api/solver.hpp"
#include "bench_util.hpp"
#include "common/subprocess.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "serve/worker_link.hpp"

namespace {

using namespace wtam;

/// Fixed worker count so the artifact is comparable across machines
/// (mirrors a small serve deployment; the box's hardware_threads is
/// recorded alongside).
constexpr int kWorkers = 4;

api::SolveRequest make_request(std::string id, int width) {
  api::SolveRequest request;
  request.id = std::move(id);
  request.soc = "d695";
  request.width = width;
  request.backend = "rectpack";
  return request;
}

struct PhaseStats {
  std::string name;
  std::size_t requests = 0;
  double wall_s = 0.0;
  std::int64_t hits = 0;       // cache lookup deltas over the phase
  std::int64_t misses = 0;
  std::int64_t coalesced = 0;
  obs::HistogramData latency;  // submit -> result, ns

  [[nodiscard]] double throughput_rps() const {
    return wall_s > 0 ? static_cast<double>(requests) / wall_s : 0.0;
  }
  /// Share of lookups served without running an engine (hit or
  /// coalesced onto an in-flight duplicate).
  [[nodiscard]] double hit_rate() const {
    const std::int64_t lookups = hits + misses + coalesced;
    return lookups > 0
               ? static_cast<double>(hits + coalesced) /
                     static_cast<double>(lookups)
               : 0.0;
  }
};

/// Runs one phase: submits every request to the pool, waits for the
/// batch, and deposits each point's testing time into `reference` —
/// first writer sets the expected value, later phases must agree.
PhaseStats run_phase(const std::string& name,
                     const std::vector<api::SolveRequest>& requests,
                     const api::Solver& solver, const api::ResultCache& cache,
                     common::ThreadPool& pool,
                     std::map<int, std::int64_t>& reference,
                     bool& deterministic) {
  obs::Histogram latency;
  // One slot per request, each task writes only its own index.
  std::vector<std::int64_t> testing_times(requests.size(), -1);
  common::CompletionLatch latch;

  const api::ResultCacheStats before = cache.stats();
  common::Stopwatch wall;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    pool.submit([&, i, queued = common::Stopwatch()] {
      try {
        const api::SolveResult result = solver.solve(requests[i]);
        if (result.has_outcome())
          testing_times[i] = result.outcome->testing_time;
        latency.record_ns(queued.elapsed_ns());
      } catch (...) {
        latch.record_error(std::current_exception());
      }
      latch.arrive();
    });
  }
  latch.wait(requests.size());

  PhaseStats stats;
  stats.name = name;
  stats.requests = requests.size();
  stats.wall_s = wall.elapsed_s();
  if (const std::exception_ptr error = latch.take_error())
    std::rethrow_exception(error);

  const api::ResultCacheStats after = cache.stats();
  stats.hits = static_cast<std::int64_t>(after.hits - before.hits);
  stats.misses = static_cast<std::int64_t>(after.misses - before.misses);
  stats.coalesced =
      static_cast<std::int64_t>(after.coalesced - before.coalesced);
  stats.latency = latency.merged();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const int width = requests[i].width;
    if (testing_times[i] < 0) {
      std::cerr << "FATAL: " << name << " request " << requests[i].id
                << " produced no outcome\n";
      deterministic = false;
      continue;
    }
    const auto [it, inserted] = reference.emplace(width, testing_times[i]);
    if (!inserted && it->second != testing_times[i]) {
      std::cerr << "FATAL: " << name << " request " << requests[i].id
                << " returned " << testing_times[i] << " cycles; width "
                << width << " previously returned " << it->second << "\n";
      deterministic = false;
    }
  }
  return stats;
}

/// Everything the fleet phase measures beyond the common PhaseStats.
struct FleetOutcome {
  PhaseStats stats;
  std::int64_t ok_responses = 0;
  std::int64_t shed_responses = 0;
  std::int64_t router_shed_counter = 0;  // serve.router.shed from metrics
  std::int64_t respawns = 0;
  bool completed = false;  // every submitted job answered before timeout
};

/// Drives wtam_router (2 wtam_serve workers, --queue-limit 4) over its
/// NDJSON stdin/stdout: first the 12-width sweep (results must match
/// the in-process reference), then a 40-job unique-key burst that
/// saturates the fleet — the router must shed, not stall.
FleetOutcome run_fleet_phase(const std::string& bin_dir,
                             std::map<int, std::int64_t>& reference,
                             bool& deterministic) {
  FleetOutcome outcome;
  outcome.stats.name = "fleet";

  common::Subprocess router({bin_dir + "/wtam_router", "--workers", "2",
                             "--queue-limit", "4", "--serve",
                             bin_dir + "/wtam_serve", "--quiet"});

  common::Mutex mutex;
  // All three are only touched under `mutex` (reader thread + main).
  std::unordered_map<std::string, common::Stopwatch> pending;
  std::vector<api::JsonValue> responses;
  std::vector<api::JsonValue> op_acks;
  obs::Histogram latency;

  std::thread reader([&] {
    std::string line;
    while (router.framer().read_line(line) ==
           common::LineFramer::Status::Line) {
      api::JsonValue value;
      try {
        value = api::JsonValue::parse(line);
      } catch (const std::exception&) {
        continue;
      }
      const common::MutexLock lock(mutex);
      const api::JsonValue* id = value.find("id");
      if (id != nullptr && id->kind() == api::JsonValue::Kind::String) {
        if (const auto it = pending.find(id->as_string());
            it != pending.end()) {
          latency.record_ns(it->second.elapsed_ns());
          pending.erase(it);
        }
        responses.push_back(std::move(value));
      } else if (value.find("op") != nullptr) {
        op_acks.push_back(std::move(value));
      }
    }
  });

  const auto submit = [&](const api::SolveRequest& request) {
    const std::string line =
        api::job_to_json(request).dump_compact_string();
    {
      const common::MutexLock lock(mutex);
      pending.emplace(request.id, common::Stopwatch());
    }
    (void)router.write_line(line);
  };
  // Bounded wait: a fleet that stalls is exactly the failure this phase
  // exists to catch, so the timeout is an assertion, not a convenience.
  const auto wait_until = [&](const auto& done) {
    for (int i = 0; i < 36000; ++i) {
      {
        const common::MutexLock lock(mutex);
        if (done()) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };

  common::Stopwatch wall;

  // Sweep: same 12 points as the cold phase; fresh worker caches, so
  // these are real solves routed by key — the reference ties the fleet
  // to the in-process results byte-for-byte (testing_time equality).
  for (int width = 17; width <= 28; ++width) {
    api::SolveRequest request = make_request("fleet-w" + std::to_string(width),
                                             width);
    submit(request);
  }
  if (!wait_until([&] { return responses.size() >= 12; })) {
    std::cerr << "FATAL: fleet sweep stalled (responses never arrived)\n";
    deterministic = false;
    return outcome;
  }

  // Saturation burst: unique keys (per-job rectpack seed) so nothing
  // caches; 40 near-simultaneous jobs against 2x queue-limit 4 must
  // drive the router into shedding.
  for (int i = 0; i < 40; ++i) {
    api::SolveRequest request =
        make_request("burst-" + std::to_string(i), 17 + (i % 12));
    request.options.rectpack.seed = 1000 + i;
    submit(request);
  }
  if (!wait_until(
          [&] { return responses.size() >= 52; })) {
    std::cerr << "FATAL: fleet burst stalled (shed or answer never came)\n";
    deterministic = false;
    return outcome;
  }
  outcome.completed = true;
  outcome.stats.requests = 52;

  // Scrape the fleet before shutdown: merged stats carry the router
  // section, merged metrics the serve.router.* counters.
  (void)router.write_line("{\"op\": \"stats\"}");
  (void)router.write_line("{\"op\": \"metrics\", \"drain\": true}");
  (void)router.write_line("{\"op\": \"shutdown\"}");
  if (!wait_until(
          [&] { return op_acks.size() >= 3; })) {
    std::cerr << "FATAL: fleet control verbs went unanswered\n";
    deterministic = false;
  }
  router.close_stdin();
  reader.join();
  (void)router.wait();
  outcome.stats.wall_s = wall.elapsed_s();
  outcome.stats.latency = latency.merged();

  const common::MutexLock lock(mutex);
  for (const api::JsonValue& response : responses) {
    const api::JsonValue* status = response.find("status");
    if (status == nullptr) continue;
    if (status->as_string() == "overloaded") {
      ++outcome.shed_responses;
      continue;
    }
    if (status->as_string() != "ok") {
      std::cerr << "FATAL: fleet job " << response.find("id")->as_string()
                << " came back " << status->as_string() << "\n";
      deterministic = false;
      continue;
    }
    ++outcome.ok_responses;
    // Sweep responses must agree with the in-process phases.
    const std::string& id = response.find("id")->as_string();
    if (id.rfind("fleet-w", 0) == 0) {
      const int width = static_cast<int>(response.find("width")->as_int());
      const std::int64_t testing_time =
          response.find("testing_time")->as_int();
      const auto [it, inserted] = reference.emplace(width, testing_time);
      if (!inserted && it->second != testing_time) {
        std::cerr << "FATAL: fleet width " << width << " returned "
                  << testing_time << " cycles; in-process reference is "
                  << it->second << "\n";
        deterministic = false;
      }
    }
  }
  for (const api::JsonValue& ack : op_acks) {
    const api::JsonValue* op = ack.find("op");
    if (op == nullptr) continue;
    if (op->as_string() == "stats") {
      if (const api::JsonValue* cache_section = ack.find("cache")) {
        outcome.stats.hits = cache_section->find("hits")->as_int();
        outcome.stats.misses = cache_section->find("misses")->as_int();
      }
      if (const api::JsonValue* router_section = ack.find("router"))
        outcome.respawns = router_section->find("respawns")->as_int();
    } else if (op->as_string() == "metrics") {
      if (const api::JsonValue* counters = ack.find("counters"))
        if (const api::JsonValue* shed = counters->find("serve.router.shed"))
          outcome.router_shed_counter = shed->as_int();
    }
  }
  return outcome;
}

/// Sequential request/response round-trips over one WorkerLink. A
/// priming solve warms the worker's cache first, so every measured
/// round is a hit and the histogram prices the transport itself
/// (framing, syscalls, wakeups), not the solver.
PhaseStats run_transport_phase(const std::string& name,
                               serve::WorkerLink& link,
                               std::map<int, std::int64_t>& reference,
                               bool& deterministic) {
  PhaseStats stats;
  stats.name = name;
  constexpr int kRounds = 200;
  const auto round_trip = [&](const std::string& id) {
    const api::SolveRequest request = make_request(id, 12);
    if (!link.write_line(api::job_to_json(request).dump_compact_string()))
      throw std::runtime_error(name + " worker rejected the request");
    const std::optional<std::string> line = link.read_line();
    if (!line) throw std::runtime_error(name + " worker hung up");
    return api::JsonValue::parse(*line);
  };
  (void)round_trip(name + "-prime");  // the only real solve

  obs::Histogram latency;
  common::Stopwatch wall;
  for (int i = 0; i < kRounds; ++i) {
    const common::Stopwatch rt;
    const api::JsonValue response = round_trip(name + "-" + std::to_string(i));
    latency.record_ns(rt.elapsed_ns());
    const api::JsonValue* status = response.find("status");
    if (status == nullptr || status->as_string() != "ok") {
      std::cerr << "FATAL: " << name << " round " << i
                << " came back without an ok result\n";
      deterministic = false;
      continue;
    }
    const api::JsonValue* cache_state = response.find("cache");
    if (cache_state != nullptr && cache_state->as_string() == "hit")
      ++stats.hits;
    else
      ++stats.misses;
    const std::int64_t testing_time = response.find("testing_time")->as_int();
    const auto [it, inserted] = reference.emplace(12, testing_time);
    if (!inserted && it->second != testing_time) {
      std::cerr << "FATAL: " << name << " round " << i << " returned "
                << testing_time << " cycles; reference is " << it->second
                << "\n";
      deterministic = false;
    }
  }
  stats.requests = kRounds;
  stats.wall_s = wall.elapsed_s();
  stats.latency = latency.merged();
  return stats;
}

}  // namespace

int main(int, char** argv) {
  const auto cache = std::make_shared<api::ResultCache>();
  // One solve worker per job, exactly like wtam_serve: concurrency comes
  // from the pool, duplicate suppression from the shared cache.
  const api::Solver solver(api::SolverOptions::with_threads(1, cache));
  common::ThreadPool pool(kWorkers);

  // Phase request mixes. The soak mirrors cmake/cli_checks.cmake: 34
  // rounds of the three points, interleaved, 102 requests total.
  std::vector<api::SolveRequest> cold;
  for (int width = 17; width <= 28; ++width)
    cold.push_back(make_request("cold-w" + std::to_string(width), width));

  std::vector<api::SolveRequest> soak;
  for (int round = 0; round < 34; ++round) {
    const std::string suffix = std::to_string(round);
    soak.push_back(make_request("x" + suffix, 12));
    soak.push_back(make_request("y" + suffix, 14));
    soak.push_back(make_request("z" + suffix, 16));
  }

  std::map<int, std::int64_t> reference;
  bool deterministic = true;
  std::vector<PhaseStats> phases;
  try {
    phases.push_back(run_phase("cold", cold, solver, *cache, pool, reference,
                               deterministic));
    phases.push_back(run_phase("soak", soak, solver, *cache, pool, reference,
                               deterministic));
    phases.push_back(run_phase("warm", soak, solver, *cache, pool, reference,
                               deterministic));
  } catch (const std::exception& e) {
    std::cerr << "FATAL: " << e.what() << "\n";
    return 1;
  }

  // --- warm-boot persistence phase -----------------------------------------
  // Snapshot to disk, load into a FRESH cache, replay the cold sweep:
  // the restart path must serve 100% hits, byte-identical to the cold
  // run (run_phase's reference check enforces the identity).
  const std::string snapshot_path = "BENCH_serve_cache.bin";
  try {
    (void)api::save_cache_file(*cache, snapshot_path);
    const auto booted = std::make_shared<api::ResultCache>();
    const api::CacheLoadStats loaded =
        api::load_cache_file(*booted, snapshot_path);
    const api::Solver booted_solver(
        api::SolverOptions::with_threads(1, booted));
    booted->reset_stats();
    std::vector<api::SolveRequest> replay = cold;
    for (std::size_t i = 0; i < replay.size(); ++i)
      replay[i].id = "boot-w" + std::to_string(replay[i].width);
    phases.push_back(run_phase("warm_boot", replay, booted_solver, *booted,
                               pool, reference, deterministic));
    const PhaseStats& boot = phases.back();
    if (!loaded.clean_tail || boot.misses != 0 ||
        boot.hits != static_cast<std::int64_t>(boot.requests)) {
      std::cerr << "FATAL: warm boot not fully warm (loaded "
                << loaded.entries_loaded << " entries, " << boot.hits << "/"
                << boot.requests << " hits, " << boot.misses << " misses)\n";
      deterministic = false;
    }
  } catch (const std::exception& e) {
    std::cerr << "FATAL: warm boot phase: " << e.what() << "\n";
    deterministic = false;
  }
  std::remove(snapshot_path.c_str());

  // --- distributed fleet phase ---------------------------------------------
  // wtam_router + 2 wtam_serve workers live next to this binary in the
  // build tree.
  const std::string self = argv[0];
  const std::size_t slash = self.find_last_of('/');
  const std::string bin_dir =
      slash == std::string::npos ? std::string(".") : self.substr(0, slash);
  FleetOutcome fleet;
  try {
    fleet = run_fleet_phase(bin_dir, reference, deterministic);
    phases.push_back(fleet.stats);
    if (!fleet.completed) deterministic = false;
    if (fleet.shed_responses == 0 || fleet.router_shed_counter == 0) {
      std::cerr << "FATAL: saturation burst never shed (responses "
                << fleet.shed_responses << ", serve.router.shed "
                << fleet.router_shed_counter << ")\n";
      deterministic = false;
    }
  } catch (const std::exception& e) {
    std::cerr << "FATAL: fleet phase: " << e.what() << "\n";
    deterministic = false;
  }

  // --- transport phases (pipe vs localhost TCP) ----------------------------
  // The same warm round-trip workload against one worker over each
  // transport; both must report the width-12 reference time, so the
  // comparison cannot silently measure different work.
  try {
    const std::unique_ptr<serve::WorkerLink> pipe_link =
        serve::make_worker_link(
            serve::WorkerSpec::local({bin_dir + "/wtam_serve", "--quiet"}));
    phases.push_back(
        run_transport_phase("pipe", *pipe_link, reference, deterministic));
    (void)pipe_link->write_line("{\"op\": \"shutdown\"}");
    (void)pipe_link->read_line();
    pipe_link->finish();
  } catch (const std::exception& e) {
    std::cerr << "FATAL: pipe transport phase: " << e.what() << "\n";
    deterministic = false;
  }
  try {
    const std::string port_file = "BENCH_serve_tcp.port";
    std::remove(port_file.c_str());
    common::Subprocess listener({bin_dir + "/wtam_serve", "--listen",
                                 "127.0.0.1:0", "--port-file", port_file,
                                 "--quiet"});
    std::string endpoint;
    for (int i = 0; i < 200 && endpoint.empty(); ++i) {
      std::ifstream in(port_file);
      std::getline(in, endpoint);
      if (endpoint.empty())
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (endpoint.empty())
      throw std::runtime_error("TCP worker never published its port");
    const std::unique_ptr<serve::WorkerLink> tcp_link =
        serve::make_worker_link(serve::WorkerSpec::connect(endpoint));
    phases.push_back(
        run_transport_phase("tcp", *tcp_link, reference, deterministic));
    // The shutdown verb stops the whole server, so the listener process
    // exits on its own and the wait() below reaps it.
    (void)tcp_link->write_line("{\"op\": \"shutdown\"}");
    (void)tcp_link->read_line();
    (void)listener.wait();
    std::remove(port_file.c_str());
  } catch (const std::exception& e) {
    std::cerr << "FATAL: tcp transport phase: " << e.what() << "\n";
    deterministic = false;
  }

  // --- human-readable table ------------------------------------------------
  common::TextTable table("serve soak (" + std::to_string(kWorkers) +
                          " workers, shared result cache)");
  table.set_header({"phase", "requests", "wall (s)", "req/s", "hit rate",
                    "p50 (ms)", "p90 (ms)", "p95 (ms)", "p99 (ms)",
                    "max (ms)"},
                   {common::Align::Left, common::Align::Right,
                    common::Align::Right, common::Align::Right,
                    common::Align::Right, common::Align::Right,
                    common::Align::Right, common::Align::Right,
                    common::Align::Right, common::Align::Right});
  const auto ms = [](double ns) { return ns / 1e6; };
  for (const auto& phase : phases)
    table.add_row({phase.name, std::to_string(phase.requests),
                   common::format_fixed(phase.wall_s, 3),
                   common::format_fixed(phase.throughput_rps(), 1),
                   common::format_fixed(phase.hit_rate() * 100.0, 1) + "%",
                   common::format_fixed(ms(phase.latency.quantile(0.5)), 3),
                   common::format_fixed(ms(phase.latency.quantile(0.9)), 3),
                   common::format_fixed(ms(phase.latency.quantile(0.95)), 3),
                   common::format_fixed(ms(phase.latency.quantile(0.99)), 3),
                   common::format_fixed(
                       ms(static_cast<double>(phase.latency.max)), 3)});
  std::cout << table << '\n';

  // --- machine-readable artifact -------------------------------------------
  bench::Json document = bench::Json::object();
  document.set("bench", bench::Json::string("serve"));
  document.set("hardware_threads",
               bench::Json::number(static_cast<std::int64_t>(
                   common::ThreadPool::hardware_threads())));
  document.set("workers",
               bench::Json::number(static_cast<std::int64_t>(kWorkers)));

  std::size_t total_requests = 0;
  double total_wall = 0.0;
  bench::Json phase_array = bench::Json::array();
  for (const auto& phase : phases) {
    total_requests += phase.requests;
    total_wall += phase.wall_s;
    bench::Json entry = bench::Json::object();
    entry.set("name", bench::Json::string(phase.name));
    entry.set("requests", bench::Json::number(
                              static_cast<std::int64_t>(phase.requests)));
    entry.set("wall_s", bench::Json::number(phase.wall_s));
    entry.set("throughput_rps", bench::Json::number(phase.throughput_rps()));
    entry.set("cache_hits", bench::Json::number(phase.hits));
    entry.set("cache_misses", bench::Json::number(phase.misses));
    entry.set("cache_coalesced", bench::Json::number(phase.coalesced));
    entry.set("hit_rate", bench::Json::number(phase.hit_rate()));
    if (phase.name == "fleet") {
      entry.set("ok_responses", bench::Json::number(fleet.ok_responses));
      entry.set("shed_responses", bench::Json::number(fleet.shed_responses));
      entry.set("router_shed_counter",
                bench::Json::number(fleet.router_shed_counter));
      entry.set("worker_respawns", bench::Json::number(fleet.respawns));
    }
    bench::Json latency = bench::Json::object();
    latency.set("p50", bench::Json::number(phase.latency.quantile(0.5)));
    latency.set("p90", bench::Json::number(phase.latency.quantile(0.9)));
    latency.set("p95", bench::Json::number(phase.latency.quantile(0.95)));
    latency.set("p99", bench::Json::number(phase.latency.quantile(0.99)));
    latency.set("max", bench::Json::number(phase.latency.max));
    latency.set("mean", bench::Json::number(phase.latency.mean()));
    entry.set("latency_ns", std::move(latency));
    phase_array.push(std::move(entry));
  }
  document.set("phases", std::move(phase_array));

  bench::Json total = bench::Json::object();
  total.set("requests",
            bench::Json::number(static_cast<std::int64_t>(total_requests)));
  total.set("wall_s", bench::Json::number(total_wall));
  total.set("throughput_rps",
            bench::Json::number(total_wall > 0
                                    ? static_cast<double>(total_requests) /
                                          total_wall
                                    : 0.0));
  document.set("total", std::move(total));

  const std::string path = "BENCH_serve.json";
  bench::write_json_file(path, document);
  std::cout << "wrote " << path << "\n";

  if (!deterministic) {
    std::cerr << "FATAL: results diverged across phases (see above)\n";
    return 1;
  }
  return 0;
}
