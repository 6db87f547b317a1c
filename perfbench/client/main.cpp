// perfbench_client — one benchmark run of one workload against the
// shipped wtam_serve / wtam_router binaries.
//
//   perfbench_client --workload solve_cold|serve_hits
//                    --seed N --seconds S --trace 0|1
//                    --bin-dir DIR --work-dir DIR [--rounds N]
//
// Spawns the servers fresh, drives them over their stdin/stdout pipe as
// a closed loop, checks every answer against an in-process api::Solver
// reference, and prints `metric <name> = <value> <unit>` lines followed
// by one JSON result line. --trace 0 prints the end-to-end metrics;
// --trace 1 runs the same loop with server stage spans on, then replays
// the inputs layer by layer (layers.hpp) and prints per-layer metrics.
// Exit status: 0 when every answer was correct, 1 when any was not, 2 on
// usage errors, 3 when the run itself broke (a server died, a
// percentile lacked tail support).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/json_value.hpp"
#include "check.hpp"
#include "fleet.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "report.hpp"

namespace {

using namespace perfbench;

/// A last-resort bound on the whole run: the process dies (nonzero, no
/// result line) and the servers see EOF on stdin and drain.
constexpr unsigned kAlarmSeconds = 170;
/// Set-ups per run, half before the timed loop and half after it (so
/// they sample the host at two moments); setup_s is their median.
constexpr int kSetupRepeats = 41;
/// The box the load is sized for has 4 hardware threads: the reference
/// solver uses them all, serve_hits keeps that many requests in flight,
/// and solve_cold gives wtam_serve 2 threads and 2 requests.
constexpr int kBoxThreads = 4;
constexpr int kColdServerThreads = 2;
constexpr int kColdOutstanding = 2;
constexpr int kHitWorkers = 2;
constexpr int kHitOutstanding = kBoxThreads;
/// serve_hits' figures are medians over this many equal time slices of
/// its window, so a burst of host CPU steal that covers a minority of
/// the window does not move them (its latency percentiles are taken per
/// slice too: a round trip is a chain of five thread wake-ups, so a
/// burst moves it far more than a solve). solve_cold's figures are best
/// of its passes instead (best_of_passes_figures).
constexpr int kHitSlices = 10;
/// Timed requests whose spans the traced run writes out.
constexpr std::size_t kLoggedRequests = 5000;
/// solve_cold's pass: this many rounds of distinct points (144 points,
/// about 7 s on a 4-vCPU box; --rounds changes it). The timed loop
/// sends the pass over and over, clearing the server's cache between
/// passes so every answer stays a cold solve, until --seconds have
/// passed; the first pass always completes, so the exact metrics cover
/// the same distinct points at any speed.
constexpr int kSolveColdRounds = 12;

struct Options {
  Workload workload = Workload::SolveCold;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int rounds = kSolveColdRounds;  ///< solve_cold's pass size
  std::string bin_dir;
  std::string work_dir;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench_client: " << problem << "\n"
            << "usage: perfbench_client --workload solve_cold|serve_hits "
               "--seed N --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR "
               "[--rounds N]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        const std::optional<Workload> workload = parse_workload(value);
        if (!workload.has_value()) usage("unknown workload '" + value + "'");
        options.workload = *workload;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        if (!(options.seconds > 0)) usage("--seconds must be > 0");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--rounds") {
        options.rounds = std::stoi(value);
        if (options.rounds < 1) usage("--rounds must be >= 1");
      } else if (arg == "--bin-dir") {
        options.bin_dir = value;
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload || options.bin_dir.empty() || options.work_dir.empty())
    usage("--workload, --bin-dir and --work-dir are required");
  return options;
}

/// Shares of the inputs a later claim must cite.
void describe_inputs(const Inputs& inputs, Report& report) {
  std::size_t inline_points = 0;
  for (const Point& point : inputs.points) inline_points += point.inline_soc ? 1 : 0;
  const auto count = static_cast<double>(inputs.points.size());
  report.info("workload", std::string(workload_name(inputs.workload)));
  report.info("seed", std::to_string(inputs.seed));
  report.info("hardware_threads",
              std::to_string(std::thread::hardware_concurrency()));
  report.info("distinct_points", std::to_string(inputs.points.size()));
  report.info("inline_soc_share", std::to_string(inline_points / count));
}

/// The verdict on one run's answers.
struct Verdict {
  std::size_t failed = 0;  ///< timed requests non-ok, mismatched or missing
  std::vector<std::string> problems;
  std::vector<std::optional<Answer>> timed;    ///< per exchange
  /// Per distinct point: solve_cold's first answer, serve_hits' priming
  /// answer.
  std::vector<std::optional<Answer>> quality;

  void fail(const std::string& problem) {
    if (problems.size() < 8) problems.push_back(problem);
  }
};

/// The reference answer of every distinct point.
std::vector<wtam::api::SolveResult> reference_for(const Inputs& inputs) {
  std::vector<const Point*> points;
  for (const Point& point : inputs.points) points.push_back(&point);
  return reference_results(points, kBoxThreads);
}

Verdict verify(const Inputs& inputs, const LoopResult& loop,
               const std::vector<std::string>& priming,
               const std::vector<wtam::api::SolveResult>& reference) {
  Verdict verdict;
  for (const Exchange& exchange : loop.exchanges)
    verdict.timed.push_back(parse_answer(exchange.response));

  if (inputs.workload == Workload::SolveCold) {
    verdict.quality.resize(inputs.points.size());
    for (std::size_t i = 0; i < loop.exchanges.size(); ++i) {
      const std::size_t point = loop.exchanges[i].point;
      const std::optional<Answer>& answer = verdict.timed[i];
      const std::string problem =
          answer.has_value() ? mismatch(*answer, reference[point])
                             : "unparsable answer";
      if (!problem.empty()) {
        ++verdict.failed;
        verdict.fail("request " + std::to_string(i) + ": " + problem);
      }
      if (!verdict.quality[point].has_value()) verdict.quality[point] = answer;
    }
    return verdict;
  }

  // serve_hits: the priming answers against the reference, then every
  // timed answer byte for byte against its key's priming answer.
  const std::size_t keys = inputs.points.size();
  std::vector<std::string> canonical(keys);
  std::vector<bool> key_ok(keys, false);
  for (std::size_t k = 0; k < keys; ++k) {
    std::optional<Answer> answer = parse_answer(priming[k]);
    const std::string problem =
        answer.has_value() ? mismatch(*answer, reference[k]) : "unparsable answer";
    if (problem.empty()) {
      key_ok[k] = true;
      canonical[k] = canonical_answer(priming[k]);
    } else {
      verdict.fail("key " + std::to_string(k) + ": " + problem);
    }
    verdict.quality.push_back(std::move(answer));
  }
  for (std::size_t i = 0; i < loop.exchanges.size(); ++i) {
    const Exchange& exchange = loop.exchanges[i];
    const std::optional<Answer>& answer = verdict.timed[i];
    std::string problem;
    if (!key_ok[exchange.point])
      problem = "its key's priming answer was wrong";
    else if (!answer.has_value() || answer->cache != "hit")
      problem = "not a cache hit";
    else if (canonical_answer(exchange.response) != canonical[exchange.point])
      problem = "answer differs from the priming answer";
    if (!problem.empty()) {
      ++verdict.failed;
      verdict.fail("request " + std::to_string(i) + ": " + problem);
    }
  }
  return verdict;
}

/// The tail percentile every workload reports: solve_cold's 144 points
/// support p90 (>= 10 samples beyond it). serve_hits supports p99
/// easily, but on a shared 4-vCPU host its p99 follows CPU steal (1.1 to
/// 6 ms between runs of one seed) while its p90 holds within a few
/// percent, so p99 is an info line.
constexpr double kTailQuantile = 0.90;

double percentile_or_throw(const std::vector<double>& values, double q,
                           const std::string& name) {
  const std::optional<double> value = supported_percentile(values, q);
  if (!value.has_value())
    throw std::runtime_error(name + " lacks tail support: " +
                             std::to_string(values.size()) +
                             " samples leave fewer than 10 beyond it");
  return *value;
}

/// A loop's figures, each with a note on what it was taken over.
struct LoopFigures {
  double throughput_rps = 0.0;
  double cpu_ms_per_request = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  std::string note;          ///< for throughput and CPU per request
  std::string latency_note;  ///< for the percentiles
};

std::string requests_note(const LoopResult& loop) {
  return std::to_string(loop.exchanges.size()) + " requests in " +
         std::to_string(loop.window_s) + " s";
}

/// serve_hits' figures: the medians, over the loop's time slices, of each
/// slice's answer rate, server CPU per answer and latency percentiles.
LoopFigures sliced_figures(const LoopResult& loop) {
  const std::vector<Mark>& marks = loop.marks;
  const std::size_t slices = marks.size() - 1;
  std::vector<std::vector<double>> latencies(slices);
  for (const Exchange& exchange : loop.exchanges) {
    // The slice whose (start, end] holds the answer.
    const auto end = std::lower_bound(
        marks.begin() + 1, marks.end(), exchange.done_ns,
        [](const Mark& mark, std::int64_t ns) { return mark.ns < ns; });
    latencies[static_cast<std::size_t>(end - marks.begin() - 1)].push_back(
        exchange.latency_ms());
  }
  std::vector<double> rates;
  std::vector<double> cpu;
  std::vector<double> p50s;
  std::vector<double> tails;
  for (std::size_t i = 0; i < slices; ++i) {
    const auto answers = static_cast<double>(marks[i + 1].answered - marks[i].answered);
    rates.push_back(answers * 1e9 / static_cast<double>(marks[i + 1].ns - marks[i].ns));
    cpu.push_back((marks[i + 1].cpu_s - marks[i].cpu_s) * 1e3 / answers);
    p50s.push_back(percentile_or_throw(latencies[i], 0.5, "p50"));
    tails.push_back(percentile_or_throw(latencies[i], kTailQuantile, "p90"));
  }
  LoopFigures figures;
  figures.throughput_rps = median(rates);
  figures.cpu_ms_per_request = median(cpu);
  figures.p50_ms = median(p50s);
  figures.tail_ms = median(tails);
  figures.note =
      requests_note(loop) + ", median of " + std::to_string(slices) + " slices";
  figures.latency_note = figures.note;
  return figures;
}

/// solve_cold's figures, best of its passes. The loop answers the same
/// pass again and again, so every round of the pass (a slice of
/// kRoundPoints answers) and every point is timed once per pass. Load
/// from the host's other tenants only ever adds time, and it comes and
/// goes over seconds to minutes, so the fastest of those timings is the
/// steadiest estimate of what the program needs: throughput and server
/// CPU per request add up each round's shortest slice and its least CPU,
/// and the latency percentiles are taken over each point's fastest answer.
LoopFigures best_of_passes_figures(const LoopResult& loop, std::size_t pass_points) {
  const std::vector<Mark>& marks = loop.marks;
  const auto round = static_cast<std::size_t>(kRoundPoints);
  const std::size_t rounds = pass_points / round;
  std::vector<double> best_ns(rounds, -1.0);
  std::vector<double> best_cpu_s(rounds, -1.0);
  for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
    if (marks[i].answered % round != 0 ||
        marks[i + 1].answered - marks[i].answered != round)
      continue;  // the partial round at the end of the loop
    const std::size_t r = (marks[i].answered % pass_points) / round;
    const auto ns = static_cast<double>(marks[i + 1].ns - marks[i].ns);
    const double cpu_s = marks[i + 1].cpu_s - marks[i].cpu_s;
    if (best_ns[r] < 0 || ns < best_ns[r]) best_ns[r] = ns;
    if (best_cpu_s[r] < 0 || cpu_s < best_cpu_s[r]) best_cpu_s[r] = cpu_s;
  }
  double total_ns = 0.0;
  double total_cpu_s = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    if (best_ns[r] < 0) throw std::runtime_error("a round of the pass was never timed");
    total_ns += best_ns[r];
    total_cpu_s += best_cpu_s[r];
  }
  std::vector<double> fastest(pass_points, -1.0);
  for (const Exchange& exchange : loop.exchanges) {
    double& best = fastest[exchange.point];
    if (best < 0 || exchange.latency_ms() < best) best = exchange.latency_ms();
  }
  const std::size_t passes = (loop.exchanges.size() + pass_points - 1) / pass_points;
  LoopFigures figures;
  figures.throughput_rps = static_cast<double>(pass_points) * 1e9 / total_ns;
  figures.cpu_ms_per_request = total_cpu_s * 1e3 / static_cast<double>(pass_points);
  figures.p50_ms = percentile_or_throw(fastest, 0.5, "p50");
  figures.tail_ms = percentile_or_throw(fastest, kTailQuantile, "p90");
  const std::string best_of = ", best of " + std::to_string(passes) + " passes";
  figures.note = requests_note(loop) + best_of + " per round of " +
                 std::to_string(rounds) + " rounds";
  figures.latency_note = requests_note(loop) + best_of + " per point of " +
                         std::to_string(pass_points) + " points";
  return figures;
}

/// Asks for stats and sums the `cache` section of the answer (the
/// router's is merged). Only call with no request in flight.
double cache_bytes(wtam::serve::WorkerLink& link) {
  if (!link.write_line("{\"op\": \"stats\"}"))
    throw std::runtime_error("server closed its pipe before stats");
  const wtam::api::JsonValue stats =
      wtam::api::JsonValue::parse(await_op(link, "stats"));
  const wtam::api::JsonValue* cache = stats.find("cache");
  const wtam::api::JsonValue* bytes = cache ? cache->find("bytes") : nullptr;
  return bytes ? bytes->as_double() : 0.0;
}

/// One stage span the server returned, with the kind of SOC its request
/// named.
struct StageSpan {
  std::string stage;
  bool inline_soc = false;
  double ns = 0.0;
};

/// Durations of `stage`'s spans (of one SOC kind, if given).
std::vector<double> stage_durations(const std::vector<StageSpan>& spans,
                                    const std::string& stage,
                                    std::optional<bool> inline_soc = std::nullopt) {
  std::vector<double> durations;
  for (const StageSpan& span : spans)
    if (span.stage == stage &&
        (!inline_soc.has_value() || span.inline_soc == *inline_soc))
      durations.push_back(span.ns);
  return durations;
}

/// Adds <layer>.<unit> (median per span), <layer>.per_request and
/// <layer>.share for one of the server's own stages. Counts and share come
/// from the timed answers; the median too, unless the timed requests never
/// reach the stage (serve_hits' engine and validation), when it comes
/// from the priming answers.
void add_server_stage(Report& report, const std::string& layer,
                      const std::string& stage, const std::string& unit,
                      const std::vector<StageSpan>& timed,
                      const std::vector<StageSpan>& priming,
                      std::size_t answers, double request_total_ns) {
  const std::vector<double> durations = stage_durations(timed, stage);
  const std::vector<double> primed = stage_durations(priming, stage);
  const bool from_priming = durations.empty() && !primed.empty();
  const std::vector<double>& median_of = from_priming ? primed : durations;
  double total_ns = 0.0;
  for (const double ns : durations) total_ns += ns;
  const double scale = unit == "ms" ? 1e6 : 1e3;
  const std::string note = std::to_string(durations.size()) +
                           " server '" + stage + "' spans over " +
                           std::to_string(answers) + " timed answers";
  report.add({layer + "." + unit, median(median_of) / scale, unit,
              "median of " + std::to_string(median_of.size()) + " server spans" +
                  (from_priming ? " of the priming answers" : "")});
  report.add({layer + ".per_request",
              static_cast<double>(durations.size()) /
                  static_cast<double>(std::max<std::size_t>(1, answers)),
              "count", note});
  report.add({layer + ".share", request_total_ns > 0 ? total_ns / request_total_ns : 0.0,
              "share", "of client-observed request time, " + note});
}

int run(const Options& options) {
  Report report;
  const Inputs inputs = make_inputs(options.workload, options.seed, options.rounds);
  describe_inputs(inputs, report);
  const bool hits = options.workload == Workload::ServeHits;

  std::vector<std::string> extra;
  if (options.trace) extra.push_back("--trace");
  const FleetSpec spec = hits ? router_spec(options.bin_dir, kHitWorkers, extra)
                              : serve_spec(options.bin_dir, kColdServerThreads, extra);

  // Set-up: spawn-to-ready, several times; the last fleet serves the run.
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  const int repeats = options.trace ? 1 : kSetupRepeats - kSetupRepeats / 2;
  for (int i = 0; i < repeats; ++i) {
    if (fleet) fleet->shutdown();
    fleet = std::make_unique<Fleet>(spec);
    setups.push_back(fleet->setup_s());
  }

  // serve_hits: an untimed priming pass sends each key once, while the
  // reference for the key space is solved in-process beside it (both are
  // done before the timed loop starts).
  std::vector<std::string> priming(inputs.points.size());
  std::future<std::vector<wtam::api::SolveResult>> key_reference;
  if (hits) {
    key_reference =
        std::async(std::launch::async, [&inputs] { return reference_for(inputs); });
    const LoopResult prime = closed_loop(
        fleet->link(), kHitOutstanding, 0.0, Slicing{}, "p",
        [&](std::size_t n) -> std::optional<std::size_t> {
          return n < inputs.points.size() ? std::optional(n) : std::nullopt;
        },
        [&](std::size_t point, const std::string& id) {
          return request_line(inputs.points[point], id);
        });
    for (const Exchange& exchange : prime.exchanges)
      priming[exchange.point] = exchange.response;
  }
  const std::vector<wtam::api::SolveResult> hit_reference =
      hits ? key_reference.get() : std::vector<wtam::api::SolveResult>{};

  // The timed loop. serve_hits draws keys for --seconds; solve_cold sends
  // its pass over and over (the first pass whole), with a barrier between
  // passes that clears the server's cache. The cache's size is read once
  // it holds one whole pass or the primed key space.
  KeySequence keys(options.seed, inputs.points.size());
  std::size_t position = 0;  // in solve_cold's pass
  int passes = 0;            // begun
  bool whole_pass = false;   // one pass was sent whole
  double server_cache_bytes = -1.0;
  const auto loop_start = std::chrono::steady_clock::now();
  const auto next_cold = [&]() -> std::optional<std::size_t> {
    const auto time_up = [&] {
      return std::chrono::steady_clock::now() - loop_start >=
             std::chrono::duration<double>(options.seconds);
    };
    if (position == inputs.points.size()) {
      position = 0;
      whole_pass = true;
      return time_up() ? std::nullopt : std::optional(kBarrier);
    }
    if (whole_pass && time_up()) return std::nullopt;
    if (position == 0) ++passes;
    return position++;
  };
  const LoopResult loop = closed_loop(
      fleet->link(), hits ? kHitOutstanding : kColdOutstanding,
      hits ? options.seconds : 0.0,
      hits ? Slicing{0, options.seconds / kHitSlices}
           : Slicing{static_cast<std::size_t>(kRoundPoints), 0.0},
      "q",
      [&](std::size_t) -> std::optional<std::size_t> {
        return hits ? keys.next() : next_cold();
      },
      [&](std::size_t point, const std::string& id) {
        return request_line(inputs.points[point], id);
      },
      [&] {
        if (server_cache_bytes < 0) server_cache_bytes = cache_bytes(fleet->link());
        if (!fleet->link().write_line("{\"op\": \"cache_clear\"}"))
          throw std::runtime_error("server closed its pipe before cache_clear");
        (void)await_op(fleet->link(), "cache_clear");
      });
  const TreeSample after = sample_process_tree();
  if (server_cache_bytes < 0) server_cache_bytes = cache_bytes(fleet->link());
  fleet->shutdown();
  fleet.reset();
  for (int i = 0; !options.trace && i < kSetupRepeats / 2; ++i) {
    Fleet again(spec);
    setups.push_back(again.setup_s());
    again.shutdown();
  }

  const Verdict verdict =
      verify(inputs, loop, priming, hits ? hit_reference : reference_for(inputs));
  for (const std::string& problem : verdict.problems)
    std::cerr << "perfbench_client: " << problem << '\n';

  std::vector<double> latencies;
  std::size_t hit_answers = 0;
  for (std::size_t i = 0; i < loop.exchanges.size(); ++i) {
    latencies.push_back(loop.exchanges[i].latency_ms());
    if (verdict.timed[i].has_value() && verdict.timed[i]->cache == "hit")
      ++hit_answers;
  }
  const auto sent = static_cast<double>(loop.exchanges.size());
  report.info("requests_sent", std::to_string(loop.exchanges.size()));
  report.info("requests_failed", std::to_string(verdict.failed));
  report.info("requests_succeeded",
              std::to_string(loop.exchanges.size() - verdict.failed));
  report.info("cache_hit_share", std::to_string(hit_answers / sent));
  report.info("window_s", std::to_string(loop.window_s));
  if (!hits) report.info("passes", std::to_string(passes));
  report.info("server_cache_bytes", std::to_string(server_cache_bytes));
  report.info("failed_share", std::to_string(verdict.failed / sent));

  // Exact quality over the distinct points.
  double cycles = 0.0;
  std::size_t at_bound = 0;
  for (const std::optional<Answer>& answer : verdict.quality)
    if (answer.has_value()) {
      cycles += static_cast<double>(answer->testing_time);
      at_bound += answer->testing_time == answer->lower_bound ? 1 : 0;
    }
  const auto quality = static_cast<double>(verdict.quality.size());
  // Every percentile the run supports, by name (p50 and p90 are also
  // metrics below).
  for (const double q : {0.5, 0.75, 0.9, 0.99})
    if (const std::optional<double> value = supported_percentile(latencies, q))
      report.info("latency_p" + std::to_string(static_cast<int>(q * 100 + 0.5)) + "_ms",
                  std::to_string(*value));
  const LoopFigures figures =
      hits ? sliced_figures(loop) : best_of_passes_figures(loop, inputs.points.size());

  if (!options.trace) {
    report.add({"setup_s", median(setups), "s",
                "median of " + std::to_string(setups.size()) + " set-ups"});
    report.add({"throughput_rps", figures.throughput_rps, "1/s", figures.note});
    report.add({"latency_p50_ms", figures.p50_ms, "ms", figures.latency_note});
    report.add({"latency_p90_ms", figures.tail_ms, "ms", figures.latency_note});
    report.add({"testing_time_cycles", cycles, "cycles",
                "sum over " + std::to_string(verdict.quality.size()) +
                    " distinct points"});
    report.add({"lower_bound_share", at_bound / quality, "share",
                "of " + std::to_string(verdict.quality.size()) + " distinct points"});
    report.add({"peak_rss_mb", after.hwm_mib, "MiB",
                "VmHWM over " + std::to_string(after.processes) + " processes"});
    report.add({"server_cpu_ms_per_request", figures.cpu_ms_per_request, "ms",
                "utime+stime of the server tree per answer, " + figures.note});
    std::cout << report.result_json(verdict.failed == 0, loop.exchanges.size(),
                                    verdict.failed)
              << std::endl;
    return verdict.failed == 0 ? 0 : 1;
  }

  // Traced run: its own end-to-end numbers (the tracing overhead is the
  // difference from the untraced run), the server's stage spans beside
  // the client's request spans, then the layer replay.
  std::filesystem::create_directories(options.work_dir);
  const std::string spans_path =
      options.work_dir + "/spans-" + std::string(workload_name(options.workload)) +
      "-" + std::to_string(options.seed) + ".jsonl";
  std::filesystem::remove(spans_path);
  report.add({"trace.throughput_rps", figures.throughput_rps, "1/s", figures.note});
  report.add({"trace.latency_p50_ms", figures.p50_ms, "ms", figures.latency_note});
  report.add({"cache.hit_share", hit_answers / sent, "share",
              "of " + std::to_string(loop.exchanges.size()) +
                  " requests in the timed window"});
  report.add({"cache.bytes", server_cache_bytes, "bytes", "server cache at the end"});

  SpanLog timed_log("timed");
  std::vector<StageSpan> timed;
  std::vector<StageSpan> primed;
  double request_total_ns = 0.0;
  std::size_t traced_answers = 0;
  // Statistics use every answer; the written log keeps the first
  // kLoggedRequests timed requests (serve_hits answers ~120k per run).
  const auto record = [&](const std::string& response, std::size_t point,
                          std::int64_t root, std::int64_t origin,
                          std::uint64_t request, bool log,
                          std::vector<StageSpan>& into) {
    const std::optional<Answer> answer = parse_answer(response);
    if (!answer.has_value()) return false;
    for (const ServerSpan& span : answer->trace) {
      if (log)
        timed_log.add(Span{"server:" + span.stage, {}, origin + span.start_ns,
                           origin + span.start_ns + span.duration_ns, root, request, 1});
      into.push_back(StageSpan{span.stage, inputs.points[point].inline_soc,
                               static_cast<double>(span.duration_ns)});
    }
    return true;
  };
  for (std::size_t i = 0; i < loop.exchanges.size(); ++i) {
    const Exchange& exchange = loop.exchanges[i];
    const bool log = i < kLoggedRequests;
    const std::int64_t root =
        log ? timed_log.add(Span{"request", {}, exchange.sent_ns, exchange.done_ns, -1, i, 1})
            : -1;
    request_total_ns += static_cast<double>(exchange.done_ns - exchange.sent_ns);
    if (record(exchange.response, exchange.point, root, exchange.sent_ns, i, log, timed))
      ++traced_answers;
  }
  // serve_hits' engine and validation spans come from its priming answers.
  for (std::size_t k = 0; k < priming.size(); ++k)
    (void)record(priming[k], k, -1, 0, k, true, primed);
  const auto server_stage = [&](const std::string& layer, const std::string& stage,
                                const std::string& unit) {
    add_server_stage(report, layer, stage, unit, timed, primed, traced_answers,
                     request_total_ns);
  };
  server_stage("server.queue-wait", "queue-wait", "us");
  server_stage("server.partition-search", "partition-search", "ms");
  server_stage("server.exact-step", "exact-step", "ms");
  server_stage("cache-lookup", "cache-lookup", "us");
  server_stage("validate", "validate", "us");
  for (const bool inline_soc : {false, true}) {
    const std::vector<double> durations = stage_durations(timed, "soc-resolve", inline_soc);
    const std::string kind = inline_soc ? "inline" : "builtin";
    report.add({"soc-resolve." + kind + "_us", median(durations) / 1e3, "us",
                "median of " + std::to_string(durations.size()) +
                    " server spans of " + kind + " SOCs"});
  }
  server_stage("soc-resolve", "soc-resolve", "us");

  // The layer replay covers the first third of the pass (whole rounds,
  // so the same cost mix) or the whole key space.
  const std::size_t replayed =
      hits ? inputs.points.size()
           : static_cast<std::size_t>(kRoundPoints) *
                 static_cast<std::size_t>(std::max(1, options.rounds / 3));
  std::vector<std::size_t> replay_points;
  for (std::size_t i = 0; i < std::min(replayed, inputs.points.size()); ++i)
    replay_points.push_back(i);
  const ReplayResult replay = replay_layers(inputs, replay_points, options.bin_dir,
                                            options.work_dir, report);
  timed_log.write(spans_path);
  for (const std::string& problem : replay.problems)
    std::cerr << "perfbench_client: " << problem << '\n';
  const std::size_t failed = verdict.failed + replay.failed;
  std::cout << report.result_json(failed == 0, loop.exchanges.size(), failed)
            << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  alarm(kAlarmSeconds);
  const Options options = parse_options(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_client: run failed: " << e.what() << '\n';
    return 3;
  }
}
