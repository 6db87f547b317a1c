// The traced run's per-layer measurements, taken from outside the
// program: spans wrapped around calls to each layer's public function
// on the workload's own generated inputs. No span lives inside src/.
// Layers the server already times under --trace (soc-resolve,
// cache-lookup, validate and the enumerative engine's stages) are read
// from its answers in main.cpp; the replays time only the rest.
//
// The replays follow the call pattern of api::Solver (src/api/solver.cpp)
// and serve::Router::shard_for as of this benchmark's first version; when
// that pattern changes (say, tables cached across requests), the replay
// must change with it, or its counts and shares describe the old
// pattern. Every benchmark request asks for one width, so the replay
// times one width.
//
// Two replays, each with its own root span per request:
//   cold  `request`: job-parse -> request-key (make_request_key, once)
//         -> table-build -> <engine> -> lower-bound ->
//         result-serialize, built the way api::Solver builds a miss.
//         wrapper-design re-runs table-build's design_wrapper calls
//         beside the root (not inside it), so its share reads as the part
//         of the request table-build spends there.
//   hit   `hit-request`: one round trip through wtam_router to a
//         wtam_serve primed with the cold replay's cache. Beside it:
//         the same round trip direct to wtam_serve (pipe-rtt), an
//         in-process serve::Service::handle_line (service-hit), and the
//         in-process calls a hit makes: the router's job-parse and
//         router-key (request_keys, which resolves the SOC), the worker's
//         job-parse and request-key (make_request_key), result-serialize.
// A layer's `share` is its summed time over the summed root time of the
// replay it was measured in; layers measured in both replays report the
// one the workload's timed requests take (hit for serve_hits, cold
// otherwise).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"

namespace perfbench {

/// One span: name, start, end, parent, request id (and a variant tag
/// such as builtin/inline). Kept in memory; written at exit.
struct Span {
  std::string name;
  std::string variant;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the same log; -1 = root
  std::uint64_t request = 0;
  std::int64_t count = 1;  ///< calls the span covers
  [[nodiscard]] double duration_ns() const {
    return static_cast<double>(end_ns - start_ns);
  }
};

class SpanLog {
 public:
  explicit SpanLog(std::string pass) : pass_(std::move(pass)) {}
  [[nodiscard]] std::int64_t now_ns() const;
  /// Opens a span and returns its index.
  std::int64_t open(std::string name, std::int64_t parent,
                    std::uint64_t request, std::string variant = {});
  void close(std::int64_t index, std::int64_t count = 1);
  /// Records an already measured span.
  std::int64_t add(Span span);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::string& pass() const { return pass_; }
  /// Appends the spans as JSON lines to `path`.
  void write(const std::string& path) const;

 private:
  std::string pass_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

struct ReplayResult {
  std::size_t failed = 0;  ///< hit-path answers that were not hits
  std::vector<std::string> problems;
};

/// Replays `points` through every layer, adds the per-layer metrics to
/// `report`, and writes both span logs under `work_dir`.
[[nodiscard]] ReplayResult replay_layers(const Inputs& inputs,
                                         const std::vector<std::size_t>& points,
                                         const std::string& bin_dir,
                                         const std::string& work_dir,
                                         Report& report);

}  // namespace perfbench
