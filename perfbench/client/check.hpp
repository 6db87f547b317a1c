// The correctness gate: every server answer is checked against an
// in-process api::Solver reference for the same request, and every
// cache-hit answer against the answer that primed its key.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "inputs.hpp"

namespace perfbench {

/// A stage span the server returned under --trace.
struct ServerSpan {
  std::string stage;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
};

/// The fields of one NDJSON result line the benchmark reads.
struct Answer {
  std::string status;
  std::string cache;
  std::int64_t testing_time = 0;
  std::int64_t lower_bound = 0;
  bool schedule_valid = false;
  int width = 0;
  std::int64_t repacks = -1;  ///< rectpack detail; -1 when absent
  std::vector<ServerSpan> trace;
};

/// nullopt when `line` is not a result object.
[[nodiscard]] std::optional<Answer> parse_answer(const std::string& line);

/// The answer with its per-send fields (id, cache provenance, trace
/// spans) removed: what must repeat byte for byte for a key.
[[nodiscard]] std::string canonical_answer(const std::string& line);

/// Solves every point in-process (no cache, `threads` batch workers).
[[nodiscard]] std::vector<wtam::api::SolveResult> reference_results(
    const std::vector<const Point*>& points, int threads);

/// Empty when `answer` agrees with `reference` on status, testing
/// time, lower bound, schedule validity and chosen width; otherwise
/// what differs.
[[nodiscard]] std::string mismatch(const Answer& answer,
                                   const wtam::api::SolveResult& reference);

}  // namespace perfbench
