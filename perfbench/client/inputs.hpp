// Seeded request generation for the two benchmark workloads.
//
// The seed is the only source of variation: the same (workload, seed)
// always yields the same requests, byte for byte. Each workload has one
// request shape, drawn in fixed-composition rounds so that the cost mix
// (and with it the latency distribution) is the same for every seed:
//
//   solve_cold    one round = every built-in SOC x both backends, plus
//                 four fresh synthetic SOCs (backends alternating), each
//                 at one width in [16, 64]. Widths follow a fixed
//                 low-discrepancy walk per cell, so no point repeats and
//                 any prefix of rounds covers the width range evenly.
//   serve_hits    a fixed key space (half built-in names, half inline
//                 synthetic SOC text, across widths and backends) and a
//                 seeded uniform sequence of keys over it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/solver.hpp"

namespace perfbench {

enum class Workload { SolveCold, ServeHits };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view text);
[[nodiscard]] std::string_view workload_name(Workload workload);

/// One distinct unit of requested work.
struct Point {
  wtam::api::SolveRequest request;  ///< id left empty
  std::string body;  ///< the job's NDJSON line without its leading '{'
  bool inline_soc = false;
};

/// "<prefix><n>", built with += (GCC 12's -Wrestrict misfires on
/// operator+ of a literal and a temporary).
[[nodiscard]] std::string make_id(const char* prefix, std::uint64_t n);

/// The job line for `point` carrying `id` (ids are per send, the rest of
/// the line is the point's).
[[nodiscard]] std::string request_line(const Point& point,
                                       const std::string& id);

struct Inputs {
  Workload workload = Workload::SolveCold;
  std::uint64_t seed = 0;
  /// solve_cold: one pass in send order, every point distinct.
  /// serve_hits: the key space. Either way the distinct points the exact
  /// metrics are taken over.
  std::vector<Point> points;
};

/// Points in one solve_cold round.
inline constexpr int kRoundPoints = 12;

/// `rounds` sizes the pass of the streamed workloads, clamped to the
/// rounds that stay distinct (49); serve_hits ignores it.
[[nodiscard]] Inputs make_inputs(Workload workload, std::uint64_t seed,
                                 int rounds);

/// serve_hits' timed key sequence: the n-th key index for `seed`.
class KeySequence {
 public:
  KeySequence(std::uint64_t seed, std::size_t keys);
  [[nodiscard]] std::size_t next();

 private:
  std::uint64_t state_;
  std::size_t keys_;
};

}  // namespace perfbench
