#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "api/job_io.hpp"
#include "common/rng.hpp"
#include "soc/generator.hpp"
#include "soc/load.hpp"
#include "soc/soc_io.hpp"

namespace perfbench {

namespace {

using wtam::api::SolveRequest;
using wtam::common::Rng;

constexpr std::array<const char*, 2> kBackends = {"enumerative", "rectpack"};
constexpr int kMinWidth = 16;
constexpr int kMaxWidth = 64;
constexpr int kWidthSpan = kMaxWidth - kMinWidth + 1;  // 49
/// Coprime with kWidthSpan: r * stride walks all 49 widths before any
/// repeats, and a golden-ratio stride spreads every prefix evenly.
constexpr int kWidthStride = 30;
/// Synthetic SOCs per solve_cold round, each asked once,
/// with backends alternating (more distinct SOCs average out more of
/// the seed's effect than one SOC asked twice).
constexpr int kSyntheticPerRound = 4;
/// Built-in (SOC, backend) cells: 4 SOCs x 2 backends.
constexpr int kBuiltinCells = 8;
/// Cells of one solve_cold round.
constexpr int kStreamCells = kBuiltinCells + kSyntheticPerRound;
static_assert(kStreamCells == kRoundPoints);
/// serve_hits key space: built-in keys per (SOC, backend) cell, and as
/// many synthetic SOCs (each keyed once, backends alternating), so the
/// space is half built-in names and half inline text.
constexpr int kHitWidthsPerBuiltin = 12;
constexpr int kHitSynthetic = kBuiltinCells * kHitWidthsPerBuiltin;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return wtam::common::splitmix64(state);
}

/// A 12-core SOC (9 logic, 3 memory) drawn from the p21241 class ranges
/// (the paper's Table 4), its test-data volume calibrated so testing
/// times land on the built-ins' cycle scale. The core count is fixed so
/// the seed varies what the cores are, not how much work a solve is.
wtam::soc::Soc synthetic_soc(std::uint64_t seed, int index) {
  wtam::soc::SyntheticSpec spec;
  spec.name = "syn" + std::to_string(seed) + "_" + std::to_string(index);
  spec.seed = mix(seed, 0x5000 + static_cast<std::uint64_t>(index));
  spec.logic_cores = 9;
  spec.logic.patterns = {1, 785};
  spec.logic.ios = {37, 1197};
  spec.logic.chains = {1, 31};
  spec.logic.chain_len = {1, 400};
  spec.memory_cores = 3;
  spec.memory.patterns = {222, 12324};
  spec.memory.ios = {52, 148};
  spec.target_volume = 250'000LL * (spec.logic_cores + spec.memory_cores);
  spec.core_floor_time_cap = 150'000;
  return wtam::soc::generate_soc(spec);
}

Point make_point(SolveRequest request, bool inline_soc) {
  Point point;
  point.inline_soc = inline_soc;
  point.request = std::move(request);
  const std::string line =
      wtam::api::job_to_json(point.request).dump_compact_string();
  point.body = line.substr(1);
  return point;
}

Point builtin_point(const std::string& name, const char* backend, int width) {
  SolveRequest request;
  request.soc = name;
  request.backend = backend;
  request.width = width;
  return make_point(std::move(request), false);
}

Point inline_point(const std::string& text, const char* backend, int width) {
  SolveRequest request;
  request.soc_inline = text;
  request.backend = backend;
  request.width = width;
  return make_point(std::move(request), true);
}

std::vector<std::string> builtin_names() {
  std::vector<std::string> names;
  for (const std::string_view name : wtam::soc::builtin_soc_names())
    names.emplace_back(name);
  return names;
}

/// One point per cell per round; `cell_width(cell, round)` gives the
/// width of a cell in a round. Rounds are shuffled
/// internally so the two outstanding requests pair cells at random.
template <typename CellWidth>
std::vector<Point> streamed_points(std::uint64_t seed, int rounds,
                                   const CellWidth& cell_width) {
  const std::vector<std::string> names = builtin_names();
  Rng order(mix(seed, 0x0dd));
  std::vector<Point> points;
  int synthetic_index = 0;
  for (int round = 0; round < rounds; ++round) {
    std::vector<Point> batch;
    int cell = 0;
    for (const std::string& name : names)
      for (const char* backend : kBackends) {
        batch.push_back(builtin_point(name, backend, cell_width(cell++, round)));
      }
    for (int s = 0; s < kSyntheticPerRound; ++s) {
      const std::string text =
          wtam::soc::write_soc_string(synthetic_soc(seed, synthetic_index++));
      batch.push_back(
          inline_point(text, kBackends[s % 2], cell_width(cell++, round)));
    }
    std::shuffle(batch.begin(), batch.end(), order);
    for (Point& point : batch) points.push_back(std::move(point));
  }
  return points;
}

/// Where each cell's width walk starts: fixed, evenly spread offsets,
/// so every seed asks every cell for the same widths and the seed varies
/// the synthetic SOCs and the send order only. Width choice dominates a
/// point's cost and whether it reaches the lower bound, so this keeps
/// the cost mix and the quality shares steady from seed to seed.
int cell_offset(int cell, int cells, int modulus) {
  return cell * modulus / cells;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view text) {
  for (const Workload workload : {Workload::SolveCold, Workload::ServeHits})
    if (workload_name(workload) == text) return workload;
  return std::nullopt;
}

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::SolveCold: return "solve_cold";
    case Workload::ServeHits: break;
  }
  return "serve_hits";
}

std::string make_id(const char* prefix, std::uint64_t n) {
  std::string id = prefix;
  id += std::to_string(n);
  return id;
}

std::string request_line(const Point& point, const std::string& id) {
  std::string line = "{\"id\": \"";
  line += id;
  line += "\", ";
  line += point.body;
  return line;
}

Inputs make_inputs(Workload workload, std::uint64_t seed, int rounds) {
  Inputs inputs;
  inputs.workload = workload;
  inputs.seed = seed;
  switch (workload) {
    case Workload::SolveCold: {
      inputs.points = streamed_points(seed, std::clamp(rounds, 1, kWidthSpan),
                                      [&](int cell, int round) {
        return kMinWidth + (cell_offset(cell, kStreamCells, kWidthSpan) +
                            round * kWidthStride) % kWidthSpan;
      });
      break;
    }
    case Workload::ServeHits: {
      const int cells = kBuiltinCells + kHitSynthetic;
      int cell = 0;
      for (const std::string& name : builtin_names())
        for (const char* backend : kBackends) {
          for (int k = 0; k < kHitWidthsPerBuiltin; ++k) {
            const int width =
                kMinWidth + (cell_offset(cell, cells, kWidthSpan) +
                             k * kWidthStride) % kWidthSpan;
            inputs.points.push_back(builtin_point(name, backend, width));
          }
          ++cell;
        }
      for (int s = 0; s < kHitSynthetic; ++s) {
        const std::string text =
            wtam::soc::write_soc_string(synthetic_soc(seed, s));
        const int width = kMinWidth + cell_offset(cell++, cells, kWidthSpan);
        inputs.points.push_back(inline_point(text, kBackends[s % 2], width));
      }
      break;
    }
  }
  return inputs;
}

KeySequence::KeySequence(std::uint64_t seed, std::size_t keys)
    : state_(mix(seed, 0x4b5e9)), keys_(keys) {
  if (keys == 0) throw std::invalid_argument("KeySequence: empty key space");
}

std::size_t KeySequence::next() {
  return static_cast<std::size_t>(wtam::common::splitmix64(state_) % keys_);
}

}  // namespace perfbench
