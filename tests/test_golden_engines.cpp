// Golden pins for both optimizer engines over a broad grid: the four
// built-in SOCs at widths 16..64, eight seeded synthetic SOCs, and two
// constrained rectpack points (power budget + precedence). Each pin is
// the testing time, the engine's shape (rectpack's winning seed ordering,
// or the enumerative partition + core assignment), and a digest of every
// placement of the wire-level schedule.
//
// The table in golden_engine_pins.inc was recorded from the engines as
// they were before they learned to stop at the lower bound; stopping
// early must not change a single pinned schedule. Every point is solved
// at engine threads 1 and 4, because both engines promise bit-identical
// results at any thread count.
//
// To print the rows for the current engines (when a deliberate change of
// behaviour has to be re-justified, never to silence a diff):
//   WTAM_GOLDEN_ENGINES_PRINT=1 ./test_golden_engines

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "common/hash.hpp"
#include "core/power.hpp"
#include "soc/benchmarks.hpp"
#include "soc/generator.hpp"

namespace wtam::api {
namespace {

constexpr const char* kPinned[] = {
#include "golden_engine_pins.inc"
};

struct Point {
  std::string label;
  SolveRequest request;
};

soc::Soc synthetic(std::uint64_t seed) {
  soc::SyntheticSpec spec;
  spec.name = "gsyn" + std::to_string(seed);
  spec.seed = seed;
  spec.logic_cores = 7 + static_cast<int>(seed % 4);
  spec.logic.patterns = {20, 500};
  spec.logic.ios = {10, 160};
  spec.logic.chains = {1, 12};
  spec.logic.chain_len = {20, 200};
  spec.memory_cores = 3 + static_cast<int>(seed % 2);
  spec.memory.patterns = {100, 3000};
  spec.memory.ios = {8, 60};
  return soc::generate_soc(spec);
}

std::vector<Point> grid() {
  std::vector<Point> points;
  const auto add = [&points](const std::string& soc_label,
                             const soc::Soc& soc, int width,
                             const std::string& backend) {
    Point point;
    point.label = soc_label + " w" + std::to_string(width) + " " + backend;
    point.request.soc_value = soc;
    point.request.width = width;
    point.request.backend = backend;
    points.push_back(std::move(point));
  };
  for (const soc::Soc& soc :
       {soc::d695(), soc::p21241(), soc::p31108(), soc::p93791()})
    for (int width = 16; width <= 64; width += 8)
      for (const char* backend : {"enumerative", "rectpack"})
        add(soc.name, soc, width, backend);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const int width = 16 + 6 * static_cast<int>(seed - 1);
    for (const char* backend : {"enumerative", "rectpack"})
      add("gsyn" + std::to_string(seed), synthetic(seed), width, backend);
  }

  // Constrained rectpack: d695 under its scan-activity powers with the
  // largest core's draw as the budget, plus precedence; and a seeded
  // constrained scenario.
  const soc::Soc d695 = soc::d695();
  add("d695 power+precedence", d695, 32, "rectpack");
  auto& d695_constraints = points.back().request.options.constraints;
  d695_constraints.power = core::scan_activity_power(d695);
  for (const std::int64_t p : d695_constraints.power)
    d695_constraints.power_budget = std::max(d695_constraints.power_budget, p);
  d695_constraints.precedence = {{0, 5}, {1, 5}, {5, 9}};

  soc::ConstrainedScenarioSpec spec;
  spec.soc.name = "gcsynth";
  spec.soc.seed = 19;
  spec.soc.logic_cores = 9;
  spec.soc.logic.patterns = {20, 400};
  spec.soc.logic.ios = {10, 150};
  spec.soc.logic.chains = {1, 10};
  spec.soc.logic.chain_len = {20, 160};
  spec.soc.memory_cores = 4;
  spec.soc.memory.patterns = {100, 2000};
  spec.soc.memory.ios = {8, 40};
  spec.seed = 19;
  spec.power_budget_fraction = 0.35;
  spec.precedence_edges = 6;
  const soc::ConstrainedScenario scenario =
      soc::generate_constrained_scenario(spec);
  add("gcsynth power+precedence", scenario.soc, 40, "rectpack");
  points.back().request.options.constraints = scenario.constraints;
  return points;
}

std::string detail(const core::BackendOutcome& outcome,
                   const std::string& key) {
  for (const auto& [name, value] : outcome.details)
    if (name == key) return value;
  return "?";
}

/// One pin row: testing time, engine shape, placement digest.
std::string pin_row(const Point& point, const SolveResult& result) {
  if (result.status != Status::Ok || !result.has_outcome())
    return point.label + " status=" + std::string(to_string(result.status));
  const core::BackendOutcome& outcome = *result.outcome;
  std::string placements;
  for (const auto& p : outcome.schedule.placements)
    placements += std::to_string(p.core) + ":" + std::to_string(p.width) +
                  ":" + std::to_string(p.wire) + ":" +
                  std::to_string(p.start) + ":" + std::to_string(p.end) + ";";
  std::string row = point.label + " T=" + std::to_string(outcome.testing_time);
  if (point.request.backend == "rectpack")
    row += " seed=" + detail(outcome, "seed ordering");
  else
    row += " partition=" + detail(outcome, "partition") +
           " assignment=" + detail(outcome, "assignment");
  return row + " digest=" + common::stable_hash_128(placements).hex();
}

std::vector<std::string> solve_rows(const std::vector<Point>& points,
                                    int threads) {
  std::vector<std::string> rows;
  for (const Point& point : points) {
    SolveRequest request = point.request;
    request.options.threads = threads;
    const SolveResult result = Solver().solve(request);
    EXPECT_TRUE(result.schedule_valid) << point.label;
    rows.push_back(pin_row(point, result));
  }
  return rows;
}

TEST(GoldenEngines, PinnedGridIsReproducedAtOneAndFourThreads) {
  const std::vector<Point> points = grid();
  if (std::getenv("WTAM_GOLDEN_ENGINES_PRINT") != nullptr) {
    for (const std::string& row : solve_rows(points, 1))
      std::cout << "    \"" << row << "\",\n";
    GTEST_SKIP() << "printed the rows instead of checking them";
  }
  ASSERT_EQ(std::size(kPinned), points.size());
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::vector<std::string> rows = solve_rows(points, threads);
    for (std::size_t i = 0; i < rows.size(); ++i)
      EXPECT_EQ(rows[i], kPinned[i]);
  }
}

}  // namespace
}  // namespace wtam::api
