#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "pack/skyline.hpp"

namespace wtam::pack {
namespace {

TEST(Skyline, StartsFlatAtZero) {
  const Skyline sky(8);
  EXPECT_EQ(sky.total_width(), 8);
  EXPECT_EQ(sky.makespan(), 0);
  const auto spot = sky.best_spot(8);
  EXPECT_EQ(spot.wire, 0);
  EXPECT_EQ(spot.start, 0);
}

TEST(Skyline, BottomLeftPrefersLowestThenLeftmost) {
  Skyline sky(6);
  sky.place(0, 2, 100);  // wires 0-1 busy until 100
  sky.place(4, 2, 50);   // wires 4-5 busy until 50

  // A 2-wide rectangle fits at time 0 only on wires 2-3.
  auto spot = sky.best_spot(2);
  EXPECT_EQ(spot.wire, 2);
  EXPECT_EQ(spot.start, 0);

  // A 3-wide rectangle: windows are [0,3)=100, [1,4)=100, [2,5)=50,
  // [3,6)=50 — lowest is 50, leftmost such window starts at wire 2.
  spot = sky.best_spot(3);
  EXPECT_EQ(spot.wire, 2);
  EXPECT_EQ(spot.start, 50);

  // Full width must wait for the tallest wire.
  spot = sky.best_spot(6);
  EXPECT_EQ(spot.wire, 0);
  EXPECT_EQ(spot.start, 100);
}

TEST(Skyline, PlaceRaisesOnlyTheWindow) {
  Skyline sky(4);
  sky.place(1, 2, 10);
  EXPECT_EQ(sky.free_time(0), 0);
  EXPECT_EQ(sky.free_time(1), 10);
  EXPECT_EQ(sky.free_time(2), 10);
  EXPECT_EQ(sky.free_time(3), 0);
  EXPECT_EQ(sky.makespan(), 10);

  // Placing below an already-raised wire never lowers it.
  sky.place(1, 1, 5);
  EXPECT_EQ(sky.free_time(1), 10);
}

TEST(Skyline, ClearResets) {
  Skyline sky(3);
  sky.place(0, 3, 7);
  sky.clear();
  EXPECT_EQ(sky.makespan(), 0);
}

TEST(Skyline, RejectsBadArguments) {
  EXPECT_THROW(Skyline(0), std::invalid_argument);
  Skyline sky(4);
  EXPECT_THROW((void)sky.best_spot(0), std::invalid_argument);
  EXPECT_THROW((void)sky.best_spot(5), std::invalid_argument);
  EXPECT_THROW(sky.place(2, 3, 1), std::invalid_argument);
}

TEST(Skyline, FullWidthRectanglesStack) {
  // A full-width rectangle always lands on the makespan, wire 0; a
  // sequence of them serializes perfectly.
  Skyline sky(8);
  for (const std::int64_t duration : {10, 25, 5}) {
    const auto spot = sky.best_spot(8);
    EXPECT_EQ(spot.wire, 0);
    EXPECT_EQ(spot.start, sky.makespan());
    sky.place(spot.wire, 8, spot.start + duration);
  }
  EXPECT_EQ(sky.makespan(), 40);
  // Even after an uneven partial placement, full width waits for the top.
  sky.place(3, 2, 100);
  EXPECT_EQ(sky.best_spot(8).start, 100);
}

TEST(Skyline, WidthOneStripDegeneratesToASerialLane) {
  Skyline sky(1);
  EXPECT_EQ(sky.best_spot(1).wire, 0);
  sky.place(0, 1, 7);
  EXPECT_EQ(sky.best_spot(1).start, 7);
  sky.place(0, 1, 7 + 3);
  EXPECT_EQ(sky.makespan(), 10);
  // The constrained query agrees on the degenerate strip.
  Skyline::SpotQuery query;
  query.width = 1;
  query.duration = 4;
  const auto spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->wire, 0);
  EXPECT_EQ(spot->start, 10);
}

TEST(Skyline, SlidingWindowMaxOverShrinkingSegments) {
  // A strictly descending staircase: segments of decreasing height where
  // every window's max is its leftmost wire.
  Skyline sky(6);
  for (int wire = 0; wire < 6; ++wire)
    sky.place(wire, 1, 60 - 10 * wire);  // heights 60,50,40,30,20,10
  for (int width = 1; width <= 6; ++width) {
    const auto spot = sky.best_spot(width);
    // The lowest window of any width hugs the right edge; its max is its
    // leftmost (tallest) wire.
    EXPECT_EQ(spot.wire, 6 - width) << "width=" << width;
    EXPECT_EQ(spot.start, 60 - 10 * (6 - width)) << "width=" << width;
  }
  // Shrink the last segment to a single low wire and re-query: windows
  // that include wire 5 are capped by their interior maxima.
  sky.place(5, 1, 55);  // now 60,50,40,30,20,55
  const auto spot = sky.best_spot(2);
  EXPECT_EQ(spot.wire, 3);  // [30,20] — max 30, the lowest 2-window
  EXPECT_EQ(spot.start, 30);
}

TEST(Skyline, ConstrainedQueryHonorsWindowsAndForbiddenRows) {
  Skyline sky(8);
  Skyline::SpotQuery query;
  query.width = 2;
  query.duration = 10;
  query.window = {4, 8};  // fixed interval: right half only
  const auto right = sky.best_spot(query);
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(right->wire, 4);

  const std::vector<core::WireInterval> forbidden = {{4, 6}};
  query.forbidden = &forbidden;
  const auto shifted = sky.best_spot(query);
  ASSERT_TRUE(shifted.has_value());
  EXPECT_EQ(shifted->wire, 6);

  query.width = 3;  // no 3-wide run inside [6, 8)
  EXPECT_FALSE(sky.best_spot(query).has_value());

  query.width = 2;
  query.min_start = 123;  // precedence floor lifts the start
  const auto floored = sky.best_spot(query);
  ASSERT_TRUE(floored.has_value());
  EXPECT_EQ(floored->start, 123);
}

TEST(Skyline, PowerRejectionAtExactlyAtBudgetBoundaries) {
  Skyline sky(8);
  sky.place(0, 2, 0, 10, /*power=*/3);  // [0,10) draws 3 of budget 5
  Skyline::SpotQuery query;
  query.width = 2;
  query.duration = 5;
  query.power_budget = 5;

  // Exactly at budget: 3 + 2 == 5 fits, start 0 allowed.
  query.power = 2;
  auto spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->start, 0);

  // One unit over: 3 + 3 > 5, the start is delayed to the span end.
  query.power = 3;
  spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->start, 10);

  // Exactly the whole budget alone still fits (after the running span).
  query.power = 5;
  spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->start, 10);

  // More than the budget can never fit anywhere.
  query.power = 6;
  EXPECT_FALSE(sky.best_spot(query).has_value());

  // A window that only brushes the busy span's end is not delayed.
  query.power = 3;
  query.min_start = 10;
  spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->start, 10);
}

TEST(Skyline, PrecomputedBlockedPrefixMatchesRebuiltMask) {
  // A caller-provided prefix mask (rectpack's ConstraintPlan path) must
  // answer exactly like the query that rebuilds the mask from window +
  // forbidden, on a non-flat skyline.
  Skyline sky(8);
  sky.place(0, 3, 7);
  sky.place(5, 2, 4);

  Skyline::SpotQuery rebuilt;
  rebuilt.width = 2;
  rebuilt.duration = 10;
  rebuilt.window = {1, 8};
  const std::vector<core::WireInterval> forbidden = {{3, 5}};
  rebuilt.forbidden = &forbidden;

  // blocked wires: 0 (window), 3, 4 (forbidden) -> prefix counts.
  std::vector<int> prefix(9, 0);
  const std::vector<int> blocked = {1, 0, 0, 1, 1, 0, 0, 0};
  for (int w = 0; w < 8; ++w)
    prefix[static_cast<std::size_t>(w) + 1] =
        prefix[static_cast<std::size_t>(w)] + blocked[static_cast<std::size_t>(w)];
  Skyline::SpotQuery precomputed = rebuilt;
  precomputed.blocked_prefix = &prefix;

  const auto a = sky.best_spot(rebuilt);
  const auto b = sky.best_spot(precomputed);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->wire, b->wire);
  EXPECT_EQ(a->start, b->start);
  // Wires {1, 2} are free at 7, {5, 6, 7} at 4: the lower window wins.
  EXPECT_EQ(a->wire, 5);
  EXPECT_EQ(a->start, 4);

  // A mask of the wrong size is a caller bug, reported loudly.
  std::vector<int> short_mask(3, 0);
  Skyline::SpotQuery bad = rebuilt;
  bad.blocked_prefix = &short_mask;
  EXPECT_THROW((void)sky.best_spot(bad), std::invalid_argument);
}

TEST(Skyline, ClearResetsPowerTimelineToo) {
  Skyline sky(4);
  sky.place(0, 4, 0, 10, 5);
  sky.clear();
  Skyline::SpotQuery query;
  query.width = 4;
  query.duration = 5;
  query.power = 5;
  query.power_budget = 5;
  const auto spot = sky.best_spot(query);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->start, 0);
}

TEST(Skyline, BestSpotMatchesABruteForceScan) {
  // Random skylines with many ties (heights drawn from a small range):
  // every width's spot is the leftmost window of least maximum, and the
  // unconstrained query path picks the same spot.
  common::Rng rng(20240601);
  for (int trial = 0; trial < 300; ++trial) {
    const int wires = static_cast<int>(rng.uniform_int(1, 70));
    const std::int64_t top = rng.uniform_int(0, 6);
    Skyline sky(wires);
    for (int wire = 0; wire < wires; ++wire)
      sky.place(wire, 1, rng.uniform_int(0, top));
    for (int width = 1; width <= wires; ++width) {
      Skyline::Spot expected{0, -1};
      for (int left = 0; left + width <= wires; ++left) {
        std::int64_t start = 0;
        for (int wire = left; wire < left + width; ++wire)
          start = std::max(start, sky.free_time(wire));
        if (expected.start < 0 || start < expected.start)
          expected = {left, start};
      }
      const Skyline::Spot spot = sky.best_spot(width);
      EXPECT_EQ(spot.wire, expected.wire) << "wires=" << wires
                                          << " width=" << width;
      EXPECT_EQ(spot.start, expected.start) << "wires=" << wires
                                            << " width=" << width;
      Skyline::SpotQuery query;
      query.width = width;
      const auto queried = sky.best_spot(query);
      ASSERT_TRUE(queried.has_value());
      EXPECT_EQ(queried->wire, expected.wire);
      EXPECT_EQ(queried->start, expected.start);
    }
  }
}

}  // namespace
}  // namespace wtam::pack
