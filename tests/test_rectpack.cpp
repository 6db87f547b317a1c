#include <gtest/gtest.h>

#include "core/lower_bounds.hpp"
#include "core/test_time_table.hpp"
#include "pack/packed_schedule.hpp"
#include "pack/rectpack.hpp"
#include "soc/benchmarks.hpp"

namespace wtam::pack {
namespace {

TEST(RectPack, ValidAndBoundedOnAllBuiltInSocs) {
  for (const soc::Soc& soc :
       {soc::d695(), soc::p21241(), soc::p31108(), soc::p93791()}) {
    for (const int width : {16, 32}) {
      const core::TestTimeTable table(soc, width);
      const auto result = rectpack_schedule(table, width);
      EXPECT_TRUE(validate_packed_schedule(table, result.schedule).empty())
          << soc.name << " W=" << width;
      EXPECT_EQ(result.makespan, result.schedule.makespan);
      EXPECT_GE(result.makespan,
                core::testing_time_lower_bounds(table, width).combined())
          << soc.name << " W=" << width;
      EXPECT_FALSE(result.seed_ordering.empty());
      EXPECT_GT(result.repacks, 0);
    }
  }
}

TEST(RectPack, DeterministicForAFixedSeed) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 32);
  const auto a = rectpack_schedule(table, 32);
  const auto b = rectpack_schedule(table, 32);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.schedule.placements.size(), b.schedule.placements.size());
  for (std::size_t i = 0; i < a.schedule.placements.size(); ++i) {
    EXPECT_EQ(a.schedule.placements[i].core, b.schedule.placements[i].core);
    EXPECT_EQ(a.schedule.placements[i].wire, b.schedule.placements[i].wire);
    EXPECT_EQ(a.schedule.placements[i].start, b.schedule.placements[i].start);
  }
}

TEST(RectPack, LargerSearchBudgetNeverHurts) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 32);
  RectPackOptions small;
  small.local_search_iterations = 100;
  RectPackOptions large;
  large.local_search_iterations = 2000;
  // Walkers use per-seed RNG streams, so a bigger budget only extends
  // trajectories and the walk-phase best is monotone; this deterministic
  // pair of budgets pins that the end-of-walk hole-fill compaction does
  // not break it here.
  EXPECT_GE(rectpack_schedule(table, 32, small).makespan,
            rectpack_schedule(table, 32, large).makespan);
}

TEST(RectPack, GreedyOnlyModeStillValid) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 24);
  RectPackOptions options;
  options.local_search_iterations = 0;
  const auto result = rectpack_schedule(table, 24, options);
  EXPECT_TRUE(validate_packed_schedule(table, result.schedule).empty());
}

TEST(RectPack, NarrowStripDegeneratesGracefully) {
  // W=1: every rectangle is 1 wide; the packing is a single serial lane.
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 1);
  const auto result = rectpack_schedule(table, 1);
  EXPECT_TRUE(validate_packed_schedule(table, result.schedule).empty());
  std::int64_t serial = 0;
  for (int i = 0; i < table.core_count(); ++i) serial += table.time(i, 1);
  EXPECT_EQ(result.makespan, serial);
}

TEST(RectPack, RejectsWidthOutsideTableRange) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 16);
  EXPECT_THROW((void)rectpack_schedule(table, 17), std::invalid_argument);
}

void expect_identical_schedules(const RectPackResult& a,
                                const RectPackResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.seed_ordering, b.seed_ordering);
  EXPECT_EQ(a.repacks, b.repacks);
  ASSERT_EQ(a.schedule.placements.size(), b.schedule.placements.size());
  for (std::size_t i = 0; i < a.schedule.placements.size(); ++i) {
    EXPECT_EQ(a.schedule.placements[i].core, b.schedule.placements[i].core);
    EXPECT_EQ(a.schedule.placements[i].width, b.schedule.placements[i].width);
    EXPECT_EQ(a.schedule.placements[i].wire, b.schedule.placements[i].wire);
    EXPECT_EQ(a.schedule.placements[i].start, b.schedule.placements[i].start);
    EXPECT_EQ(a.schedule.placements[i].end, b.schedule.placements[i].end);
  }
}

TEST(RectPack, ParallelWalkersBitIdenticalToSerial) {
  // The per-seed walkers run on a ThreadPool with a deterministic
  // seed-order merge — the same contract as the parallel partition
  // search: any thread count, byte-identical schedules.
  const soc::Soc soc_data = soc::d695();
  for (const int width : {24, 32}) {
    const core::TestTimeTable table(soc_data, width);
    RectPackOptions serial;
    serial.threads = 1;
    // A reduced budget keeps the sanitizer runs fast; the identity
    // contract is budget-independent (same walkers, same merge).
    serial.local_search_iterations = 400;
    const auto reference = rectpack_schedule(table, width, serial);
    for (const int threads : {2, 4, 0 /* hardware */}) {
      RectPackOptions parallel = serial;
      parallel.threads = threads;
      const auto result = rectpack_schedule(table, width, parallel);
      SCOPED_TRACE("W=" + std::to_string(width) +
                   " threads=" + std::to_string(threads));
      expect_identical_schedules(reference, result);
    }
  }
}

TEST(RectPack, ParallelConstrainedAlsoBitIdentical) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 32);
  RectPackOptions serial;
  serial.local_search_iterations = 400;
  serial.constraints.power.assign(10, 100);
  serial.constraints.power_budget = 250;
  serial.constraints.precedence = {{0, 5}, {1, 5}};
  RectPackOptions parallel = serial;
  parallel.threads = 4;
  expect_identical_schedules(rectpack_schedule(table, 32, serial),
                             rectpack_schedule(table, 32, parallel));
}

TEST(RectPack, PreCancelledRunBitIdenticalAcrossThreadCounts) {
  // A context cancelled before the run is the one deterministic
  // interrupt case: every walker stops after its first greedy pack, and
  // the parallel merge must mirror the serial loop (stop at the first
  // interrupted walker) so results stay byte-identical.
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 24);
  core::SolveContext context;
  context.cancel.request_cancel();
  RectPackOptions serial;
  serial.context = &context;
  RectPackOptions parallel = serial;
  parallel.threads = 4;
  const auto a = rectpack_schedule(table, 24, serial);
  const auto b = rectpack_schedule(table, 24, parallel);
  EXPECT_EQ(a.interrupt, core::SolveInterrupt::Cancelled);
  EXPECT_EQ(b.interrupt, core::SolveInterrupt::Cancelled);
  expect_identical_schedules(a, b);
}

TEST(RectPack, StopsAtTheLowerBoundIdenticallyAtAnyThreadCount) {
  // p21241 at W=44: the area-decreasing walker spends its whole budget
  // above the bound and the diagonal-decreasing walker reaches it, so the
  // search stops there. Pooled walkers behind it abandon their walks; the
  // merge must still report the serial run's repacks and schedule.
  const soc::Soc soc_data = soc::p21241();
  const core::TestTimeTable table(soc_data, 44);
  RectPackOptions serial;
  const auto reference = rectpack_schedule(table, 44, serial);
  EXPECT_EQ(reference.lower_bound,
            core::testing_time_lower_bounds(table, 44).combined());
  EXPECT_EQ(reference.makespan, reference.lower_bound);
  EXPECT_EQ(reference.seed_ordering, "diagonal-decreasing");
  EXPECT_EQ(reference.interrupt, core::SolveInterrupt::None);
  // Two walkers ran: fewer repacks than the 4 x (1 + 500 + 2) of a
  // search that never reaches the bound.
  EXPECT_GT(reference.repacks, 503);
  EXPECT_LT(reference.repacks, 2 * 503);
  for (const int threads : {4, 0 /* hardware */}) {
    RectPackOptions parallel = serial;
    parallel.threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical_schedules(reference,
                               rectpack_schedule(table, 44, parallel));
  }
}

TEST(RectPack, ProvenOptimalFirstPackIgnoresAPreCancelledContext) {
  // p31108 at W=32: the first greedy pack already ends at LB1 (core 18),
  // so the walker returns before it polls the context: the schedule is
  // proven optimal, not a best-so-far.
  const soc::Soc soc_data = soc::p31108();
  const core::TestTimeTable table(soc_data, 32);
  core::SolveContext context;
  context.cancel.request_cancel();
  for (const int threads : {1, 4}) {
    RectPackOptions options;
    options.context = &context;
    options.threads = threads;
    const auto result = rectpack_schedule(table, 32, options);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(result.interrupt, core::SolveInterrupt::None);
    EXPECT_EQ(result.makespan, result.lower_bound);
    EXPECT_EQ(result.repacks, 1);
    EXPECT_TRUE(validate_packed_schedule(table, result.schedule).empty());
  }
}

TEST(RectPack, PowerBudgetCapsConcurrency) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 32);
  RectPackOptions options;
  options.constraints.power.assign(10, 100);
  options.constraints.power_budget = 200;  // at most two cores at once
  const auto result = rectpack_schedule(table, 32, options);
  EXPECT_TRUE(validate_packed_schedule(table, result.schedule,
                                       options.constraints)
                  .empty());
  EXPECT_LE(packed_peak_power(result.schedule, options.constraints.power),
            options.constraints.power_budget);
  // Two-at-a-time cannot beat the unconstrained packer.
  const auto unconstrained = rectpack_schedule(table, 32);
  EXPECT_GE(result.makespan, unconstrained.makespan);
}

TEST(RectPack, HonorsEveryConstraintClassAtOnce) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 24);
  RectPackOptions options;
  auto& constraints = options.constraints;
  constraints.power.assign(10, 50);
  constraints.power_budget = 160;
  constraints.precedence = {{2, 7}, {0, 7}, {7, 9}};
  constraints.fixed = {{4, {0, 12}}};
  constraints.forbidden = {{5, {0, 6}}, {5, {20, 24}}};
  constraints.earliest = {{3, 4000}};
  const auto result = rectpack_schedule(table, 24, options);
  const auto issues =
      validate_packed_schedule(table, result.schedule, constraints);
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());

  // Spot-check the classes directly, not only through the validator.
  const PackedPlacement* placements[10] = {};
  for (const auto& p : result.schedule.placements)
    placements[p.core] = &p;
  EXPECT_GE(placements[7]->start, placements[2]->end);
  EXPECT_GE(placements[7]->start, placements[0]->end);
  EXPECT_GE(placements[9]->start, placements[7]->end);
  EXPECT_GE(placements[4]->wire, 0);
  EXPECT_LE(placements[4]->wire + placements[4]->width, 12);
  EXPECT_TRUE(placements[5]->wire >= 6 &&
              placements[5]->wire + placements[5]->width <= 20);
  EXPECT_GE(placements[3]->start, 4000);
}

TEST(RectPack, RejectsInvalidConstraints) {
  const soc::Soc soc_data = soc::d695();
  const core::TestTimeTable table(soc_data, 16);
  RectPackOptions cyclic;
  cyclic.constraints.precedence = {{0, 1}, {1, 0}};
  EXPECT_THROW((void)rectpack_schedule(table, 16, cyclic),
               std::invalid_argument);
  RectPackOptions hot;
  hot.constraints.power.assign(10, 100);
  hot.constraints.power_budget = 50;  // a single core exceeds the budget
  EXPECT_THROW((void)rectpack_schedule(table, 16, hot),
               std::invalid_argument);
}

}  // namespace
}  // namespace wtam::pack
