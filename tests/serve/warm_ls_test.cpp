// Warm re-solve seeding of the ls polish tier. Two layers:
//
//   1. the polish contract under churn — polishing a solution carried
//      over from the previous epoch (re-accounted against the mutated
//      instance) is never worse than that carried seed, for 25 epochs;
//   2. the service wiring — a PlacementService on SolverTier::kLs rides
//      the incremental warm path across 25 churn epochs, its placements
//      always at least as good as a config-identical kLazy service fed
//      the same mutations, with the mmph_ls_* counters advancing;
//   3. the warm history is the served placement — after a warm re-solve
//      whose polish improved, a no-op churn (one user re-upserted
//      unchanged) re-solves from the polished centers, so the polish has
//      nothing left to re-climb.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mmph/core/objective.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/ls/local_search.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/serve/placement_service.hpp"

namespace mmph::serve {
namespace {

UserRecord make_user(std::uint64_t id, rnd::Pcg64& rng) {
  UserRecord user;
  user.id = id;
  user.interest = {4.0 * rng.next_double(), 4.0 * rng.next_double()};
  user.weight = 1.0 + rng.next_double();
  return user;
}

/// Exact per-round accounting of \p centers against \p problem (the
/// previous epoch's placement re-valued on the mutated instance).
core::Solution account(const core::Problem& problem,
                       const geo::PointSet& centers) {
  core::Solution out;
  out.solver_name = "carried";
  out.centers = centers;
  std::vector<double> residual = core::fresh_residual(problem);
  for (std::size_t j = 0; j < centers.size(); ++j) {
    const double g = core::apply_center(problem, centers[j], residual);
    out.round_rewards.push_back(g);
    out.total_reward += g;
  }
  return out;
}

TEST(WarmLs, PolishOfCarriedPlacementNeverLosesToItsSeed) {
  rnd::Pcg64 rng(7);
  geo::PointSet points(2);
  std::vector<double> weights;
  for (std::size_t i = 0; i < 300; ++i) {
    const double row[2] = {4.0 * rng.next_double(), 4.0 * rng.next_double()};
    points.push_back(geo::ConstVec(row, 2));
    weights.push_back(1.0 + rng.next_double());
  }

  geo::PointSet carried(2);  // previous epoch's centers (seeded arbitrary)
  for (std::size_t j = 0; j < 5; ++j) carried.push_back(points[j]);

  int improved_epochs = 0;
  for (int epoch = 0; epoch < 25; ++epoch) {
    // Churn ~5% of the population, then re-solve warm from `carried`.
    for (int c = 0; c < 15; ++c) {
      const std::size_t at = rng.next_below(points.size());
      const double row[2] = {4.0 * rng.next_double(),
                             4.0 * rng.next_double()};
      geo::assign(points.mutable_point(at), geo::ConstVec(row, 2));
      weights[at] = 1.0 + rng.next_double();
    }
    const core::Problem problem(points, weights, 1.0, geo::l2_metric());
    const core::Solution seed = account(problem, carried);
    ls::LsStats stats;
    const core::Solution polished =
        ls::polish(problem, seed, problem.points(), {}, &stats);
    EXPECT_GE(polished.total_reward, seed.total_reward)
        << "epoch " << epoch;
    EXPECT_FALSE(stats.aborted) << "epoch " << epoch;
    if (stats.improved) ++improved_epochs;
    carried = polished.centers;
  }
  // Churn keeps invalidating the carried placement; the polish must be
  // doing real work across the run, not no-op'ing 25 times.
  EXPECT_GE(improved_epochs, 5);
}

TEST(WarmLs, ServiceOnLsTierTracksOrBeatsLazyAcrossChurnEpochs) {
  ServiceConfig ls_config;
  ls_config.dim = 2;
  ls_config.k = 4;
  ls_config.radius = 1.0;
  ls_config.solver = SolverTier::kLs;
  // Generous threshold: the ~5% churn below stays on the incremental warm
  // path, which is exactly the "LS seeded from the previous placement"
  // wiring under test.
  ls_config.full_solve_churn_fraction = 0.5;
  PlacementService ls_service(ls_config);

  ServiceConfig lazy_config = ls_config;
  lazy_config.solver = SolverTier::kLazy;
  PlacementService lazy_service(lazy_config);

  rnd::Pcg64 rng(11);
  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> live;

  std::vector<UserRecord> initial;
  for (std::size_t i = 0; i < 250; ++i) {
    live.push_back(next_id);
    initial.push_back(make_user(next_id++, rng));
  }
  ls_service.apply_add(initial);
  lazy_service.apply_add(initial);

  for (int epoch = 0; epoch < 25; ++epoch) {
    std::vector<std::uint64_t> removed;
    for (int c = 0; c < 6; ++c) {
      const std::size_t at = rng.next_below(live.size());
      removed.push_back(live[at]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    std::vector<UserRecord> added;
    for (int c = 0; c < 6; ++c) {
      live.push_back(next_id);
      added.push_back(make_user(next_id++, rng));
    }
    ls_service.apply_remove(removed);
    lazy_service.apply_remove(removed);
    ls_service.apply_add(added);
    lazy_service.apply_add(added);

    const PlacementView ls_view = ls_service.placement();
    const PlacementView lazy_view = lazy_service.placement();
    EXPECT_GE(ls_view.objective, lazy_view.objective) << "epoch " << epoch;
    EXPECT_EQ(ls_view.epoch, lazy_view.epoch) << "epoch " << epoch;
  }

  const MetricsSnapshot m = ls_service.metrics();
  EXPECT_GT(m.ls_evals, 0u);
  EXPECT_GT(m.incremental_solves, 0u)
      << "churn was meant to ride the warm path";
  const MetricsSnapshot lazy_m = lazy_service.metrics();
  EXPECT_EQ(lazy_m.ls_evals, 0u) << "kLazy must not touch the polish tier";
}

TEST(WarmLs, WarmReSolveStartsFromTheServedPlacement) {
  ServiceConfig config;
  config.dim = 2;
  config.k = 6;
  config.radius = 1.0;
  config.solver = SolverTier::kLs;
  config.full_solve_churn_fraction = 0.5;  // every epoch below stays warm
  PlacementService service(config);

  rnd::Pcg64 rng(23);
  std::uint64_t next_id = 1;
  std::vector<UserRecord> live;
  for (std::size_t i = 0; i < 300; ++i) {
    live.push_back(make_user(next_id++, rng));
  }
  service.apply_add(live);
  (void)service.placement();  // cold solve + polish

  // Churn until a warm re-solve's polish improves on the planner's seed.
  bool warm_polish_improved = false;
  for (int epoch = 0; epoch < 40 && !warm_polish_improved; ++epoch) {
    std::vector<UserRecord> moved;
    for (int c = 0; c < 6; ++c) {
      UserRecord& user = live[rng.next_below(live.size())];
      user = make_user(user.id, rng);  // same id, new interest: a move
      moved.push_back(user);
    }
    service.apply_add(moved);
    const MetricsSnapshot before = service.metrics();
    (void)service.placement();
    const MetricsSnapshot after = service.metrics();
    ASSERT_EQ(after.incremental_solves, before.incremental_solves + 1);
    warm_polish_improved = after.ls_improvements > before.ls_improvements;
  }
  ASSERT_TRUE(warm_polish_improved)
      << "no warm polish improved; the scenario tests nothing";

  // A no-op churn: re-upsert one user unchanged. The population is the
  // same, so the warm re-solve starts from the polished local optimum and
  // the polish must not commit a single move.
  const MetricsSnapshot before = service.metrics();
  const PlacementView served = service.placement();
  service.apply_add({live.front()});
  const PlacementView again = service.placement();
  const MetricsSnapshot after = service.metrics();
  EXPECT_EQ(after.incremental_solves, before.incremental_solves + 1);
  EXPECT_EQ(after.ls_moves, before.ls_moves)
      << "the warm re-solve re-climbed moves of the served placement";
  EXPECT_GT(after.ls_evals, before.ls_evals) << "the polish did not run";
  EXPECT_EQ(again.objective, served.objective);
}

}  // namespace
}  // namespace mmph::serve
