// Bitwise differential test of DeltaEvaluator's cached coverage columns
// against a per-trial reference evaluator: the query-and-recompute delta
// (one radius query per trial, std::set_union of the two balls, one
// unit_coverage per touched point, a dense k x n unit table) that the
// column cache replaced. The reference and its polish loop are kept
// here verbatim in behaviour, so the cache must reproduce every delta,
// every committed move and every polished placement bit for bit:
//
//   - random (j, candidate) sequences with interleaved commits;
//   - ls::polish on a 210-instance corpus crossing first-improvement and
//     tabu, owned and borrowed index, L1/L2/L-infinity, linear and binary
//     reward shapes;
//   - one instance whose columns overrun kColumnEntryBudget, so the
//     on-demand scratch-column path carries part of the polish.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mmph/core/reward.hpp"
#include "mmph/ls/local_search.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/spatial/spatial_index.hpp"

namespace mmph::ls {
namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

/// The per-trial evaluator: every delta re-queries both balls, merges
/// them and recomputes the candidate's coverage of each touched point.
class ReferenceDelta {
 public:
  ReferenceDelta(const core::Problem& problem, const geo::PointSet& centers,
                 spatial::SpatialIndex* index)
      : problem_(problem), centers_(centers), index_(index) {
    const std::size_t n = problem_.size();
    const std::size_t k = centers_.size();
    units_.assign(k * n, 0.0);
    totals_.assign(n, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      index_->query(centers_[j], ball_new_);
      for (const std::size_t i : ball_new_) {
        const double u = core::unit_coverage(problem_, centers_[j], i);
        units_[j * n + i] = u;
        totals_[i] += u;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      value_ += problem_.weight(i) * std::min(totals_[i], 1.0);
    }
  }

  [[nodiscard]] const geo::PointSet& centers() const { return centers_; }
  [[nodiscard]] double current_value() const { return value_; }

  double delta_for_swap(std::size_t j, geo::ConstVec candidate) {
    gather_touched(j, candidate);
    const std::size_t n = problem_.size();
    double delta = 0.0;
    for (const std::size_t i : touched_) {
      const double u_new = core::unit_coverage(problem_, candidate, i);
      const double total = totals_[i] - units_[j * n + i] + u_new;
      delta += problem_.weight(i) *
               (std::min(total, 1.0) - std::min(totals_[i], 1.0));
    }
    return delta;
  }

  void commit_swap(std::size_t j, geo::ConstVec candidate) {
    const double delta = delta_for_swap(j, candidate);
    const std::size_t n = problem_.size();
    for (const std::size_t i : touched_) {
      const double u_new = core::unit_coverage(problem_, candidate, i);
      totals_[i] += u_new - units_[j * n + i];
      units_[j * n + i] = u_new;
    }
    geo::assign(centers_.mutable_point(j), candidate);
    value_ += delta;
    if (ball_old_slot_ == j) ball_old_slot_ = kNoSlot;
  }

 private:
  void gather_touched(std::size_t j, geo::ConstVec candidate) {
    if (ball_old_slot_ != j) {
      index_->query(centers_[j], ball_old_);
      ball_old_slot_ = j;
    }
    index_->query(candidate, ball_new_);
    touched_.clear();
    std::set_union(ball_old_.begin(), ball_old_.end(), ball_new_.begin(),
                   ball_new_.end(), std::back_inserter(touched_));
  }

  const core::Problem& problem_;
  geo::PointSet centers_;
  spatial::SpatialIndex* index_;
  std::vector<double> units_;
  std::vector<double> totals_;
  double value_ = 0.0;
  std::vector<std::size_t> ball_old_;
  std::size_t ball_old_slot_ = kNoSlot;
  std::vector<std::size_t> ball_new_;
  std::vector<std::size_t> touched_;
};

/// ls::polish's move loop over the reference evaluator: same shift and
/// swap passes, same tabu rule and tie stream, same final accounting.
core::Solution reference_polish(const core::Problem& problem,
                                const core::Solution& seed,
                                const geo::PointSet& candidates,
                                const LsConfig& config, LsStats& stats,
                                spatial::SpatialIndex* index) {
  stats = LsStats{};
  ReferenceDelta eval(problem, seed.centers, index);
  std::unique_ptr<spatial::SpatialIndex> cand_index;
  if (config.shift_moves) {
    cand_index =
        spatial::make_index(candidates, problem.radius(), problem.metric());
  }
  const std::size_t k = seed.centers.size();
  const auto try_eval = [&](std::size_t j, std::size_t c) {
    ++stats.evals;
    return eval.delta_for_swap(j, candidates[c]);
  };
  if (config.tabu_tenure == 0) {
    std::vector<std::size_t> shift_ids;
    for (std::size_t sweep = 0; sweep < config.max_sweeps; ++sweep) {
      ++stats.sweeps;
      bool improved = false;
      if (cand_index != nullptr) {
        for (std::size_t j = 0; j < k; ++j) {
          cand_index->query(eval.centers()[j], shift_ids);
          for (const std::size_t c : shift_ids) {
            if (try_eval(j, c) > config.min_gain) {
              eval.commit_swap(j, candidates[c]);
              ++stats.moves;
              improved = true;
              break;
            }
          }
        }
      }
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t c = 0; c < candidates.size(); ++c) {
          if (try_eval(j, c) > config.min_gain) {
            eval.commit_swap(j, candidates[c]);
            ++stats.moves;
            improved = true;
          }
        }
      }
      if (!improved) {
        stats.converged = true;
        break;
      }
    }
  } else {
    rnd::Pcg64 rng(config.seed);
    std::vector<std::uint64_t> tabu_until(candidates.size(), 0);
    std::vector<std::size_t> slot_origin(k, kNoSlot);
    std::uint64_t move_clock = 0;
    for (std::size_t sweep = 0; sweep < config.max_sweeps; ++sweep) {
      ++stats.sweeps;
      double best_delta = 0.0;
      std::vector<std::pair<std::size_t, std::size_t>> ties;
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t c = 0; c < candidates.size(); ++c) {
          if (tabu_until[c] > move_clock) continue;
          const double delta = try_eval(j, c);
          if (delta > best_delta) {
            best_delta = delta;
            ties.assign(1, {j, c});
          } else if (delta == best_delta && best_delta > 0.0) {
            ties.emplace_back(j, c);
          }
        }
      }
      if (best_delta <= config.min_gain || ties.empty()) {
        stats.converged = true;
        break;
      }
      const auto [j, c] = ties[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(ties.size())))];
      eval.commit_swap(j, candidates[c]);
      ++stats.moves;
      ++move_clock;
      if (slot_origin[j] != kNoSlot) {
        tabu_until[slot_origin[j]] = move_clock + config.tabu_tenure;
      }
      slot_origin[j] = c;
    }
  }
  core::Solution out;
  out.centers = eval.centers();
  out.residual = core::fresh_residual(problem);
  for (std::size_t j = 0; j < out.centers.size(); ++j) {
    const double g = core::apply_center(problem, out.centers[j], out.residual);
    out.round_rewards.push_back(g);
    out.total_reward += g;
  }
  if (!(out.total_reward > seed.total_reward)) return seed;
  stats.improved = true;
  out.solver_name = seed.solver_name + "+ls";
  return out;
}

/// The first k instance points, exactly accounted: a poor seed that
/// leaves the polish real work.
core::Solution first_points_seed(const core::Problem& problem,
                                 std::size_t k) {
  core::Solution seed;
  seed.solver_name = "seed";
  seed.centers = geo::PointSet(problem.dim());
  for (std::size_t j = 0; j < k; ++j) {
    seed.centers.push_back(problem.points()[j]);
  }
  seed.residual = core::fresh_residual(problem);
  for (std::size_t j = 0; j < k; ++j) {
    const double g =
        core::apply_center(problem, seed.centers[j], seed.residual);
    seed.round_rewards.push_back(g);
    seed.total_reward += g;
  }
  return seed;
}

void expect_identical(const core::Solution& got, const core::Solution& want,
                      const std::string& context) {
  ASSERT_EQ(got.centers.size(), want.centers.size()) << context;
  EXPECT_EQ(got.total_reward, want.total_reward) << context;  // bitwise
  EXPECT_EQ(got.round_rewards, want.round_rewards) << context;
  EXPECT_EQ(got.solver_name, want.solver_name) << context;
  for (std::size_t c = 0; c < got.centers.size(); ++c) {
    for (std::size_t d = 0; d < got.centers.dim(); ++d) {
      EXPECT_EQ(got.centers[c][d], want.centers[c][d])
          << context << " center " << c << " coord " << d;
    }
  }
}

void expect_same_stats(const LsStats& got, const LsStats& want,
                       const std::string& context) {
  EXPECT_EQ(got.evals, want.evals) << context;
  EXPECT_EQ(got.moves, want.moves) << context;
  EXPECT_EQ(got.sweeps, want.sweeps) << context;
  EXPECT_EQ(got.improved, want.improved) << context;
  EXPECT_EQ(got.converged, want.converged) << context;
}

core::Problem corpus_problem(std::uint64_t seed, std::size_t n,
                             std::size_t dim, geo::Metric metric,
                             core::RewardShape shape) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  spec.dim = dim;
  spec.weights = rnd::WeightScheme::kUniformInt;
  rnd::Rng rng(seed);
  return core::Problem::from_workload(rnd::generate_workload(spec, rng), 1.0,
                                      metric, shape);
}

TEST(ColumnDifferential, RandomSwapSequencesMatchTheReferenceBitwise) {
  const geo::Metric metrics[] = {geo::l1_metric(), geo::l2_metric(),
                                 geo::linf_metric()};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const core::Problem problem = corpus_problem(
        seed, 150, 2, metrics[seed % 3],
        seed % 2 == 0 ? core::RewardShape::kBinary
                      : core::RewardShape::kLinear);
    const std::size_t k = 5;
    const geo::PointSet centers = first_points_seed(problem, k).centers;
    auto index = spatial::make_index(problem.points(), problem.radius(),
                                     problem.metric());
    ReferenceDelta ref(problem, centers, index.get());
    ColumnWorkspace workspace;
    DeltaEvaluator eval(problem, centers, problem.points(), index.get(),
                        &workspace);
    ASSERT_EQ(eval.cached_candidates(), problem.size());
    ASSERT_EQ(eval.current_value(), ref.current_value());

    rnd::Pcg64 rng(seed * 977);
    for (int step = 0; step < 400; ++step) {
      const auto j = static_cast<std::size_t>(rng.next_below(k));
      const auto c = static_cast<std::size_t>(rng.next_below(problem.size()));
      const std::string context =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const double want = ref.delta_for_swap(j, problem.points()[c]);
      EXPECT_EQ(eval.delta_for_swap(j, c), want) << context;
      if (step % 5 == 0) {
        ref.commit_swap(j, problem.points()[c]);
        eval.commit_swap(j, c);
        EXPECT_EQ(eval.current_value(), ref.current_value()) << context;
      }
    }
  }
}

TEST(ColumnDifferential, PolishMatchesReferenceOn210InstanceCorpus) {
  const geo::Metric metrics[] = {geo::l1_metric(), geo::l2_metric(),
                                 geo::linf_metric()};
  int instances = 0;
  int improved = 0;
  ColumnWorkspace shared;  // one workspace across every polish, as served
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    const std::size_t dim = 2 + seed % 2;
    const core::RewardShape shape = (seed / 3) % 2 == 0
                                        ? core::RewardShape::kLinear
                                        : core::RewardShape::kBinary;
    const core::Problem problem = corpus_problem(
        seed, 20 + seed % 41, dim, metrics[seed % 3], shape);
    auto borrowed = spatial::make_index(problem.points(), problem.radius(),
                                        problem.metric());
    auto reference_owned = spatial::make_index(
        problem.points(), problem.radius(), problem.metric());
    for (const std::size_t k :
         {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
      ++instances;
      const core::Solution seed_solution = first_points_seed(problem, k);
      for (const std::size_t tenure : {std::size_t{0}, std::size_t{3}}) {
        for (const bool borrow : {false, true}) {
          const std::string context =
              "seed=" + std::to_string(seed) + " k=" + std::to_string(k) +
              " tabu=" + std::to_string(tenure) +
              (borrow ? " borrowed" : " owned");
          LsConfig config;
          config.tabu_tenure = tenure;
          config.max_sweeps = tenure == 0 ? 8 : 12;
          LsStats want_stats;
          const core::Solution want = reference_polish(
              problem, seed_solution, problem.points(), config, want_stats,
              borrow ? borrowed.get() : reference_owned.get());
          LsStats got_stats;
          const core::Solution got =
              polish(problem, seed_solution, problem.points(), config,
                     &got_stats, borrow ? borrowed.get() : nullptr,
                     borrow ? &shared : nullptr);
          expect_identical(got, want, context);
          expect_same_stats(got_stats, want_stats, context);
          if (got_stats.improved) ++improved;
        }
      }
    }
  }
  EXPECT_EQ(instances, 210);
  // The poor seeds leave real work: most polishes must move.
  EXPECT_GT(improved, 600);
}

TEST(ColumnDifferential, OnDemandColumnsPastTheEntryBudgetMatchToo) {
  // n points in a 2 x 2 box at radius 1: each column holds most of the
  // population, so the candidate columns overrun kColumnEntryBudget.
  rnd::WorkloadSpec spec;
  spec.n = 2500;
  spec.box_side = 2.0;
  rnd::Rng rng(29);
  const core::Problem problem = core::Problem::from_workload(
      rnd::generate_workload(spec, rng), 1.0, geo::l2_metric());
  const std::size_t k = 3;
  const core::Solution seed = first_points_seed(problem, k);

  ColumnWorkspace workspace;
  DeltaEvaluator probe(problem, seed.centers, problem.points(), nullptr,
                       &workspace);
  ASSERT_GT(probe.cached_candidates(), 0u);
  ASSERT_LT(probe.cached_candidates(), problem.size())
      << "instance no longer overruns the column budget";
  EXPECT_LE(workspace.cached.ids.size(), kColumnEntryBudget);

  LsConfig config;
  config.max_sweeps = 2;
  auto index = spatial::make_index(problem.points(), problem.radius(),
                                   problem.metric());
  LsStats want_stats;
  const core::Solution want = reference_polish(
      problem, seed, problem.points(), config, want_stats, index.get());
  LsStats got_stats;
  const core::Solution got = polish(problem, seed, problem.points(), config,
                                    &got_stats, nullptr, &workspace);
  expect_identical(got, want, "past the budget");
  expect_same_stats(got_stats, want_stats, "past the budget");
  EXPECT_TRUE(got_stats.improved);
}

}  // namespace
}  // namespace mmph::ls
