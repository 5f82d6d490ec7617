#pragma once

/// \file warm_start.hpp
/// \brief Warm-started replanning across simulation slots.
///
/// Under slow interest drift, consecutive slots' optimal center sets are
/// close, so re-running a full greedy every slot wastes work. The warm-
/// start planner keeps the previous slot's centers and applies 1-swap
/// local search around them (over the current input points); when there is
/// no history — or the population changed size — it falls back to the cold
/// solver. The broadcast_scheduler example and simulator tests show it
/// tracks cold greedy quality at a fraction of the cost under mild drift.
///
/// A WarmStartPlanner is *stateful* across slots; create one per
/// simulation run and wrap it with factory() for BroadcastSimulator.

#include <functional>
#include <memory>
#include <optional>

#include "mmph/core/solver.hpp"
#include "mmph/sim/simulator.hpp"

namespace mmph::sim {

/// Produces the swap-candidate centers for a warm refinement pass.
/// The default is every input point, which is thorough but O(n) trials
/// per center; a serving deployment substitutes a small curated pool
/// (e.g. cached per-shard winners plus recently churned users).
using CandidateProvider =
    std::function<geo::PointSet(const core::Problem&)>;

class WarmStartPlanner {
 public:
  /// \p cold builds the from-scratch solver for a slot's Problem (used on
  /// the first slot and whenever history is unusable).
  /// \p max_sweeps bounds the refinement passes per slot.
  /// \p candidates overrides the swap-candidate pool; the default (or an
  /// empty pool returned at plan time) falls back to the input points.
  explicit WarmStartPlanner(SolverFactory cold, std::size_t max_sweeps = 2,
                            CandidateProvider candidates = nullptr);

  /// Plans one slot: refine the previous centers, or cold-solve.
  [[nodiscard]] core::Solution plan(const core::Problem& problem,
                                    std::size_t k);

  /// Adapts the planner to the BroadcastSimulator's SolverFactory shape.
  /// The returned factory shares this planner; the planner must outlive
  /// every solver the factory produces.
  [[nodiscard]] SolverFactory factory();

  /// Forgets history (e.g. after a handover); next plan() cold-solves.
  void reset() noexcept { previous_.reset(); }

  /// Replaces the history with \p centers: a caller that post-processes
  /// plan()'s output (a polish tier) seeds the next warm plan with the
  /// placement it actually served rather than the planner's own.
  void adopt(const geo::PointSet& centers) { previous_ = centers; }

  /// True when the next plan() can warm-start a k-center solve.
  [[nodiscard]] bool has_history(std::size_t k) const noexcept {
    return previous_.has_value() && previous_->size() == k;
  }

  [[nodiscard]] std::uint64_t cold_solves() const noexcept {
    return cold_solves_;
  }
  [[nodiscard]] std::uint64_t warm_solves() const noexcept {
    return warm_solves_;
  }

 private:
  SolverFactory cold_;
  std::size_t max_sweeps_;
  CandidateProvider candidates_;
  std::optional<geo::PointSet> previous_;
  std::uint64_t cold_solves_ = 0;
  std::uint64_t warm_solves_ = 0;
};

}  // namespace mmph::sim
