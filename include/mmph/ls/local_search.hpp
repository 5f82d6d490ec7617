#pragma once

/// \file local_search.hpp
/// \brief Shift/swap local search with coverage-column delta evaluation.
///
/// The polish tier of the solver stack: take any seed solution (greedy,
/// lazy greedy, sharded merge, the previous epoch's placement) and improve
/// it by 1-swap moves until a local optimum. Two move kinds per sweep:
///
///   shift  — replace center c_j by a candidate inside c_j's coverage ball
///            (a radius query on a candidate index: the cheap, usually
///            sufficient repair move);
///   swap   — replace c_j by any candidate (the full neighborhood,
///            scanned when no shift improves).
///
/// Acceptance is strict improvement (delta > min_gain) in a deterministic
/// first-improvement order (centers ascending, candidates ascending), so
/// the same seed solution always polishes to the same centers. An optional
/// tabu list switches move selection to best-improvement among non-tabu
/// candidates, with exact ties broken by a seeded PCG64 stream — still
/// monotone (worsening moves are never taken), still deterministic for a
/// fixed seed.
///
/// The cost model is the point: a swap's objective delta only involves
/// points inside ball(old center) ∪ ball(new candidate) — everywhere else
/// u_i is exactly 0 for both. DeltaEvaluator therefore keeps one coverage
/// *column* per center slot and per candidate — the ascending (i, u_i)
/// pairs with u_i > 0 — computed once per polish from spatial radius
/// queries. A trial is then one O(|column| + |column|) merge with no
/// query, no coverage recomputation and no sqrt, instead of the O(n)
/// scan core::SwapEvaluator pays (let alone the O(n·k) rescan of a
/// from-scratch objective_value). Deltas accumulate term by term in
/// ascending point-id order and the skipped pairs are exact +0.0 terms,
/// so two runs of the same polish are bit-identical, and identical to a
/// per-trial query-and-recompute evaluation.
///
/// Guarantee the test oracles lean on: polish() re-derives the final
/// per-round accounting exactly (core::apply_center) and returns the seed
/// verbatim whenever the polished total is not >= the seed's total, so
/// `f(ls) >= f(seed)` holds machine-checkably, never just up to drift.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mmph/core/problem.hpp"
#include "mmph/core/solver.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/spatial/spatial_index.hpp"
#include "mmph/support/page_allocator.hpp"

namespace mmph::ls {

/// Test-only fault seam, structurally identical to serve::FaultHook (ls
/// sits below serve, so the alias is re-declared rather than included).
using FaultHook = std::function<bool(std::string_view site)>;

/// A delta evaluation throws mid-polish -> polish() returns the seed
/// solution verbatim and marks LsStats::aborted. Registered here (not in
/// serve/fault.hpp) because the ls layer itself consults the hook; the
/// serve catalog cross-references this name.
inline constexpr std::string_view kFaultLsEvalThrow = "ls.eval_throw";

/// Tunables of one polish run.
struct LsConfig {
  /// Full improvement passes before giving up on convergence.
  std::size_t max_sweeps = 8;
  /// Strict-improvement threshold; rejects float-noise "improvements".
  double min_gain = 1e-9;
  /// 0 = plain first-improvement. > 0 = best-improvement with a tabu list:
  /// a candidate swapped out of the solution may not re-enter for this
  /// many committed moves (diversifies the improvement path; worsening
  /// moves are still never accepted).
  std::size_t tabu_tenure = 0;
  /// PCG64 stream seed for tabu-mode tie-breaking (exact delta ties).
  std::uint64_t seed = 2011;
  /// Enable the shift pass (radius-local candidates first). Off = pure
  /// swap sweeps, the classic neighborhood.
  bool shift_moves = true;
  /// Test-only fault seam; empty in production (one cheap bool check).
  FaultHook fault_hook{};
};

/// Counters of one polish run (feeds the mmph_ls_* obs counters).
struct LsStats {
  std::uint64_t evals = 0;        ///< delta evaluations performed
  std::uint64_t moves = 0;        ///< committed moves (shift + swap)
  std::uint64_t shift_moves = 0;  ///< committed moves found by the shift pass
  std::uint64_t swap_moves = 0;   ///< committed moves found by the swap pass
  std::size_t sweeps = 0;         ///< improvement passes executed
  bool improved = false;   ///< polished total strictly beat the seed total
  bool converged = false;  ///< local optimum reached before max_sweeps
  bool aborted = false;    ///< an eval threw -> seed returned verbatim
};

/// A coverage column: the strictly ascending point ids i with u_i(c) > 0
/// and their unit coverages, as parallel arrays (4 + 8 = 12 bytes per
/// entry). Page-backed: the concatenated candidate columns are the
/// largest long-lived buffers of a serving process.
struct CoverageColumn {
  std::vector<std::uint32_t, support::PageAllocator<std::uint32_t>> ids;
  std::vector<double, support::PageAllocator<double>> units;
};

/// Candidate-column entries one polish keeps (12 B each: 24 MiB). The
/// candidates are cached in ascending order until the next column would
/// not fit; the rest are rebuilt into a scratch column on every trial and
/// go through the same merge.
inline constexpr std::size_t kColumnEntryBudget = std::size_t{1} << 21;

/// Column storage of a DeltaEvaluator. A long-lived caller (the serving
/// tier, LocalSearchSolver) owns one and lends it to every polish, so the
/// buffers keep their capacity across solves instead of being reallocated
/// per polish. Contents are overwritten by each evaluator that borrows it.
struct ColumnWorkspace {
  CoverageColumn cached;              ///< candidate columns, concatenated
  std::vector<std::size_t> offsets;   ///< column c = [offsets[c], offsets[c+1])
  std::vector<CoverageColumn> slots;  ///< column of centers()[j]
  CoverageColumn scratch;             ///< a column built on demand
  std::vector<std::size_t> ball;      ///< radius-query buffer
};

/// Incremental objective evaluation for 1-swap neighborhoods, delta-style:
/// it keeps the per-point coverage totals and one coverage column per
/// center slot and per candidate, and answers "what does replacing c_j by
/// candidate c change" by merging slot j's column with candidate c's.
/// Columns come from radius queries on a spatial index over the
/// population, so construction is O((k + |candidates|) · ball), not
/// O(k · n), and a trial touches only the two columns.
class DeltaEvaluator {
 public:
  /// Caches coverage of \p centers (copied) and of \p candidates
  /// (ascending, up to kColumnEntryBudget entries; the rest are built per
  /// trial) against \p problem. \p candidates must outlive the
  /// evaluator. When \p borrowed_index is non-null it is used for the
  /// radius queries (unmask_all() is called first — a prior indexed solve
  /// may have left masks set); it must index exactly problem.points() at
  /// problem.radius() and outlive the evaluator. Null builds an owned
  /// index via spatial::make_index. \p workspace, when non-null, holds
  /// the columns (it must outlive the evaluator); null owns one.
  DeltaEvaluator(const core::Problem& problem, const geo::PointSet& centers,
                 const geo::PointSet& candidates,
                 spatial::SpatialIndex* borrowed_index = nullptr,
                 ColumnWorkspace* workspace = nullptr);

  [[nodiscard]] const geo::PointSet& centers() const noexcept {
    return centers_;
  }

  /// f(C) for the current center set, maintained by accumulated deltas.
  [[nodiscard]] double current_value() const noexcept { return value_; }

  /// Candidates whose column is cached (a prefix of the candidate set).
  [[nodiscard]] std::size_t cached_candidates() const noexcept {
    return cached_count_;
  }

  /// f(C with centers[j] := candidates[c]) − f(C), without changing state:
  /// one merge of two columns.
  [[nodiscard]] double delta_for_swap(std::size_t j, std::size_t c) const;

  /// Applies the swap centers[j] := candidates[c] and updates the caches.
  /// Same cost as a delta.
  void commit_swap(std::size_t j, std::size_t c);

  /// Full O(n) recompute of f(C) from the cached totals (test hook for
  /// pinning the accumulated value_ against drift).
  [[nodiscard]] double exact_value() const;

 private:
  /// A column borrowed from the cache, a slot or the scratch.
  struct ColumnView {
    const std::uint32_t* ids;
    const double* units;
    std::size_t size;
  };

  /// Fills \p out with the column of \p point.
  void build_column(geo::ConstVec point, CoverageColumn& out) const;
  /// The column of candidate \p c: cached, or built into the scratch.
  [[nodiscard]] ColumnView column_of(std::size_t c) const;
  [[nodiscard]] static ColumnView view_of(const CoverageColumn& column);
  /// Delta of centers[j] := the point whose column is \p col.
  [[nodiscard]] double delta_of(std::size_t j, ColumnView col) const;

  const core::Problem& problem_;
  geo::PointSet centers_;
  const geo::PointSet& candidates_;
  spatial::SpatialIndex* index_;  ///< borrowed, or owned_.get()
  std::unique_ptr<spatial::SpatialIndex> owned_;
  ColumnWorkspace* ws_;  ///< borrowed, or owned_ws_.get()
  std::unique_ptr<ColumnWorkspace> owned_ws_;
  std::size_t cached_count_ = 0;
  std::vector<double> totals_;  ///< sum_j u_i(c_j), uncapped
  double value_ = 0.0;
};

/// Polishes \p seed by shift/swap local search over \p candidates (the
/// center domain; must be nonempty and match the problem's dimension).
/// Returns a solution with exact per-round accounting whose total_reward
/// is >= seed.total_reward — the seed itself when no improving move
/// survives, or when an evaluation throws (LsStats::aborted). \p stats,
/// when non-null, receives the run's counters. \p population_index and
/// \p workspace are the optional borrowed index and column storage of
/// DeltaEvaluator.
[[nodiscard]] core::Solution polish(
    const core::Problem& problem, const core::Solution& seed,
    const geo::PointSet& candidates, const LsConfig& config = {},
    LsStats* stats = nullptr,
    spatial::SpatialIndex* population_index = nullptr,
    ColumnWorkspace* workspace = nullptr);

/// A core::Solver that runs \p base and polishes its output. With an empty
/// \p candidates set the center domain defaults to the instance's own
/// points (the Algorithm 2/3 domain), resolved per solve. The solver keeps
/// its column workspace (and last_stats) across solves, so one object must
/// not solve on two threads at once.
class LocalSearchSolver final : public core::Solver {
 public:
  LocalSearchSolver(std::shared_ptr<const core::Solver> base,
                    geo::PointSet candidates, LsConfig config = {});

  /// Convenience: candidates default to the instance points.
  explicit LocalSearchSolver(std::shared_ptr<const core::Solver> base,
                             LsConfig config = {});

  /// "ls(<base>)" — distinct from core's legacy "greedy2+ls".
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] core::Solution solve(const core::Problem& problem,
                                     std::size_t k) const override;

  /// Counters of the last solve()'s polish phase.
  [[nodiscard]] const LsStats& last_stats() const noexcept { return stats_; }

 private:
  std::shared_ptr<const core::Solver> base_;
  geo::PointSet candidates_;
  LsConfig config_;
  mutable LsStats stats_;
  mutable ColumnWorkspace workspace_;
};

}  // namespace mmph::ls
