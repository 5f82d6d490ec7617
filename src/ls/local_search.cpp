#include "mmph/ls/local_search.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

#include "mmph/core/candidate_set.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/geometry/vec.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::ls {

namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

/// \p v when \p keep, else exactly +0.0 — a select without a branch.
inline double keep_if(bool keep, double v) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) &
                               (std::uint64_t{0} - std::uint64_t{keep}));
}

/// Calls fn(i, u_old, u_new) for every id of the union of the columns
/// \p old_col and \p new_col, in ascending order, with 0.0 standing in for
/// an id a column lacks. Those are exactly the ids where a swap can change
/// coverage: an id in neither column has u_old == u_new == 0.0, contributes
/// an exact +0.0 delta term and leaves its total unchanged, so skipping it
/// changes no bit.
template <typename View, typename Fn>
void for_each_merged(View old_col, View new_col, Fn&& fn) {
  std::size_t a = 0;
  std::size_t b = 0;
  // Branch-free: which side advances is data-dependent and unpredictable,
  // and this loop is the whole cost of a trial.
  while (a < old_col.size && b < new_col.size) {
    const std::uint32_t ia = old_col.ids[a];
    const std::uint32_t ib = new_col.ids[b];
    const bool take_a = ia <= ib;
    const bool take_b = ib <= ia;
    fn(std::min(ia, ib), keep_if(take_a, old_col.units[a]),
       keep_if(take_b, new_col.units[b]));
    a += static_cast<std::size_t>(take_a);
    b += static_cast<std::size_t>(take_b);
  }
  for (; a < old_col.size; ++a) fn(old_col.ids[a], old_col.units[a], 0.0);
  for (; b < new_col.size; ++b) fn(new_col.ids[b], 0.0, new_col.units[b]);
}

}  // namespace

DeltaEvaluator::DeltaEvaluator(const core::Problem& problem,
                               const geo::PointSet& centers,
                               const geo::PointSet& candidates,
                               spatial::SpatialIndex* borrowed_index,
                               ColumnWorkspace* workspace)
    : problem_(problem),
      centers_(centers),
      candidates_(candidates),
      ws_(workspace) {
  MMPH_REQUIRE(centers_.dim() == problem.dim(),
               "DeltaEvaluator: center dimension mismatch");
  MMPH_REQUIRE(!centers_.empty(), "DeltaEvaluator: empty center set");
  MMPH_REQUIRE(candidates_.dim() == problem.dim(),
               "DeltaEvaluator: candidate dimension mismatch");
  MMPH_REQUIRE(problem.size() <= std::numeric_limits<std::uint32_t>::max(),
               "DeltaEvaluator: population exceeds 32-bit column ids");
  if (borrowed_index != nullptr) {
    MMPH_REQUIRE(borrowed_index->size() == problem.size() &&
                     borrowed_index->dim() == problem.dim() &&
                     borrowed_index->radius() == problem.radius(),
                 "DeltaEvaluator: borrowed index does not match the problem");
    // A prior indexed solve may have masked residual-exhausted points;
    // delta evaluation needs the whole population visible.
    borrowed_index->unmask_all();
    index_ = borrowed_index;
  } else {
    owned_ = spatial::make_index(problem.points(), problem.radius(),
                                 problem.metric());
    index_ = owned_.get();
  }
  if (ws_ == nullptr) {
    owned_ws_ = std::make_unique<ColumnWorkspace>();
    ws_ = owned_ws_.get();
  }

  totals_.assign(problem_.size(), 0.0);
  ws_->slots.resize(centers_.size());
  for (std::size_t j = 0; j < centers_.size(); ++j) {
    CoverageColumn& column = ws_->slots[j];
    build_column(centers_[j], column);
    for (std::size_t e = 0; e < column.ids.size(); ++e) {
      totals_[column.ids[e]] += column.units[e];
    }
  }
  value_ = exact_value();

  CoverageColumn& cached = ws_->cached;
  cached.ids.clear();
  cached.units.clear();
  ws_->offsets.assign(1, 0);
  for (; cached_count_ < candidates_.size(); ++cached_count_) {
    build_column(candidates_[cached_count_], ws_->scratch);
    if (cached.ids.size() + ws_->scratch.ids.size() > kColumnEntryBudget) {
      break;  // this and every later candidate is built per trial
    }
    cached.ids.insert(cached.ids.end(), ws_->scratch.ids.begin(),
                      ws_->scratch.ids.end());
    cached.units.insert(cached.units.end(), ws_->scratch.units.begin(),
                        ws_->scratch.units.end());
    ws_->offsets.push_back(cached.ids.size());
  }
}

double DeltaEvaluator::exact_value() const {
  double f = 0.0;
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    f += problem_.weight(i) * std::min(totals_[i], 1.0);
  }
  return f;
}

void DeltaEvaluator::build_column(geo::ConstVec point,
                                  CoverageColumn& out) const {
  out.ids.clear();
  out.units.clear();
  // The query is a superset of the ball in ascending id order, so the
  // column is ascending too; ids at or past the radius have u == 0.0.
  index_->query(point, ws_->ball);
  for (const std::size_t i : ws_->ball) {
    const double u = core::unit_coverage(problem_, point, i);
    if (u > 0.0) {
      out.ids.push_back(static_cast<std::uint32_t>(i));
      out.units.push_back(u);
    }
  }
}

DeltaEvaluator::ColumnView DeltaEvaluator::column_of(std::size_t c) const {
  MMPH_REQUIRE(c < candidates_.size(), "DeltaEvaluator: candidate index");
  if (c < cached_count_) {
    const std::size_t begin = ws_->offsets[c];
    return {ws_->cached.ids.data() + begin, ws_->cached.units.data() + begin,
            ws_->offsets[c + 1] - begin};
  }
  build_column(candidates_[c], ws_->scratch);
  return view_of(ws_->scratch);
}

DeltaEvaluator::ColumnView DeltaEvaluator::view_of(
    const CoverageColumn& column) {
  return {column.ids.data(), column.units.data(), column.ids.size()};
}

double DeltaEvaluator::delta_of(std::size_t j, ColumnView col) const {
  MMPH_REQUIRE(j < centers_.size(), "DeltaEvaluator: center index");
  double delta = 0.0;
  for_each_merged(view_of(ws_->slots[j]), col,
                  [&](std::uint32_t i, double u_old, double u_new) {
                    const double total = totals_[i] - u_old + u_new;
                    delta += problem_.weight(i) * (std::min(total, 1.0) -
                                                   std::min(totals_[i], 1.0));
                  });
  return delta;
}

double DeltaEvaluator::delta_for_swap(std::size_t j, std::size_t c) const {
  return delta_of(j, column_of(c));
}

void DeltaEvaluator::commit_swap(std::size_t j, std::size_t c) {
  const ColumnView col = column_of(c);
  const double delta = delta_of(j, col);
  CoverageColumn& slot = ws_->slots[j];
  for_each_merged(view_of(slot), col,
                  [&](std::uint32_t i, double u_old, double u_new) {
                    totals_[i] += u_new - u_old;
                  });
  slot.ids.assign(col.ids, col.ids + col.size);
  slot.units.assign(col.units, col.units + col.size);
  geo::assign(centers_.mutable_point(j), candidates_[c]);
  value_ += delta;
}

namespace {

/// Exact per-round re-accounting of \p centers (the solvers' invariant:
/// total_reward == sum of round rewards == f(centers)).
core::Solution account(const core::Problem& problem,
                       const geo::PointSet& centers) {
  core::Solution out;
  out.centers = centers;
  out.residual = core::fresh_residual(problem);
  for (std::size_t j = 0; j < centers.size(); ++j) {
    const double g = core::apply_center(problem, centers[j], out.residual);
    out.round_rewards.push_back(g);
    out.total_reward += g;
  }
  return out;
}

struct PolishRun {
  const core::Problem& problem;
  const geo::PointSet& candidates;
  const LsConfig& config;
  DeltaEvaluator& eval;
  LsStats& stats;

  [[nodiscard]] double try_eval(std::size_t j, std::size_t c) {
    if (config.fault_hook && config.fault_hook(kFaultLsEvalThrow)) {
      throw std::runtime_error("ls: injected delta-evaluation fault");
    }
    ++stats.evals;
    return eval.delta_for_swap(j, c);
  }

  /// One first-improvement sweep: shift pass (radius-local candidates via
  /// \p cand_index, a superset of each center's ball), then the full swap
  /// pass. Returns whether any move was committed.
  bool first_improvement_sweep(const spatial::SpatialIndex* cand_index) {
    bool improved = false;
    std::vector<std::size_t> shift_ids;
    const std::size_t k = eval.centers().size();
    if (cand_index != nullptr) {
      for (std::size_t j = 0; j < k; ++j) {
        cand_index->query(eval.centers()[j], shift_ids);
        for (const std::size_t c : shift_ids) {
          const double delta = try_eval(j, c);
          if (delta > config.min_gain) {
            eval.commit_swap(j, c);
            ++stats.moves;
            ++stats.shift_moves;
            improved = true;
            break;  // slot j moved; its candidate ball is stale
          }
        }
      }
    }
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const double delta = try_eval(j, c);
        if (delta > config.min_gain) {
          eval.commit_swap(j, c);
          ++stats.moves;
          ++stats.swap_moves;
          improved = true;
        }
      }
    }
    return improved;
  }

  /// One tabu sweep: full scan, commit the single best non-tabu improving
  /// move (exact delta ties broken by \p rng). Worsening moves are never
  /// taken, so the polish stays monotone.
  bool tabu_sweep(rnd::Pcg64& rng, std::vector<std::uint64_t>& tabu_until,
                  std::vector<std::size_t>& slot_origin,
                  std::uint64_t& move_clock) {
    double best_delta = 0.0;
    std::vector<std::pair<std::size_t, std::size_t>> ties;
    const std::size_t k = eval.centers().size();
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
    if (best_delta <= config.min_gain || ties.empty()) return false;
    const auto [j, c] = ties[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(ties.size())))];
    eval.commit_swap(j, c);
    ++stats.moves;
    ++stats.swap_moves;
    ++move_clock;
    if (slot_origin[j] != kNoSlot) {
      tabu_until[slot_origin[j]] = move_clock + config.tabu_tenure;
    }
    slot_origin[j] = c;
    return true;
  }
};

}  // namespace

core::Solution polish(const core::Problem& problem, const core::Solution& seed,
                      const geo::PointSet& candidates, const LsConfig& config,
                      LsStats* stats, spatial::SpatialIndex* population_index,
                      ColumnWorkspace* workspace) {
  MMPH_REQUIRE(!candidates.empty(), "ls::polish: empty candidate set");
  MMPH_REQUIRE(candidates.dim() == problem.dim(),
               "ls::polish: candidate dimension mismatch");
  LsStats local;
  LsStats& st = stats != nullptr ? *stats : local;
  st = LsStats{};
  if (seed.centers.empty()) return seed;
  MMPH_REQUIRE(seed.centers.dim() == problem.dim(),
               "ls::polish: seed dimension mismatch");

  DeltaEvaluator eval(problem, seed.centers, candidates, population_index,
                      workspace);
  std::unique_ptr<spatial::SpatialIndex> cand_index;
  if (config.shift_moves) {
    cand_index =
        spatial::make_index(candidates, problem.radius(), problem.metric());
  }

  PolishRun run{problem, candidates, config, eval, st};
  try {
    if (config.tabu_tenure == 0) {
      for (std::size_t sweep = 0; sweep < config.max_sweeps; ++sweep) {
        ++st.sweeps;
        if (!run.first_improvement_sweep(cand_index.get())) {
          st.converged = true;
          break;
        }
      }
    } else {
      rnd::Pcg64 rng(config.seed);
      std::vector<std::uint64_t> tabu_until(candidates.size(), 0);
      std::vector<std::size_t> slot_origin(seed.centers.size(), kNoSlot);
      std::uint64_t move_clock = 0;
      for (std::size_t sweep = 0; sweep < config.max_sweeps; ++sweep) {
        ++st.sweeps;
        if (!run.tabu_sweep(rng, tabu_until, slot_origin, move_clock)) {
          st.converged = true;
          break;
        }
      }
    }
  } catch (const std::exception&) {
    // A delta evaluation failed (injected fault or organic). The seed is a
    // complete, valid solution — return it verbatim rather than a state
    // mid-move; the caller's f(ls) >= f(seed) contract still holds.
    st.aborted = true;
    return seed;
  }

  // Exact final accounting. Deltas accumulate with different float
  // association than a from-scratch pass; re-derive the per-round rewards
  // with apply_center and keep the seed whenever polishing did not
  // strictly beat it, so f(result) >= f(seed) is structural, not "up to
  // drift".
  core::Solution out = account(problem, eval.centers());
  if (!(out.total_reward > seed.total_reward)) return seed;
  st.improved = true;
  out.solver_name = seed.solver_name + "+ls";
  return out;
}

LocalSearchSolver::LocalSearchSolver(std::shared_ptr<const core::Solver> base,
                                     geo::PointSet candidates, LsConfig config)
    : base_(std::move(base)),
      candidates_(std::move(candidates)),
      config_(std::move(config)) {
  MMPH_REQUIRE(base_ != nullptr, "LocalSearchSolver needs a base solver");
  MMPH_REQUIRE(config_.max_sweeps >= 1,
               "LocalSearchSolver needs max_sweeps >= 1");
}

LocalSearchSolver::LocalSearchSolver(std::shared_ptr<const core::Solver> base,
                                     LsConfig config)
    : LocalSearchSolver(std::move(base), geo::PointSet(1), std::move(config)) {}

std::string LocalSearchSolver::name() const {
  return "ls(" + base_->name() + ")";
}

core::Solution LocalSearchSolver::solve(const core::Problem& problem,
                                        std::size_t k) const {
  core::Solution seed = base_->solve(problem, k);
  const geo::PointSet& domain = candidates_.empty()
                                    ? problem.points()
                                    : candidates_;
  core::Solution out = polish(problem, seed, domain, config_, &stats_,
                              nullptr, &workspace_);
  out.solver_name = name();
  return out;
}

}  // namespace mmph::ls
