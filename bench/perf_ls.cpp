// Local-search polish throughput and quality lift. For each instance size
// the scenario runs the production pipeline once:
//
//   lazy      k rounds of LazyGreedySolver — the seed the polish tier
//             starts from (and the greedy reference the certified bounds
//             need);
//   ls        polish(lazy) by shift/swap local search; delta evaluation
//             merges coverage columns cached once per polish (up to
//             ls::kColumnEntryBudget entries, the rest built per trial);
//   bounds    certified_upper_bounds over the same candidate domain — the
//             absolute ceiling both values are reported against.
//
// Reported per size: both objective values, their fraction of the
// certified bound (quality), polish wall time, and the LsStats counters
// (evals / moves / sweeps) that put a denominator under the time, and how
// many candidates' columns fit the budget. The run self-checks the
// quality-tier invariants — ls >= lazy exactly, and ls <= certified
// bound — and exits nonzero on violation. The record carries the build
// type and the source revision given by --rev.
//
//   ./perf_ls --k 8 --rev "$(git rev-parse --short HEAD)" --out BENCH_ls.json

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/io/args.hpp"
#include "mmph/ls/bounds.hpp"
#include "mmph/ls/local_search.hpp"
#include "mmph/random/workload.hpp"

namespace {

using namespace mmph;
using Clock = std::chrono::steady_clock;

struct ScenarioResult {
  std::size_t n = 0;
  std::size_t k = 0;
  double lazy_value = 0.0;
  double ls_value = 0.0;
  double bound = 0.0;
  double lazy_seconds = 0.0;
  double ls_seconds = 0.0;
  ls::LsStats stats;
  std::size_t columns_cached = 0;  ///< candidates whose column fit
  std::size_t column_entries = 0;  ///< entries of those columns

  [[nodiscard]] double lazy_quality() const {
    return bound > 0.0 ? lazy_value / bound : 0.0;
  }
  [[nodiscard]] double ls_quality() const {
    return bound > 0.0 ? ls_value / bound : 0.0;
  }
  [[nodiscard]] double evals_per_sec() const {
    return ls_seconds > 0.0
               ? static_cast<double>(stats.evals) / ls_seconds
               : 0.0;
  }
};

ScenarioResult run_size(std::size_t n, std::size_t k, std::uint64_t seed) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  spec.dim = 2;
  spec.weights = rnd::WeightScheme::kZipf;
  rnd::Rng rng(seed);
  const core::Problem problem = core::Problem::from_workload(
      rnd::generate_workload(spec, rng), 1.0, geo::l2_metric());

  ScenarioResult result;
  result.n = n;
  result.k = k;

  const core::LazyGreedySolver lazy_solver;
  const auto lazy_start = Clock::now();
  const core::Solution lazy = lazy_solver.solve(problem, k);
  result.lazy_seconds =
      std::chrono::duration<double>(Clock::now() - lazy_start).count();
  result.lazy_value = lazy.total_reward;

  ls::ColumnWorkspace workspace;
  const auto ls_start = Clock::now();
  const core::Solution polished = ls::polish(
      problem, lazy, problem.points(), {}, &result.stats, nullptr, &workspace);
  result.ls_seconds =
      std::chrono::duration<double>(Clock::now() - ls_start).count();
  result.columns_cached = workspace.offsets.size() - 1;
  result.column_entries = workspace.cached.ids.size();
  result.ls_value = polished.total_reward;

  const ls::UpperBounds bounds =
      ls::certified_upper_bounds(problem, k, lazy, problem.points());
  result.bound = bounds.best();
  return result;
}

std::string scenario_json(const ScenarioResult& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "  \"n%zu\": {\"n\": %zu, \"k\": %zu, \"lazy_value\": %.6f, "
      "\"ls_value\": %.6f, \"bound\": %.6f, \"lazy_quality\": %.4f, "
      "\"ls_quality\": %.4f, \"lazy_seconds\": %.4f, \"ls_seconds\": %.4f, "
      "\"ls_evals\": %llu, \"ls_moves\": %llu, \"ls_sweeps\": %zu, "
      "\"evals_per_sec\": %.0f, \"columns_cached\": %zu, "
      "\"column_entries\": %zu, \"past_column_budget\": %s}",
      r.n, r.n, r.k, r.lazy_value, r.ls_value, r.bound, r.lazy_quality(),
      r.ls_quality(), r.lazy_seconds, r.ls_seconds,
      static_cast<unsigned long long>(r.stats.evals),
      static_cast<unsigned long long>(r.stats.moves), r.stats.sweeps,
      r.evals_per_sec(), r.columns_cached, r.column_entries,
      r.columns_cached < r.n ? "true" : "false");
  return buf;
}

}  // namespace

int main(int argc, char** argv) try {
  io::Args args(argc, argv);
  const auto k = static_cast<std::size_t>(args.get_int("k", 8));
  const std::string out_path = args.get_string("out", "BENCH_ls.json");
  const std::string rev = args.get_string("rev", "unknown");
  args.finish();

  const std::size_t sizes[] = {2000, 10000, 20000};
  std::vector<ScenarioResult> results;
  bool ok = true;
  for (const std::size_t n : sizes) {
    const ScenarioResult r = run_size(n, k, 2011 + n);
    std::printf("n=%-6zu lazy %.4f (%.1f%% of bound) in %.3fs | "
                "ls %.4f (%.1f%% of bound) in %.3fs, %llu evals "
                "(%0.f/s), %llu moves, %zu sweeps, %zu/%zu columns "
                "cached%s\n",
                r.n, r.lazy_value, 100.0 * r.lazy_quality(), r.lazy_seconds,
                r.ls_value, 100.0 * r.ls_quality(), r.ls_seconds,
                static_cast<unsigned long long>(r.stats.evals),
                r.evals_per_sec(),
                static_cast<unsigned long long>(r.stats.moves),
                r.stats.sweeps, r.columns_cached, r.n,
                r.stats.aborted ? "  [ABORTED]" : "");
    // The quality-tier invariants, enforced here too: polish never loses
    // to its seed (structural), and never clears the certified ceiling.
    if (r.ls_value < r.lazy_value) {
      std::fprintf(stderr, "perf_ls: ls < lazy at n=%zu\n", r.n);
      ok = false;
    }
    if (r.ls_value > r.bound * (1.0 + 1e-9)) {
      std::fprintf(stderr, "perf_ls: ls above certified bound at n=%zu\n",
                   r.n);
      ok = false;
    }
    results.push_back(r);
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"ls\",\n  \"scenario\": "
         "\"lazy greedy seed polished by shift/swap local search, values "
         "against the certified upper bound (2d, l2, zipf weights)\",\n"
      << "  \"rev\": \"" << rev << "\",\n"
      << "  \"build_type\": \"" << MMPH_BUILD_TYPE << "\",\n"
      << "  \"column_entry_budget\": " << ls::kColumnEntryBudget << ",\n"
      << "  \"config\": {\"k\": " << k << "},\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << scenario_json(results[i]) << (i + 1 < results.size() ? ",\n" : "\n");
  }
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perf_ls: %s\n", e.what());
  return 1;
}
