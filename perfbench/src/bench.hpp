#pragma once

/// \file bench.hpp
/// \brief Shared types of the mmph end-to-end benchmark (perfbench).
///
/// The harness starts an in-process net::NetServer on loopback, seeds it
/// over the wire, and drives it with a seeded op stream: open-loop
/// Poisson traffic from one generator thread (durable_churn) or one
/// closed-loop controller connection (ls_quality). A reference
/// model of the acked population checks every run; a separate traced
/// replay times each layer's public calls. See perfbench/README.md.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mmph/serve/placement_service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline constexpr std::size_t kDim = 2;
/// Coverage radius r of every workload (the paper's r = 1).
inline constexpr double kRadius = 1.0;
/// Server shape of every workload: one event loop and a two-thread pool,
/// so that loop + pool + generator thread = 4 = nproc of the calibration
/// box. With two loops they took turns on the service's pump mutex and a
/// request waited two or three back-to-back solves by phase luck
/// (durable_churn mutate p99 164-293 ms over five seeds, against 82-92).
inline constexpr std::size_t kLoops = 1;
inline constexpr std::size_t kPoolThreads = 2;
/// Hot regions: move and leave keys are Zipf-skewed over a grid of this
/// many regions per side.
inline constexpr std::size_t kRegionsPerSide = 8;

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// One workload's fixed parameters (see workloads() in main.cpp).
struct WorkloadSpec {
  std::string name;
  std::string why;
  bool open_loop = true;

  // Instance and server shape.
  std::size_t n = 0;
  double box = 4.0;  ///< users live in [0, box]^2
  std::size_t k = 8;
  std::size_t store_shards = 1;
  bool wal = false;
  mmph::serve::SolverTier solver = mmph::serve::SolverTier::kLazy;
  /// ServiceConfig::full_solve_churn_fraction (serve-net's --threshold):
  /// churn since the last solve, as a share of n, above which the next
  /// placement is a full solve instead of a warm re-solve.
  double full_solve_churn_fraction = 0.05;
  std::size_t connections = 4;

  // Op mix of the rate-scaled Poisson stream (shares sum to 1).
  double p_query = 1.0;
  double p_evaluate = 0.0;
  double p_move = 0.0;
  double p_join = 0.0;
  double p_leave = 0.0;
  /// Evenly spaced stats scrapes per second.
  double stats_per_s = 0.0;
  /// Zipf exponent over hot regions for move/leave keys.
  double zipf_s = 0.0;
  double move_sigma = 0.25;  ///< Gaussian step of a move

  // Open loop: the Poisson rate (req/s) at which latencies are measured,
  // and the SLO a saturated-phase reply must meet to count as goodput.
  double reference_rate = 0.0;
  double slo_ms = 0.0;

  // Closed loop: users re-placed per epoch.
  std::size_t churn_per_epoch = 0;
  /// Closed loop: epoch at which placement_quality is certified (the
  /// batch boundaries of one controller connection are deterministic, so
  /// the quality at a fixed epoch repeats bit for bit).
  std::size_t quality_epoch = 0;
};

enum class OpKind : std::uint8_t {
  kQuery,
  kEvaluate,
  kMove,
  kJoin,
  kLeave,
  kStats,
};

[[nodiscard]] const char* op_name(OpKind kind) noexcept;
[[nodiscard]] inline bool is_mutation(OpKind kind) noexcept {
  return kind == OpKind::kMove || kind == OpKind::kJoin ||
         kind == OpKind::kLeave;
}

/// One generated operation. Mutations carry the user's absolute new
/// position (moves and joins are upserts), so the model applies an acked
/// op without knowing what the generator assumed before it.
struct Op {
  OpKind kind = OpKind::kQuery;
  std::uint32_t conn = 0;
  std::uint64_t id = 0;
  double x = 0.0;
  double y = 0.0;
  /// kEvaluate: what-if centers, k rows of kDim.
  std::vector<double> centers;
};

/// A user as the reference model holds it.
struct UserPos {
  double x = 0.0;
  double y = 0.0;
};

/// The acked population: what the server must hold after a quiesced run.
using Model = std::map<std::uint64_t, UserPos>;

/// Sorted-sample helpers.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// The highest of p50/p90/p99 with at least ten samples beyond it.
[[nodiscard]] double supported_level(std::size_t samples);
/// The sample's percentile at its supported_level().
[[nodiscard]] double tail(const std::vector<double>& samples);

/// CPU placement of the calling thread (threads it creates inherit it).
/// The server's threads get every CPU but the last; the generator thread
/// gets the last one to itself, so load generation and the system under
/// test never share a CPU. No-ops on a single-CPU box.
void use_server_cpus();
void use_generator_cpu();
void use_all_cpus();

/// Peak resident set of this process (VmHWM), MB.
[[nodiscard]] double peak_rss_mb();
/// Returns freed heap to the OS and restarts the peak at the current
/// resident set, so the next peak_rss_mb() covers only what follows.
void reset_peak_rss();

/// Minimal JSON writer for the result line and the run record.
class Json {
 public:
  void begin_object();
  void end_object();
  void begin_array(const std::string& key);
  void end_array();
  void key(const std::string& key);
  void value(double v);
  void value(std::uint64_t v);
  void value(const std::string& v);
  void value(bool v);
  void field(const std::string& k, double v) { key(k); value(v); }
  void field(const std::string& k, std::uint64_t v) { key(k); value(v); }
  void field(const std::string& k, const std::string& v) { key(k); value(v); }
  void field(const std::string& k, bool v) { key(k); value(v); }
  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void comma();
  void write_string(const std::string& v);
  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench
