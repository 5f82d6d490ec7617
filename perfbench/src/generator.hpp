#pragma once

/// \file generator.hpp
/// \brief Seeded op-stream generator and its self-tests.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mmph/net/wire.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/serve/instance_store.hpp"

namespace perfbench {

/// One op of a phase schedule, due `due` seconds after the phase start.
struct Scheduled {
  double due = 0.0;
  Op op;
};

/// Deterministic in (workload, seed): the same seed yields the same
/// population and the same op sequence. Tracks the population it has
/// generated so moves step from a user's last position and leaves pick
/// live users. Each connection owns the ids with id % connections == conn,
/// so every op on one id travels one connection and acked mutations have
/// one order.
class OpGenerator {
 public:
  OpGenerator(const WorkloadSpec& spec, std::uint64_t seed);

  /// The initial population (ids 0..n-1, weight 1).
  [[nodiscard]] const std::vector<mmph::serve::UserRecord>& initial() const {
    return initial_;
  }

  /// A move of a Zipf-picked live user.
  [[nodiscard]] Op next_move();
  /// A what-if evaluate on a random connection.
  [[nodiscard]] Op next_evaluate();
  /// The Poisson mix stream at \p rate merged with the workload's evenly
  /// spaced stats scrapes over \p duration seconds, in due order.
  [[nodiscard]] std::vector<Scheduled> schedule(double rate, double duration);

  /// Zipf rank (0 = hottest region) drawn by each pick, for self-tests.
  [[nodiscard]] const std::vector<std::uint64_t>& rank_hits() const {
    return rank_hits_;
  }

 private:
  struct User {
    double x = 0.0;
    double y = 0.0;
    bool alive = false;
    std::size_t region = 0;
    std::size_t slot = 0;  ///< index in regions_[region]
  };

  /// Next op of the rate-scaled stream, drawn from the workload's mix.
  [[nodiscard]] Op next_mix();
  [[nodiscard]] std::size_t region_of(double x, double y) const;
  void place(std::uint64_t id, double x, double y);
  void unplace(std::uint64_t id);
  [[nodiscard]] std::uint64_t pick_hot_user();
  [[nodiscard]] Op make_move(std::uint64_t id);
  [[nodiscard]] Op make_join();
  [[nodiscard]] Op make_leave();

  WorkloadSpec spec_;
  mmph::rnd::Rng rng_;
  std::vector<mmph::serve::UserRecord> initial_;
  std::vector<User> users_;  ///< indexed by id
  std::vector<std::vector<std::uint64_t>> regions_;
  std::vector<std::size_t> rank_to_region_;
  std::vector<std::uint64_t> rank_hits_;
  std::vector<std::uint64_t> next_join_id_;  ///< per connection
  std::size_t live_count_ = 0;
};

/// The request frame carrying \p ops, which share one kind (several
/// mutations ride one frame; a query, evaluate or scrape is one op).
[[nodiscard]] mmph::net::RequestFrame to_frame(std::span<const Op> ops,
                                               std::uint64_t request_id);
/// Appends \p op's wire frame with \p request_id to \p out.
void encode_op(const Op& op, std::uint64_t request_id,
               std::vector<std::uint8_t>& out);

/// FNV-1a over every encoded frame and due time of \p schedule.
[[nodiscard]] std::uint64_t schedule_digest(
    const std::vector<Scheduled>& schedule);

struct SelfTestReport {
  bool ok = true;
  std::string detail;  ///< first failure, or a summary
  std::uint64_t digest = 0;
  double rate_error = 0.0;  ///< |mean rate / rate - 1|
  double mix_error = 0.0;   ///< max |share - spec share|
  double hot_share = 0.0;   ///< share of Zipf picks in the hottest region
};

/// Same seed -> byte-identical stream (digest), other seed -> different;
/// op-mix shares, Zipf skew and the Poisson mean rate within tolerance.
[[nodiscard]] SelfTestReport generator_self_test(const WorkloadSpec& spec,
                                                 std::uint64_t seed,
                                                 double rate);

}  // namespace perfbench
