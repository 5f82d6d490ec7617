#pragma once

/// \file drive.hpp
/// \brief The server under test, the loopback load generator, and the
/// reference-model checks.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "generator.hpp"
#include "mmph/net/epoll.hpp"
#include "mmph/net/server.hpp"
#include "mmph/net/wire.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/wal/sharded_wal.hpp"

namespace perfbench {

[[nodiscard]] mmph::serve::ServiceConfig service_config(
    const WorkloadSpec& spec);

/// A NetServer on an ephemeral loopback port, with the workload's
/// per-shard WAL (fsync group) in \p wal_dir when the workload logs.
struct ServerRig {
  ServerRig(const WorkloadSpec& spec, mmph::par::ThreadPool& pool,
            std::string wal_dir);
  ~ServerRig();
  ServerRig(const ServerRig&) = delete;
  ServerRig& operator=(const ServerRig&) = delete;

  /// Sum of the WAL writers' counters (0 without a WAL).
  struct WalCounters {
    double appends = 0.0;
    double bytes = 0.0;
    double commits = 0.0;
  };
  [[nodiscard]] WalCounters wal_counters() const;

  std::string wal_dir;  ///< empty without a WAL
  std::unique_ptr<mmph::wal::ShardedWal> wal;
  std::unique_ptr<mmph::net::NetServer> server;
};

/// Latencies and outcomes of one phase of traffic.
struct PhaseResult {
  /// Open loop: offered req/s of the Poisson stream. Saturated: answered
  /// requests per second of wall time.
  double rate = 0.0;
  double duration = 0.0;  ///< scheduled seconds
  double wall = 0.0;      ///< seconds until the last reply
  /// ok-reply latency (ms) from each op's due time (saturated: from its
  /// send time), by OpKind.
  std::array<std::vector<double>, 6> latency;
  /// Every op's latency; failed or lost ops count as +infinity.
  std::vector<double> all_ms;
  std::vector<double> lag_ms;  ///< send time - due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< non-ok replies plus lost requests
  std::uint64_t scrape_bytes = 0;
  std::uint64_t scrapes = 0;
  std::uint64_t mutation_user_bytes = 0;  ///< id + weight + coords acked
};

/// Connections to the server, driven from one thread. Each connection
/// is non-blocking; open-loop phases multiplex them with epoll so the
/// schedule never waits on a reply.
class LoadGen {
 public:
  LoadGen(std::uint16_t port, std::size_t connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Seeds \p users over the wire (each user on its owning connection,
  /// pipelined add_users frames) and records the acks in \p model.
  /// \throws std::runtime_error on any non-ok ack.
  void seed(const std::vector<mmph::serve::UserRecord>& users, Model& model);

  /// Open loop: sends every op at its due time regardless of replies,
  /// applies ok mutation acks to \p model.
  [[nodiscard]] PhaseResult run_open_loop(
      const std::vector<Scheduled>& schedule, double rate, double duration,
      Model& model);

  /// Saturated: keeps \p window requests in flight on every connection,
  /// sending \p schedule's ops in stream order and ignoring due times,
  /// until \p duration seconds have passed; then waits for the replies.
  /// Applies ok mutation acks to \p model.
  [[nodiscard]] PhaseResult run_saturated(
      const std::vector<Scheduled>& schedule, std::size_t window,
      double duration, Model& model);

  /// Closed loop on connection 0: sends \p frames (already encoded, ids
  /// from next_request_id()) and blocks until \p expect replies arrive.
  [[nodiscard]] std::vector<mmph::net::ResponseFrame> roundtrip(
      const std::vector<std::uint8_t>& frames, std::size_t expect);

  [[nodiscard]] std::uint64_t next_request_id() { return next_id_++; }

  /// Sticky failures: decode errors, unknown reply ids, non-monotone
  /// epochs on a connection. Any of them fails the run.
  [[nodiscard]] const std::vector<std::string>& faults() const {
    return faults_;
  }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t out_head = 0;
    mmph::net::FrameDecoder decoder;
    std::uint64_t last_epoch = 0;
    bool want_write = false;
  };

  /// Send and reply times of one phase's ops, by schedule index.
  struct PhaseTimes {
    static constexpr double kNotYet = -1.0;
    explicit PhaseTimes(std::size_t count)
        : sent(count, kNotYet), done(count, kNotYet), ok(count, 0) {}
    std::vector<double> sent;
    std::vector<double> done;
    std::vector<std::uint8_t> ok;
  };

  /// Encodes \p schedule with fresh request ids from \p base; \p offset
  /// gets each frame's start (and the end).
  std::vector<std::uint8_t> encode_phase(
      const std::vector<Scheduled>& schedule, std::uint64_t& base,
      std::vector<std::size_t>& offset);
  /// Files the inbox's replies against \p schedule; returns how many
  /// requests they answered.
  std::size_t take_replies(const std::vector<Scheduled>& schedule,
                           std::uint64_t base, double now, PhaseTimes& times,
                           PhaseResult& result, Model& model);
  /// Latencies, lags and failure counts of a finished phase.
  static void settle(const std::vector<Scheduled>& schedule,
                     const PhaseTimes& times, bool from_due,
                     PhaseResult& result);

  void flush(std::size_t c);
  /// Reads what is available on \p c; returns false on EOF/error.
  bool pump_read(std::size_t c);
  void check_epoch(std::size_t c, const mmph::net::ResponseFrame& reply);
  void fault(const std::string& what);

  /// Waits up to \p timeout_ms (0: poll) and services ready connections.
  /// Returns the connections found dead.
  std::vector<std::size_t> poll(int timeout_ms);

  std::vector<Conn> conns_;
  mmph::net::EpollSet epoll_;
  std::uint64_t next_id_ = 1;
  std::vector<mmph::net::ResponseFrame> inbox_;  ///< decoded, unclaimed
  std::vector<std::size_t> inbox_conn_;
  std::vector<std::string> faults_;
};

/// Applies an acked op to the model.
void apply_to_model(const Op& op, Model& model);

/// The model as a Problem (rows in id order, weight 1).
[[nodiscard]] mmph::core::Problem model_problem(const WorkloadSpec& spec,
                                                const Model& model);

/// Quiesced final check: query_placement's objective must equal
/// core::objective_value on the model within a reordering tolerance,
/// and the server's store must hold exactly the model's rows.
struct FinalCheck {
  bool ok = false;
  std::string detail;
  double objective = 0.0;
  double model_objective = 0.0;
  double ulps = 0.0;
  double ulp_tolerance = 0.0;
  mmph::geo::PointSet centers{kDim};
};
[[nodiscard]] FinalCheck final_check(const WorkloadSpec& spec, ServerRig& rig,
                                     LoadGen& load, const Model& model);

/// Durability check: recover_sharded on the stopped server's WAL dir must
/// reproduce the model bitwise.
struct RecoveryCheck {
  bool ok = false;
  std::string detail;
  double seconds = 0.0;
};
[[nodiscard]] RecoveryCheck recovery_check(const WorkloadSpec& spec,
                                           const std::string& wal_dir,
                                           const Model& model);

/// placement_quality: objective over the tightest certified upper bound on
/// the model population, the smaller of core::continuous_opt_upper_bound
/// and ls::certified_upper_bounds. The served centers need not be user
/// points (the incremental re-solve keeps old centers), so the ls bound is
/// taken over the ground set users + served centers: the centers join the
/// problem as users of weight kCenterWeight, which can only raise every
/// placement's value, so the bound holds for the served placement too.
struct Quality {
  double objective = 0.0;
  double bound = 0.0;
  double ratio = 0.0;
  double ls_bound = 0.0;
  double continuous_bound = 0.0;
};
[[nodiscard]] Quality certify(const WorkloadSpec& spec, const Model& model,
                              double objective,
                              const mmph::geo::PointSet& centers,
                              mmph::par::ThreadPool& pool);

}  // namespace perfbench
