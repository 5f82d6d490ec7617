#pragma once

/// \file placement_service.hpp
/// \brief Long-running placement service: store -> shards -> merge -> reply.
///
/// Turns the one-shot library into the server the ROADMAP asks for. The
/// service owns a versioned InstanceStore of users, accepts batched
/// requests (add / remove / query / evaluate) through a bounded
/// RequestBatcher, and keeps a current k-center placement:
///
///   clients -> RequestBatcher -> [apply mutations] -> solve -> replies
///                                     |                 |
///                                InstanceStore      ShardedSolver (full)
///                                (epoch snapshots)  or 1-swap warm refine
///                                                   (incremental)
///
/// Re-solves are *incremental by default*: after a small churn delta the
/// service warm-starts from the previous centers (sim::WarmStartPlanner)
/// and 1-swap-refines them against a curated candidate pool — cached
/// per-shard winners plus recently churned users — instead of re-running
/// the sharded greedy. When churn since the last solve exceeds
/// `full_solve_churn_fraction` of the population (or there is no usable
/// history: first solve, k change, emptied store), it falls back to the
/// full sharded solve. Every stage reports trace:: spans and ServeMetrics.
///
/// Threading: the synchronous API (apply_* / placement / evaluate) and
/// pump() serialize on an internal mutex, so any thread may call them;
/// submit() is safe from any thread. Batches are drained either by an
/// owned worker thread (start()/stop()) or by explicit pump() calls —
/// use one or the other, not both.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "mmph/core/problem.hpp"
#include "mmph/core/solution.hpp"
#include "mmph/ls/local_search.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/serve/fault.hpp"
#include "mmph/serve/instance_store.hpp"
#include "mmph/serve/metrics.hpp"
#include "mmph/serve/request.hpp"
#include "mmph/serve/request_batcher.hpp"
#include "mmph/serve/sharded_solver.hpp"
#include "mmph/serve/sharded_store.hpp"
#include "mmph/sim/warm_start.hpp"
#include "mmph/spatial/uniform_grid.hpp"
#include "mmph/wal/record.hpp"
#include "mmph/wal/sharded_wal.hpp"
#include "mmph/wal/snapshot.hpp"
#include "mmph/wal/writer.hpp"

namespace mmph::serve {

/// Which solver tier produces placements (the --solver CLI flag).
enum class SolverTier {
  /// Plain greedy. Lazy greedy's selections are bitwise-identical to
  /// greedy's (the lazy queue only skips evaluations whose stale bound
  /// already loses), so this runs the same sharded path as kLazy and is
  /// kept as an explicit name for operators and A/B configs.
  kGreedy,
  /// Sharded lazy greedy with global merge — the default since PR 1.
  kLazy,
  /// kLazy, then every solve's output is polished by shift/swap local
  /// search (ls::polish) over the instance points, with candidate
  /// coverage columns cached once per polish in a workspace the service
  /// keeps across solves (the carried coverage index, when present,
  /// builds them). The served (polished) placement becomes the warm
  /// planner's history, so the next warm re-solve refines it and the
  /// polish only repairs what the churn broke. The polish never returns
  /// a worse placement than its seed.
  kLs,
};

[[nodiscard]] const char* solver_tier_name(SolverTier tier) noexcept;
/// Parses "greedy" / "lazy" / "ls"; std::nullopt for anything else.
[[nodiscard]] std::optional<SolverTier> parse_solver_tier(
    std::string_view name) noexcept;

struct ServiceConfig {
  std::size_t dim = 2;
  std::size_t k = 8;
  double radius = 1.0;
  geo::Metric metric{};
  core::RewardShape shape = core::RewardShape::kLinear;

  ShardedSolverConfig shard{};

  /// Solver tier for placements (see SolverTier).
  SolverTier solver = SolverTier::kLazy;
  /// Polish tunables for the kLs tier. The fault_hook field here is
  /// ignored: the service forwards its own fault_hook so the ls.eval_throw
  /// site shares the one chaos seam.
  ls::LsConfig ls{};

  /// Churn (mutations since last solve) above this fraction of the
  /// population forces a full sharded re-solve instead of a warm refine.
  double full_solve_churn_fraction = 0.05;
  /// Swap-candidate pool size for incremental re-solves.
  std::size_t max_incremental_candidates = 32;
  /// Refinement sweeps per incremental re-solve.
  std::size_t warm_sweeps = 1;

  std::size_t queue_capacity = 1024;
  std::size_t max_batch = 256;

  /// Test-only fault seam (see fault.hpp); empty in production. Fired at
  /// serve.queue_full / serve.deadline_skew (batcher) and
  /// serve.solver_throw / serve.alloc_fail (batch processing).
  FaultHook fault_hook{};

  /// Optional write-ahead log. When set, every mutation is appended to
  /// the log *before* it touches the store and committed before the
  /// batch's replies go out, so a kOk ack implies the op is logged as
  /// durably as the writer's fsync policy promises. Must outlive the
  /// service. Null: no durability (the pre-WAL behavior). Only valid
  /// with store_shards == 1; sharded stores attach shard_wal instead.
  wal::WalWriter* wal = nullptr;

  /// Region shards the InstanceStore is split into (>= 1). 1 is the
  /// bit-identity mode: one store shard receiving exactly the unsharded
  /// call sequence (the --store-shards 1 golden-digest discipline, like
  /// --loops 1). > 1 partitions users by interest-space region
  /// (spatial::RegionMap over grid cells of edge region_cell): mutations
  /// route to their region's shard, full solves run per shard and merge
  /// globally, and durability goes through the per-shard shard_wal.
  /// Replication endpoints are rejected while sharded (follow-on).
  std::size_t store_shards = 1;
  /// Region cell edge for the store's RegionMap; 0 selects `radius`.
  double region_cell = 0.0;

  /// Per-shard WAL coordinator for sharded stores (mutually exclusive
  /// with `wal`; shard_count must equal store_shards; must outlive the
  /// service). Appends stay append-before-apply per shard; the batch
  /// ack barrier is ShardedWal::commit_all. Null: no durability.
  wal::ShardedWal* shard_wal = nullptr;
};

/// The answer to "where are the centers right now".
struct PlacementView {
  std::uint64_t epoch = 0;       ///< store epoch the placement reflects
  double objective = 0.0;        ///< f(C) on that population
  std::size_t population = 0;
  core::Solution solution;       ///< empty centers for an empty population
};

class PlacementService {
 public:
  /// \p pool runs shard solves; nullptr selects ThreadPool::global().
  explicit PlacementService(ServiceConfig config,
                            par::ThreadPool* pool = nullptr);
  ~PlacementService();

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  // --- synchronous API (tests, benches, embedded use) ---

  /// Upserts users; marks the placement stale.
  void apply_add(const std::vector<UserRecord>& users);
  /// Removes users (unknown ids are ignored); marks the placement stale.
  void apply_remove(const std::vector<std::uint64_t>& ids);
  /// Current placement, re-solving first when the store changed.
  [[nodiscard]] PlacementView placement();
  /// f(\p centers) on the live population (0 when empty).
  [[nodiscard]] double evaluate(const geo::PointSet& centers);

  [[nodiscard]] std::size_t population() const;
  [[nodiscard]] std::uint64_t epoch() const;

  // --- WAL / replication API ---

  /// Replaces the whole population from a recovered or replicated
  /// snapshot (placement history is dropped; the next query re-solves).
  /// With a WAL attached the snapshot is also checkpointed, aligning the
  /// log with the new state. \throws InvalidArgument on a dimension or
  /// epoch mismatch, wal::WalError when the checkpoint cannot be written,
  /// StateError with store_shards > 1 (use restore_sharded: one global
  /// epoch cannot reconstruct per-shard chains).
  void restore_from(const wal::WalSnapshot& snapshot);

  /// Boot-time install of a sharded recovery result: shard s's rows and
  /// epoch land in store shard s, and (with shard_wal attached) each
  /// non-empty shard is re-checkpointed so its log chains from the
  /// installed state. \throws InvalidArgument on a shard-count or
  /// dimension mismatch.
  void restore_sharded(const wal::ShardedRecovery& recovered);

  /// Applies one replicated log record (replica ingest path; works even
  /// in read-only mode). The record's epoch must continue the store's
  /// chain exactly. \throws StateError on a chain break — the caller
  /// should resubscribe from a snapshot.
  void apply_replicated(const wal::WalRecord& record);

  /// The live population as a WAL snapshot (what write_snapshot persists
  /// and what kReplSnapshot streams).
  [[nodiscard]] wal::WalSnapshot wal_snapshot();

  /// One store shard's rows and epoch as a WAL snapshot — the unit the
  /// per-shard logs checkpoint and recovery restores. \throws
  /// InvalidArgument when \p s >= store_shards().
  [[nodiscard]] wal::WalSnapshot shard_wal_snapshot(std::size_t s);

  /// Attached single log writer; null when running without durability
  /// *and* when the store is sharded (replication streams off this
  /// writer, and sharded replication is a follow-on — the server rejects
  /// kReplSubscribe whenever this is null).
  [[nodiscard]] wal::WalWriter* wal() const noexcept { return config_.wal; }

  /// Attached per-shard WAL coordinator; null unless store_shards > 1
  /// ran with durability.
  [[nodiscard]] wal::ShardedWal* shard_wal() const noexcept {
    return config_.shard_wal;
  }

  /// Region shards the store runs with (config().store_shards).
  [[nodiscard]] std::size_t store_shards() const noexcept {
    return store_.shard_count();
  }

  /// Publishes the replica's current lag (mmph_repl_lag_ops gauge).
  /// Called by net::ReplicaAgent; thread-safe (atomic gauge).
  void set_repl_lag(double ops) { metrics_.set_repl_lag(ops); }

  /// Read-only mode: mutations are answered kBadRequest (direct API:
  /// StateError). Replicas run read-only until promoted; promotion is
  /// simply set_read_only(false).
  void set_read_only(bool read_only) noexcept {
    read_only_.store(read_only, std::memory_order_relaxed);
  }
  [[nodiscard]] bool read_only() const noexcept {
    return read_only_.load(std::memory_order_relaxed);
  }

  // --- batched asynchronous API ---

  /// Enqueues; the future resolves when the worker processes the batch
  /// (immediately with kRejected when the queue is full).
  [[nodiscard]] std::future<Response> submit(Request request);
  /// Enqueues many requests under one queue lock, preserving order;
  /// futures are returned in the same order. Equivalent to submit() per
  /// element, minus the per-request lock round-trips — the NetServer
  /// event loops submit everything they decoded in one pass this way.
  [[nodiscard]] std::vector<std::future<Response>> submit_batch(
      std::vector<Request> requests);
  /// Drains and processes at most one batch; waits up to \p wait for the
  /// first request. Returns the number of requests handled.
  std::size_t pump(std::chrono::milliseconds wait = std::chrono::milliseconds(0));
  /// Starts the owned worker thread draining batches.
  void start();
  /// Stops the worker and closes the queue (terminal: later submits are
  /// rejected). Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] std::size_t queue_depth() const { return batcher_.depth(); }
  [[nodiscard]] MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  /// Underlying instrument registry, for Prometheus-style exposition.
  [[nodiscard]] const obs::Registry& metrics_registry() const noexcept {
    return metrics_.registry();
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }
  /// Stage diagnostics of the last full (sharded) solve.
  [[nodiscard]] ShardStats last_shard_stats() const;

 private:
  void apply_add_locked(const std::vector<UserRecord>& users);
  void apply_remove_locked(const std::vector<std::uint64_t>& ids);
  void ensure_index_locked(const core::Problem& problem);
  void publish_spatial_locked();
  void commit_wal_locked();
  void maybe_snapshot_locked();
  void poison_wal_locked(const std::string& reason);
  /// Single writer serving shard 0 in unsharded mode (config_.wal, or
  /// the coordinator's writer 0 when shard_wal drives one shard); null
  /// without durability.
  [[nodiscard]] wal::WalWriter* single_writer_locked() const;
  [[nodiscard]] wal::WalSnapshot wal_snapshot_locked() const;
  [[nodiscard]] wal::WalSnapshot shard_wal_snapshot_locked(
      std::size_t s) const;
  void count_affinity_locked(const Request& request);
  [[nodiscard]] const PlacementView& solve_locked();
  [[nodiscard]] geo::PointSet incremental_pool_locked() const;
  void process_batch(std::vector<Request> batch);
  [[nodiscard]] core::Problem problem_locked();

  ServiceConfig config_;
  par::ThreadPool& pool_;
  ServeMetrics metrics_;
  RequestBatcher batcher_;

  /// Serializes whole pump() passes (pop + process). pop_batch and
  /// process_batch take different locks, so two loops pumping
  /// concurrently could otherwise apply batch N+1 before batch N — a
  /// store/WAL order no client submitted (the multi-loop group-commit
  /// ordering bug).
  std::mutex pump_mutex_;

  mutable std::mutex mutex_;
  ShardedInstanceStore store_;
  std::unique_ptr<ShardedSolver> sharded_;
  std::unique_ptr<sim::WarmStartPlanner> planner_;
  /// Coverage-column storage lent to every kLs polish (capacity kept
  /// across solves).
  ls::ColumnWorkspace ls_workspace_;
  std::optional<PlacementView> view_;
  std::uint64_t churn_since_solve_ = 0;
  /// Interest rows of recently churned-in users (swap candidates).
  std::deque<std::vector<double>> recent_points_;

  /// Coverage index carried across churn epochs (kernels::index_mode()
  /// decides whether one is kept). Rows mirror the store's live rows:
  /// every mutation applies the same add/update/swap-remove to both, so a
  /// re-solve skips the O(n) build. The index is an accelerator, never
  /// truth — a failed mirror marks it dirty and the next solve rebuilds
  /// it from the snapshot (placements are bit-identical either way).
  std::unique_ptr<spatial::UniformGridIndex> index_;
  bool index_dirty_ = false;
  /// stats() at the last metrics publication (counters are deltas).
  spatial::IndexStats index_published_{};

  std::atomic<bool> running_{false};
  std::atomic<bool> read_only_{false};
  std::thread worker_;
};

}  // namespace mmph::serve
