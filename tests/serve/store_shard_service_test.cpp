// PlacementService with a region-sharded InstanceStore: config
// validation, shards == 1 bit-identity against the unsharded service,
// content equivalence across shard counts, per-shard WAL crash recovery
// (restore_sharded round-trip), the store.shard.alloc_fail and
// wal.barrier.fsync_fail fault sites, replication rejection while
// sharded, and the loop->shard affinity counters.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "mmph/core/exhaustive.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/serve/placement_service.hpp"
#include "mmph/support/error.hpp"
#include "mmph/wal/file_ops.hpp"
#include "mmph/wal/sharded_wal.hpp"

namespace mmph::serve {
namespace {

UserRecord user(std::uint64_t id, double weight, double x, double y) {
  UserRecord record;
  record.id = id;
  record.interest = {x, y};
  record.weight = weight;
  return record;
}

ServiceConfig sharded_config(std::size_t shards) {
  ServiceConfig config;
  config.dim = 2;
  config.k = 4;
  config.radius = 0.3;
  config.full_solve_churn_fraction = 0.0;
  config.store_shards = shards;
  return config;
}

/// Fixed mixed workload: adds, overwrites, removes. Deterministic.
void run_workload(PlacementService& service) {
  rnd::Pcg64 rng(20260808);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  for (int round = 0; round < 6; ++round) {
    std::vector<UserRecord> batch;
    for (int j = 0; j < 7; ++j) {
      const std::uint64_t id = next_id++;
      batch.push_back(user(id, 0.5 + rng.next_double(), rng.next_double(),
                           rng.next_double()));
      live.push_back(id);
    }
    service.apply_add(batch);
    if (round % 2 == 1 && live.size() > 3) {
      std::vector<std::uint64_t> victims = {live[0], live[2]};
      live.erase(live.begin() + 2);
      live.erase(live.begin());
      service.apply_remove(victims);
    }
  }
}

/// Rows of \p snap sorted by id, flattened to comparable tuples.
std::vector<std::tuple<std::uint64_t, double, double, double>> sorted_rows(
    const wal::WalSnapshot& snap) {
  std::vector<std::tuple<std::uint64_t, double, double, double>> rows;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    rows.emplace_back(snap.ids[i], snap.weights[i], snap.coords[2 * i],
                      snap.coords[2 * i + 1]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ShardServiceConfig, ValidatesShardWiring) {
  // wal requires store_shards == 1.
  wal::MemFileOps mem;
  wal::WalConfig wal_config;
  wal_config.dir = "wal";
  wal_config.file_ops = &mem;
  wal::WalWriter writer(wal_config);
  ServiceConfig bad = sharded_config(2);
  bad.wal = &writer;
  EXPECT_THROW(PlacementService{bad}, InvalidArgument);

  // shard_wal's shard count must match store_shards.
  wal::WalConfig base;
  base.dir = "swal";
  base.file_ops = &mem;
  wal::ShardedWal coordinator(base, 4, wal::ShardedRecovery{});
  ServiceConfig mismatch = sharded_config(2);
  mismatch.shard_wal = &coordinator;
  EXPECT_THROW(PlacementService{mismatch}, InvalidArgument);

  // wal and shard_wal are mutually exclusive.
  wal::WalConfig base1;
  base1.dir = "swal1";
  base1.file_ops = &mem;
  wal::ShardedWal single(base1, 1, wal::ShardedRecovery{});
  ServiceConfig both = sharded_config(1);
  both.wal = &writer;
  both.shard_wal = &single;
  EXPECT_THROW(PlacementService{both}, InvalidArgument);

  // store_shards == 0 is invalid.
  EXPECT_THROW(PlacementService{sharded_config(0)}, InvalidArgument);
}

TEST(ShardService, OneShardIsBitIdenticalToUnsharded) {
  ServiceConfig plain_config = sharded_config(1);
  plain_config.store_shards = 1;
  PlacementService plain(plain_config);

  // Same workload through a 1-shard store with a ShardedWal attached:
  // the --store-shards 1 golden discipline — identical responses,
  // identical epochs, identical placement bits, WAL or not.
  wal::MemFileOps mem;
  wal::WalConfig base;
  base.dir = "wal";
  base.file_ops = &mem;
  wal::ShardedWal coordinator(base, 1, wal::ShardedRecovery{});
  ServiceConfig logged_config = sharded_config(1);
  logged_config.shard_wal = &coordinator;
  PlacementService logged(logged_config);

  run_workload(plain);
  run_workload(logged);

  EXPECT_EQ(plain.epoch(), logged.epoch());
  EXPECT_EQ(plain.population(), logged.population());

  const PlacementView view_plain = plain.placement();
  const PlacementView view_logged = logged.placement();
  EXPECT_EQ(view_plain.epoch, view_logged.epoch);
  EXPECT_EQ(view_plain.objective, view_logged.objective);  // bitwise
  const geo::PointSet& c1 = view_plain.solution.centers;
  const geo::PointSet& c2 = view_logged.solution.centers;
  ASSERT_EQ(c1.size(), c2.size());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    for (std::size_t d = 0; d < 2; ++d) EXPECT_EQ(c1[i][d], c2[i][d]);
  }

  // And the store images agree row for row (same order: one shard).
  const wal::WalSnapshot s1 = plain.wal_snapshot();
  const wal::WalSnapshot s2 = logged.wal_snapshot();
  EXPECT_EQ(s1.epoch, s2.epoch);
  EXPECT_EQ(s1.ids, s2.ids);
  EXPECT_EQ(s1.weights, s2.weights);
  EXPECT_EQ(s1.coords, s2.coords);
}

TEST(ShardService, ShardCountsAgreeOnContent) {
  PlacementService one(sharded_config(1));
  PlacementService two(sharded_config(2));
  PlacementService four(sharded_config(4));
  run_workload(one);
  run_workload(two);
  run_workload(four);

  EXPECT_EQ(one.population(), two.population());
  EXPECT_EQ(one.population(), four.population());

  const auto rows1 = sorted_rows(one.wal_snapshot());
  const auto rows2 = sorted_rows(two.wal_snapshot());
  const auto rows4 = sorted_rows(four.wal_snapshot());
  EXPECT_EQ(rows1, rows2);
  EXPECT_EQ(rows1, rows4);

  // The objective of an explicit center set is a per-user sum — shard
  // layout only changes the summation order, so values agree to fp noise.
  const geo::PointSet probe =
      geo::PointSet::from_rows({{0.25, 0.25}, {0.75, 0.4}, {0.5, 0.85}});
  const double f1 = one.evaluate(probe);
  EXPECT_NEAR(one.evaluate(probe), two.evaluate(probe), 1e-9 * (1.0 + f1));
  EXPECT_NEAR(f1, four.evaluate(probe), 1e-9 * (1.0 + f1));

  // Sharded solves still produce a valid placement over everyone.
  const PlacementView view = four.placement();
  EXPECT_EQ(view.population, four.population());
  EXPECT_EQ(view.solution.centers.size(), 4u);
  EXPECT_GT(view.objective, 0.0);
}

TEST(ShardService, ShardedSolveIsDeterministic) {
  PlacementService a(sharded_config(4));
  PlacementService b(sharded_config(4));
  run_workload(a);
  run_workload(b);
  const PlacementView va = a.placement();
  const PlacementView vb = b.placement();
  EXPECT_EQ(va.epoch, vb.epoch);
  EXPECT_EQ(va.objective, vb.objective);  // bitwise
  ASSERT_EQ(va.solution.centers.size(), vb.solution.centers.size());
  for (std::size_t i = 0; i < va.solution.centers.size(); ++i) {
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(va.solution.centers[i][d], vb.solution.centers[i][d]);
    }
  }
}

TEST(ShardService, CrashRecoveryRestoresEveryShardBitwise) {
  wal::MemFileOps mem;
  wal::WalConfig base;
  base.dir = "wal";
  base.file_ops = &mem;
  wal::ShardedWal coordinator(base, 4, wal::ShardedRecovery{});
  ServiceConfig config = sharded_config(4);
  config.shard_wal = &coordinator;
  PlacementService service(config);
  run_workload(service);
  const wal::WalSnapshot live = service.wal_snapshot();

  // Crash: clone the filesystem as-is and recover from the clone.
  const std::unique_ptr<wal::MemFileOps> crashed = mem.clone();
  const wal::ShardedRecovery recovered =
      wal::recover_sharded("wal", 4, 2, *crashed);
  EXPECT_TRUE(recovered.clean);
  EXPECT_TRUE(recovered.dir_found);
  EXPECT_EQ(recovered.global_epoch, service.epoch());
  EXPECT_EQ(recovered.rows, service.population());

  wal::ShardedWal resumed_wal(
      [&] {
        wal::WalConfig c;
        c.dir = "wal";
        c.file_ops = crashed.get();
        return c;
      }(),
      4, recovered);
  ServiceConfig resumed_config = sharded_config(4);
  resumed_config.shard_wal = &resumed_wal;
  PlacementService resumed(resumed_config);
  resumed.restore_sharded(recovered);

  // Bitwise identical: per shard (the global snapshot is the shard
  // concatenation, so equal globals at equal shard layout means equal
  // shards) and in the aggregate.
  const wal::WalSnapshot after = resumed.wal_snapshot();
  EXPECT_EQ(after.epoch, live.epoch);
  EXPECT_EQ(after.ids, live.ids);
  EXPECT_EQ(after.weights, live.weights);
  EXPECT_EQ(after.coords, live.coords);

  // The recovered service keeps serving: mutations chain onto the
  // restored per-shard epochs and queries solve.
  resumed.apply_add({user(9001, 1.0, 0.4, 0.6)});
  EXPECT_EQ(resumed.epoch(), live.epoch + 1);
  EXPECT_GT(resumed.placement().objective, 0.0);
}

TEST(ShardService, ShardAllocFaultFiresBeforeAnyMutation) {
  ServiceConfig config = sharded_config(2);
  bool armed = true;
  config.fault_hook = [&](std::string_view site) {
    return armed && site == kFaultStoreShardAllocFail;
  };
  PlacementService service(config);
  armed = false;
  service.apply_add({user(1, 1.0, 0.1, 0.2)});
  const std::uint64_t epoch = service.epoch();

  armed = true;
  EXPECT_THROW(service.apply_add({user(2, 1.0, 0.3, 0.4)}), std::bad_alloc);
  EXPECT_THROW(service.apply_remove({1}), std::bad_alloc);
  EXPECT_EQ(service.population(), 1u);
  EXPECT_EQ(service.epoch(), epoch);

  // Batched path: the request is answered kInternalError, batch intact.
  std::future<Response> reply =
      service.submit(Request::add_users({user(3, 1.0, 0.5, 0.5)}));
  (void)service.pump();
  EXPECT_EQ(reply.get().status, ResponseStatus::kInternalError);
  EXPECT_EQ(service.population(), 1u);
  armed = false;
}

TEST(ShardService, BarrierFaultPoisonsTheWholeLogSet) {
  wal::MemFileOps mem;
  bool armed = false;
  wal::BarrierFaultHook hook = [&](std::string_view) { return armed; };
  wal::WalConfig base;
  base.dir = "wal";
  base.file_ops = &mem;
  wal::ShardedWal coordinator(base, 2, wal::ShardedRecovery{}, hook);
  ServiceConfig config = sharded_config(2);
  config.shard_wal = &coordinator;
  PlacementService service(config);
  service.apply_add({user(1, 1.0, 0.1, 0.2)});

  // The barrier dies: the batch is applied in memory but its durability
  // is unknown — the call surfaces WalError (batch path: kInternalError)
  // and every shard's writer is poisoned.
  armed = true;
  EXPECT_THROW(service.apply_add({user(2, 1.0, 0.9, 0.8)}), wal::WalError);
  EXPECT_TRUE(coordinator.failed());
  armed = false;
  // Poisoned log set: later mutations refuse before touching the store.
  const std::uint64_t epoch = service.epoch();
  EXPECT_THROW(service.apply_add({user(3, 1.0, 0.5, 0.5)}), wal::WalError);
  EXPECT_EQ(service.epoch(), epoch);
}

TEST(ShardService, BatchedAcksWaitForTheCrossShardBarrier) {
  wal::MemFileOps mem;
  bool armed = false;
  wal::BarrierFaultHook hook = [&](std::string_view) { return armed; };
  wal::WalConfig base;
  base.dir = "wal";
  base.file_ops = &mem;
  wal::ShardedWal coordinator(base, 4, wal::ShardedRecovery{}, hook);
  ServiceConfig config = sharded_config(4);
  config.shard_wal = &coordinator;
  PlacementService service(config);

  std::future<Response> ok =
      service.submit(Request::add_users({user(1, 1.0, 0.1, 0.2)}));
  (void)service.pump();
  EXPECT_EQ(ok.get().status, ResponseStatus::kOk);

  // The barrier fails: a batched ack must not claim durability.
  armed = true;
  std::future<Response> add =
      service.submit(Request::add_users({user(2, 1.0, 0.9, 0.8)}));
  std::future<Response> remove = service.submit(Request::remove_users({1}));
  (void)service.pump();
  EXPECT_EQ(add.get().status, ResponseStatus::kInternalError);
  EXPECT_EQ(remove.get().status, ResponseStatus::kInternalError);
  EXPECT_TRUE(coordinator.failed());
}

TEST(ShardService, BatchedOpsRollShardCheckpoints) {
  wal::MemFileOps mem;
  wal::WalConfig base;
  base.dir = "wal";
  base.file_ops = &mem;
  base.snapshot_every_ops = 8;
  wal::ShardedWal coordinator(base, 4, wal::ShardedRecovery{});
  ServiceConfig config = sharded_config(4);
  config.shard_wal = &coordinator;
  PlacementService service(config);

  const auto checkpoints = [&] {
    const std::vector<std::string> paths = mem.all_paths();
    return std::count_if(paths.begin(), paths.end(), [](const std::string& p) {
      return p.find("snap-") != std::string::npos;
    });
  };
  ASSERT_EQ(checkpoints(), 0);
  // Every user lands in one cell, hence one shard: 8 batched ops trip
  // that shard's checkpoint budget.
  for (std::uint64_t id = 1; id <= 8; ++id) {
    std::future<Response> reply = service.submit(
        Request::add_users({user(id, 1.0, 0.01 * id, 0.02 * id)}));
    (void)service.pump();
    EXPECT_EQ(reply.get().status, ResponseStatus::kOk);
  }
  EXPECT_GE(checkpoints(), 1) << "batched ops never reached a checkpoint";
}

TEST(ShardService, ReplicationEndpointsRejectedWhileSharded) {
  PlacementService service(sharded_config(2));
  service.apply_add({user(1, 1.0, 0.1, 0.2)});

  // wal() is what the server streams replication from: null while
  // sharded, so kReplSubscribe is rejected at the server layer.
  EXPECT_EQ(service.wal(), nullptr);

  wal::WalSnapshot snapshot;
  snapshot.epoch = 1;
  snapshot.dim = 2;
  snapshot.ids = {7};
  snapshot.weights = {1.0};
  snapshot.coords = {0.3, 0.3};
  EXPECT_THROW(service.restore_from(snapshot), StateError);

  wal::WalRecord record;
  record.type = wal::RecordType::kUpsert;
  record.dim = 2;
  record.epoch = 2;
  record.ids = {8};
  record.weights = {1.0};
  record.coords = {0.4, 0.4};
  EXPECT_THROW(service.apply_replicated(record), StateError);
}

TEST(ShardService, AffinityCountersTrackTheHintShardMatch) {
  ServiceConfig config = sharded_config(2);
  PlacementService service(config);

  // Route one user whose shard we know, once with the matching hint and
  // once with the off-by-one hint.
  Request hit = Request::add_users({user(1, 1.0, 0.1, 0.2)});
  // Compute the true shard by asking a throwaway store with the same map.
  ShardedInstanceStore probe(2, 2, 0.3);
  const std::vector<double> p = {0.1, 0.2};
  const std::uint32_t shard = static_cast<std::uint32_t>(
      probe.shard_of_point(geo::ConstVec(p.data(), 2)));
  hit.shard_hint = shard;
  std::future<Response> r1 = service.submit(std::move(hit));
  (void)service.pump();
  EXPECT_EQ(r1.get().status, ResponseStatus::kOk);

  Request miss = Request::add_users({user(2, 1.0, 0.1, 0.2)});
  miss.shard_hint = shard + 1;  // wraps to the other shard via % 2
  std::future<Response> r2 = service.submit(std::move(miss));
  (void)service.pump();
  EXPECT_EQ(r2.get().status, ResponseStatus::kOk);

  const std::string text = service.metrics_registry().exposition_text();
  EXPECT_NE(text.find("mmph_store_shard_affinity_hits_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mmph_store_shard_affinity_misses_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mmph_store_shard_mutations_total{shard="),
            std::string::npos);
}

TEST(ShardService, PerShardRowGaugesPublishAfterSolves) {
  PlacementService service(sharded_config(4));
  run_workload(service);
  (void)service.placement();
  const std::string text = service.metrics_registry().exposition_text();
  EXPECT_NE(text.find("mmph_store_shard_rows{shard=\"0\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mmph_store_shard_rows{shard=\"3\"}"),
            std::string::npos);
}

/// The core differential corpus (same ~210 seeded paper-box instances as
/// tests/core/differential_test.cpp), pushed through PlacementService at
/// store shards {2, 4}. Per instance: the sharded store holds exactly
/// the input rows, the global epoch equals the mutation count, the
/// region-partitioned solve-and-merge never exceeds the exhaustive
/// optimum over input points, stays above the paper's Theorem 2 floor,
/// and is bitwise deterministic across shard counts run twice.
TEST(ShardService, DifferentialCorpusHoldsAtShards2And4) {
  struct Variant {
    geo::Metric metric;
    rnd::WeightScheme weights;
    const char* label;
  };
  // 2-D only (the service's UserRecord workload); both norms, both
  // paper weight schemes.
  const Variant variants[] = {
      {geo::l2_metric(), rnd::WeightScheme::kSame, "l2-unweighted"},
      {geo::l1_metric(), rnd::WeightScheme::kUniformInt, "l1-weighted"},
  };

  int instances = 0;
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    const Variant& variant = variants[seed % 2];
    rnd::WorkloadSpec spec;
    spec.n = 6 + seed % 7;  // 6..12 — exhaustive stays feasible
    spec.dim = 2;
    spec.weights = variant.weights;
    rnd::Rng rng(seed);
    const rnd::Workload workload = rnd::generate_workload(spec, rng);

    std::vector<UserRecord> users;
    for (std::size_t i = 0; i < workload.size(); ++i) {
      users.push_back(user(static_cast<std::uint64_t>(i + 1),
                           workload.weights[i], workload.points[i][0],
                           workload.points[i][1]));
    }
    const core::Problem problem = core::Problem::from_workload(
        workload, 1.0, variant.metric);

    for (const std::size_t k :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      ++instances;
      const std::string context = "seed=" + std::to_string(seed) + " " +
                                  variant.label + " n=" +
                                  std::to_string(spec.n) + " k=" +
                                  std::to_string(k);
      // The upper bound must be the *multiset* optimum: the paper's
      // reward min(sum_j u_ij, y_i) pays for duplicate centers until a
      // point saturates, and re-picking a chosen point is explicitly
      // legal (see lazy_greedy.cpp) — so the sharded merge may beat
      // ExhaustiveSolver::over_points, which enumerates distinct
      // subsets only. n <= 12, k <= 3 keeps C(n+k-1, k) tiny.
      double optimum = core::ExhaustiveSolver::over_points(problem)
                           .solve(problem, k)
                           .total_reward;
      {
        std::vector<std::size_t> pick(k, 0);
        const std::size_t n = problem.size();
        const auto sweep = [&](auto&& self, std::size_t slot,
                               std::size_t from) -> void {
          if (slot == k) {
            optimum = std::max(
                optimum, core::objective_value(problem, problem.points(),
                                               pick));
            return;
          }
          for (std::size_t i = from; i < n; ++i) {
            pick[slot] = i;
            self(self, slot + 1, i);  // non-decreasing: allows repeats
          }
        };
        sweep(sweep, 0, 0);
      }
      const double floor =
          (1.0 - std::pow(1.0 - 1.0 / static_cast<double>(spec.n),
                          static_cast<double>(k))) *
          optimum;
      const double slack = 1e-9 * std::max(1.0, optimum);

      std::optional<PlacementView> prev;
      for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
        ServiceConfig config;
        config.dim = 2;
        config.k = k;
        config.radius = 1.0;  // paper box: cell 1.0 spans several regions
        config.metric = variant.metric;
        config.full_solve_churn_fraction = 0.0;
        config.store_shards = shards;
        PlacementService service(config);
        service.apply_add(users);
        EXPECT_EQ(service.epoch(), users.size()) << context;
        EXPECT_EQ(service.population(), users.size()) << context;

        const PlacementView view = service.placement();
        // The reported objective is the value of the reported centers —
        // re-derive it from scratch on the reference problem.
        EXPECT_NEAR(core::objective_value(problem, view.solution.centers),
                    view.objective, slack)
            << context << " shards=" << shards
            << " centers=" << view.solution.centers.size();
        EXPECT_LE(view.objective, optimum + slack)
            << context << " shards=" << shards;
        EXPECT_GE(view.objective, floor - slack)
            << context << " shards=" << shards;

        // Bitwise deterministic: a second identical service agrees.
        PlacementService again(config);
        again.apply_add(users);
        const PlacementView view2 = again.placement();
        EXPECT_EQ(view.objective, view2.objective)
            << context << " shards=" << shards;

        // Store content is shard-layout independent.
        if (prev.has_value()) {
          EXPECT_EQ(sorted_rows(service.wal_snapshot()),
                    sorted_rows(again.wal_snapshot()))
              << context;
        }
        prev = view;
      }
    }
  }
  EXPECT_GE(instances, 200) << "sweep shrank — differential coverage lost";
}

}  // namespace
}  // namespace mmph::serve
