// mmph end-to-end benchmark: one named workload, one seed, one JSON line.
//
//   mmph_perfbench --workload durable_churn --seed 1 --seconds 45 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (counter diffs of a shorter untraced run plus the traced replay). The
// last stdout line is {"correct", "attempted", "failed", "metrics"}; the
// line before it is the run record. Exit 1 when a correctness check
// (reference model, WAL recovery, generator self-test) fails.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "drive.hpp"
#include "generator.hpp"
#include "mmph/trace/span.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

namespace serve = mmph::serve;

// The generator fell behind when its send lag p99 exceeds a quarter of
// the SLO, capped at 10 ms and floored at 1 ms: latencies from due time
// would then carry the generator's own stall, and the run is invalid.
constexpr double kMaxGenLagShareOfSlo = 0.25;
// Share of an untraced open-loop trial that runs saturated (goodput);
// the reference rate gets the rest.
constexpr double kSaturatedShare = 0.35;
// Saturated phase: requests in flight per connection. Four connections
// keep twice the service's max_batch (256) in flight, so batches are full
// (with 64 the server read only part of each reply burst's follow-ups and
// batches held 130-160 requests, varying with the race).
constexpr std::size_t kWindowPerConnection = 128;
// The saturated phase's op stream is drawn at this rate, well above what
// the server answers, so the window never runs out of ops.
constexpr double kSaturatedStreamRate = 20000.0;
// durable_churn's SLO: this multiple of the p99 of all ops at the
// reference rate, as measured on the calibration box (median 98 ms over
// 27 reference phases at 1000 req/s; README.md).
constexpr double kSloMultiple = 3.0;
constexpr double kCalibratedReferenceP99Ms = 100.0;
// Relative slack of the objective <= certified bound gate.
constexpr double kBoundSlack = 1e-9;

double max_gen_lag_ms(const WorkloadSpec& spec) {
  return std::clamp(kMaxGenLagShareOfSlo * spec.slo_ms, 1.0, 10.0);
}

std::vector<WorkloadSpec> workloads() {
  std::vector<WorkloadSpec> all;
  {
    WorkloadSpec w;
    w.name = "durable_churn";
    w.why = "open-loop churn on n=10k with 4 store shards and per-shard WAL, "
            "then a saturated phase: store, wal, spatial index and full "
            "re-solves do the work";
    // n=10k rather than 50k: at 50k a re-solve took ~200 ms, so a run held
    // only ~40 solve-bound batches and same-seed query p50 read 467-601 ms.
    w.n = 10000;
    w.box = std::sqrt(10000.0 / 10.0);  // paper density 10 per unit area
    w.k = 16;
    w.store_shards = 4;
    // Every placement is a full solve (serve-net --threshold 0). The warm
    // re-solve flips between one- and two-sweep spells of seconds (about
    // 21 and 38 ms per solve at n=10k), so with it the solve-bound figures
    // spread 0.14-0.29 over five seeds; the warm planner still runs on
    // ls_quality (README.md, "Known findings").
    w.full_solve_churn_fraction = 0.0;
    w.wal = true;
    w.connections = 4;
    w.p_move = 0.70;
    w.p_join = 0.10;
    w.p_leave = 0.10;
    w.p_query = 0.09;
    w.p_evaluate = 0.01;
    w.stats_per_s = 1.0;
    w.zipf_s = 1.0;
    w.move_sigma = 0.5;
    w.reference_rate = 1000.0;
    w.slo_ms = kSloMultiple * kCalibratedReferenceP99Ms;
    all.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "ls_quality";
    w.why = "closed-loop churn/query/evaluate epochs with the ls tier on "
            "n=500: warm re-solve and ls::polish dominate; wal and spatial "
            "are bypassed";
    w.open_loop = false;
    w.n = 500;
    w.box = 4.0;
    w.k = 8;
    w.store_shards = 1;
    w.solver = serve::SolverTier::kLs;
    w.connections = 1;
    w.zipf_s = 0.0;
    w.churn_per_epoch = 5;  // 1% of n
    w.quality_epoch = 16;
    all.push_back(w);
  }
  return all;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
  std::string rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--rev") {
      args.rev = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (args.trace != 0 && args.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  return args;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured, plus its verdict.
struct RunOutput {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  Json record;  ///< raw values, opened by run() and closed by main
  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
};

void record_samples(Json& json, const std::string& name,
                    const std::vector<double>& samples) {
  json.key(name);
  json.begin_object();
  json.field("n", static_cast<std::uint64_t>(samples.size()));
  json.field("p50", percentile(samples, 0.50));
  json.field("tail_level", supported_level(samples.size()));
  json.field("tail", tail(samples));
  json.end_object();
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Latencies by request family, ms.
struct Latencies {
  std::vector<double> query;
  std::vector<double> mutate;
  std::vector<double> evaluate;

  void append(const Latencies& other) {
    perfbench::append(query, other.query);
    perfbench::append(mutate, other.mutate);
    perfbench::append(evaluate, other.evaluate);
  }
  /// Sample count and tail level of each family, for the report.
  void print() const {
    std::cout << "latency samples:";
    for (const auto& [name, samples] :
         {std::pair{"query", &query},
          {"mutate", &mutate},
          {"evaluate", &evaluate}}) {
      std::cout << " " << name << " " << samples->size() << " (tail p"
                << 100.0 * supported_level(samples->size()) << ")";
    }
    std::cout << "\n";
  }
  void record(Json& json, const std::string& key) const {
    json.key(key);
    json.begin_object();
    record_samples(json, "query_ms", query);
    record_samples(json, "mutate_ms", mutate);
    record_samples(json, "evaluate_ms", evaluate);
    json.end_object();
  }
};

// Each untraced run measures several independent trials, each with its
// own population (seed derived from the run's seed) and its own server;
// the run's figures pool or take the median over trials, so they rest on
// more than one instance and one stretch of machine time.
constexpr std::size_t kOpenTrials = 9;
constexpr std::size_t kClosedTrials = 8;

std::uint64_t trial_seed(std::uint64_t seed, std::size_t trial) {
  return seed * 16 + trial;
}

/// One trial's server, connections, generator and reference model.
struct Setup {
  double seconds = 0.0;  ///< set-up time
  std::unique_ptr<ServerRig> rig;
  std::unique_ptr<LoadGen> load;
  std::unique_ptr<OpGenerator> gen;
  Model model;
  std::uint64_t requests = 0;
};

Setup set_up(const WorkloadSpec& spec, const Args& args,
             mmph::par::ThreadPool& pool, std::size_t trial) {
  Setup setup;
  // Inputs are made before the clock starts.
  setup.gen = std::make_unique<OpGenerator>(spec, trial_seed(args.seed, trial));
  const std::string wal_dir =
      args.work_dir + "/wal-" + spec.name + "-" + std::to_string(trial);
  const auto start = Clock::now();
  use_server_cpus();  // the server's threads inherit this placement
  setup.rig = std::make_unique<ServerRig>(spec, pool, wal_dir);
  use_generator_cpu();
  setup.load = std::make_unique<LoadGen>(setup.rig->server->port(),
                                          spec.connections);
  setup.load->seed(setup.gen->initial(), setup.model);
  std::vector<std::uint8_t> frame;
  encode_op(Op{}, setup.load->next_request_id(), frame);  // first solve
  const auto replies = setup.load->roundtrip(frame, 1);
  if (replies.front().status != mmph::net::WireStatus::kOk) {
    throw std::runtime_error("set-up: first solve failed");
  }
  setup.seconds = seconds_since(start);
  setup.requests = (spec.n + 1023) / 1024 + 1;
  return setup;
}

// setup_s is the median of this many set-ups per untraced run: the
// trials' own set-ups plus extra ones torn down right away.
constexpr std::size_t kSetups = 15;

/// Set-ups beyond the trials' own, timed and torn down (WAL included).
std::vector<double> extra_setups(const WorkloadSpec& spec, const Args& args,
                                 mmph::par::ThreadPool& pool,
                                 std::size_t trials) {
  std::vector<double> seconds;
  if (args.trace == 1) return seconds;
  for (std::size_t r = trials; r < kSetups; ++r) {
    Setup setup = set_up(spec, args, pool, r);
    seconds.push_back(setup.seconds);
    const std::string wal_dir = setup.rig->wal_dir;
    setup.load.reset();
    setup.rig.reset();
    if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
  }
  return seconds;
}

void record_setups(Json& json, const std::vector<double>& seconds) {
  json.begin_array("setup_s");
  for (const double s : seconds) json.value(s);
  json.end_array();
}

/// What each trial adds to the run's figures. Rates are pooled over the
/// trials (total count over total seconds), so every measured second
/// weighs the same; per-trial rates go to the record.
struct TrialFigures {
  double good = 0.0;  ///< requests that count as goodput
  double good_seconds = 0.0;
  double epochs = 0.0;
  double epoch_seconds = 0.0;
  std::vector<double> quality;
  std::vector<double> rss_mb;  ///< peak over set-up and measured phase

  void add_goodput(Json& json, double requests, double seconds) {
    good += requests;
    good_seconds += seconds;
    json.field("goodput_rps", ratio(requests, seconds));
  }
  void add(Json& json, double trial_epochs, double seconds,
           double placement_quality) {
    epochs += trial_epochs;
    epoch_seconds += seconds;
    quality.push_back(placement_quality);
    json.field("epochs_per_s", ratio(trial_epochs, seconds));
    json.field("placement_quality", placement_quality);
  }
};

/// The end-to-end metrics in BENCHMARK.json order. Rates are pooled over
/// trials, quality and RSS are medians over trials (an odd instance moves
/// one trial); latencies pool every trial's samples, and a tail is the
/// highest percentile the pooled count supports.
std::vector<Metric> end_to_end(double setup_s, const Latencies& pooled,
                               const TrialFigures& trials) {
  return {{"setup_s", setup_s, "s"},
          {"goodput_rps", ratio(trials.good, trials.good_seconds), "req/s"},
          {"query_p50_ms", percentile(pooled.query, 0.50), "ms"},
          {"query_p99_ms", tail(pooled.query), "ms"},
          {"mutate_p50_ms", percentile(pooled.mutate, 0.50), "ms"},
          {"mutate_p99_ms", tail(pooled.mutate), "ms"},
          {"evaluate_p99_ms", tail(pooled.evaluate), "ms"},
          {"epochs_per_s", ratio(trials.epochs, trials.epoch_seconds), "1/s"},
          {"placement_quality", median(trials.quality), "ratio"},
          {"peak_rss_mb", median(trials.rss_mb), "MB"}};
}

struct Counters {
  serve::MetricsSnapshot serve;
  mmph::net::NetMetricsSnapshot net;
  ServerRig::WalCounters wal;
};

Counters counters(ServerRig& rig) {
  return Counters{rig.server->service().metrics(), rig.server->metrics(),
                  rig.wal_counters()};
}

/// The untraced phases a trace run diffs its counters over.
struct Observed {
  double duration = 0.0;
  Counters before;
  Counters after;
  std::vector<double> client_ms;  ///< every ok op
  double gen_lag_p99_ms = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t scrape_bytes = 0;
  std::uint64_t scrapes = 0;
  std::uint64_t mutation_user_bytes = 0;
  std::vector<ReplayRequest> requests;  ///< what the replay re-runs
  std::vector<mmph::trace::SpanStats> library_spans;
};

/// Final checks shared by every workload: reference model, WAL
/// recovery, quality. Stops the server.
struct Closing {
  FinalCheck check;
  std::optional<RecoveryCheck> recovery;
  Quality quality;
};

/// A served placement and the population it was served for.
struct Served {
  double objective = 0.0;
  mmph::geo::PointSet centers{kDim};
  Model model;
};

Closing close_run(const WorkloadSpec& spec, Setup& setup, RunOutput& out,
                  std::optional<Served> quality_at) {
  Closing closing;
  closing.check = final_check(spec, *setup.rig, *setup.load, setup.model);
  ++out.attempted;
  if (!closing.check.ok) out.fail("reference model: " + closing.check.detail);
  for (const std::string& fault : setup.load->faults()) out.fail(fault);
  const std::string wal_dir = setup.rig->wal_dir;
  setup.load.reset();
  setup.rig.reset();  // clean stop
  if (!wal_dir.empty()) {
    closing.recovery = recovery_check(spec, wal_dir, setup.model);
    if (!closing.recovery->ok) out.fail("wal recovery: " + closing.recovery->detail);
    std::filesystem::remove_all(wal_dir);
  }
  // Quality: the final placement unless the workload pins an epoch. The
  // server is down, so the bounds may use every core.
  use_all_cpus();
  mmph::par::ThreadPool bounds_pool(std::thread::hardware_concurrency());
  if (!quality_at.has_value()) {
    quality_at = Served{closing.check.objective, closing.check.centers,
                        setup.model};
  }
  closing.quality = certify(spec, quality_at->model, quality_at->objective,
                            quality_at->centers, bounds_pool);
  // A certified bound can never be below the placement it bounds; the
  // slack covers the server's shard summation order.
  if (!(closing.quality.objective <=
        closing.quality.bound * (1.0 + kBoundSlack))) {
    std::ostringstream why;
    why.precision(17);
    why << "placement objective " << closing.quality.objective
        << " exceeds its certified bound " << closing.quality.bound;
    out.fail(why.str());
  }
  return closing;
}

double span_mean(const std::vector<mmph::trace::SpanStats>& spans,
                 const std::string& name, std::uint64_t* count = nullptr) {
  for (const mmph::trace::SpanStats& span : spans) {
    if (span.name == name) {
      if (count != nullptr) *count = span.count;
      return span.mean_seconds();
    }
  }
  if (count != nullptr) *count = 0;
  return 0.0;
}

/// Mean self time per call of a replay span, in seconds (0 if absent).
double layer_mean(const ReplayResult& replay, const std::string& name) {
  const auto it = replay.layers.find(name);
  if (it == replay.layers.end() || it->second.count == 0) return 0.0;
  return it->second.self_s / static_cast<double>(it->second.count);
}

/// --trace 1: counter diffs of the untraced phase plus the traced replay.
void per_layer(const WorkloadSpec& spec, const Args& args,
               mmph::par::ThreadPool& pool,
               const std::vector<serve::UserRecord>& initial,
               const Observed& obs, const Closing& closing, RunOutput& out) {
  const serve::MetricsSnapshot& s0 = obs.before.serve;
  const serve::MetricsSnapshot& s1 = obs.after.serve;
  const mmph::net::NetMetricsSnapshot& n0 = obs.before.net;
  const mmph::net::NetMetricsSnapshot& n1 = obs.after.net;
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double batches = d(s0.batches, s1.batches);
  const double batched = d(s0.batched_requests, s1.batched_requests);
  const double full = d(s0.full_solves, s1.full_solves);
  const double incremental = d(s0.incremental_solves, s1.incremental_solves);
  const double solves = full + incremental;
  const double spatial_queries = d(s0.spatial_queries, s1.spatial_queries);
  const double ls_evals = d(s0.ls_evals, s1.ls_evals);
  const double frames = d(n0.frames_in, n1.frames_in);
  const double net_bytes = d(n0.bytes_in, n1.bytes_in) + d(n0.bytes_out, n1.bytes_out);
  std::uint64_t polishes = 0;
  const double polish_s = span_mean(obs.library_spans, "serve.solve.polish", &polishes);
  const double request_s = span_mean(obs.library_spans, "net.request");
  const double batch_s = span_mean(obs.library_spans, "serve.batch");

  const std::size_t batch_size = static_cast<std::size_t>(
      std::max(1.0, std::round(ratio(batched, batches))));
  const ReplayResult replay = traced_replay(
      spec, initial, obs.requests, batch_size, args.seconds * 0.2,
      args.work_dir, pool);

  std::cout << "traced replay: " << replay.batches << " batches of "
            << batch_size << ", " << replay.requests << " requests, traced "
            << replay.traced_wall_s << " s, untraced " << replay.untraced_wall_s
            << " s, coverage " << replay.coverage << ", spans in "
            << replay.spans_file << "\n";
  std::cout << "layer self times (replay):\n";
  for (const auto& [name, layer] : replay.layers) {
    std::cout << "  " << std::left << std::setw(30) << name << std::right
              << " count " << std::setw(8) << layer.count << "  self "
              << std::setw(12) << layer.self_s * 1e3 << " ms  total "
              << std::setw(12) << layer.total_s * 1e3 << " ms\n";
  }

  const double client_p50_ms = percentile(obs.client_ms, 0.50);
  const double server_p50_ms = n1.latency_p50_seconds * 1e3;
  const ServerRig::WalCounters& w0 = obs.before.wal;
  const ServerRig::WalCounters& w1 = obs.after.wal;
  const double placement_full = layer_mean(replay, "serve.placement.full");
  const double placement_incremental =
      layer_mean(replay, "serve.placement.incremental");
  out.metrics = {
      {"net.encode_us", layer_mean(replay, "net.encode_request") * 1e6, "us"},
      {"net.decode_us", layer_mean(replay, "net.FrameDecoder") * 1e6, "us"},
      {"net.bytes_per_op", ratio(net_bytes, frames), "B"},
      {"net.server_p50_ms", server_p50_ms, "ms"},
      {"net.server_p99_ms", n1.latency_p99_seconds * 1e3, "ms"},
      {"net.outside_server_ms", client_p50_ms - server_p50_ms, "ms"},
      {"obs.scrape_ms", layer_mean(replay, "obs.render_stats") * 1e3, "ms"},
      {"obs.scrape_bytes",
       ratio(static_cast<double>(obs.scrape_bytes), static_cast<double>(obs.scrapes)),
       "B"},
      {"serve.batch_size_mean", ratio(batched, batches), "count"},
      {"serve.batches_per_s", batches / obs.duration, "1/s"},
      {"serve.queue_wait_ms", std::max(0.0, request_s - batch_s) * 1e3, "ms"},
      {"serve.rejected", d(s0.rejected_full, s1.rejected_full), "count"},
      {"serve.timeouts", d(s0.timeouts, s1.timeouts), "count"},
      {"serve.store_apply_us", layer_mean(replay, "serve.apply") * 1e6, "us"},
      {"serve.snapshot_ms", layer_mean(replay, "serve.snapshot") * 1e3, "ms"},
      {"wal.append_us", layer_mean(replay, "wal.append") * 1e6, "us"},
      {"wal.commit_ms", layer_mean(replay, "wal.commit_all") * 1e3, "ms"},
      {"wal.commits_per_batch", ratio(w1.commits - w0.commits, batches), "ratio"},
      {"wal.bytes_per_user_byte",
       ratio(w1.bytes - w0.bytes, static_cast<double>(obs.mutation_user_bytes)),
       "ratio"},
      {"wal.recover_s", closing.recovery ? closing.recovery->seconds : 0.0, "s"},
      {"solve.full_ms", placement_full * 1e3, "ms"},
      {"solve.incremental_ms", placement_incremental * 1e3, "ms"},
      {"solve.incremental_ratio", ratio(incremental, solves), "ratio"},
      {"solve.per_batch", ratio(solves, batches), "ratio"},
      {"spatial.queries_per_solve", ratio(spatial_queries, solves), "count"},
      {"spatial.points_touched_per_query",
       ratio(d(s0.spatial_points_touched, s1.spatial_points_touched), spatial_queries),
       "count"},
      {"spatial.rebuilds", d(s0.spatial_rebuilds, s1.spatial_rebuilds), "count"},
      {"core.evaluate_ms", layer_mean(replay, "core.objective_value") * 1e3, "ms"},
      {"ls.polish_ms", polish_s * 1e3, "ms"},
      {"ls.evals_per_s",
       ratio(ls_evals, polish_s * static_cast<double>(polishes)), "1/s"},
      {"ls.accept_ratio", ratio(d(s0.ls_moves, s1.ls_moves), ls_evals), "ratio"},
      {"ls.improve_ratio",
       ratio(d(s0.ls_improvements, s1.ls_improvements), static_cast<double>(polishes)),
       "ratio"},
      {"bounds.certify_ms", layer_mean(replay, "ls.certified_upper_bounds") * 1e3, "ms"},
      {"bounds.gap", ratio(closing.quality.bound, closing.quality.objective) - 1.0,
       "ratio"},
      {"bench.gen_lag_p99_ms", obs.gen_lag_p99_ms, "ms"},
      {"bench.trace_overhead_frac",
       ratio(replay.traced_wall_s, replay.untraced_wall_s) - 1.0, "ratio"},
      {"bench.trace_coverage", replay.coverage, "ratio"},
      {"error_rate",
       ratio(static_cast<double>(obs.failed), static_cast<double>(obs.attempted)),
       "ratio"},
  };
}

// --- open loop ---------------------------------------------------------------

void print_phase(const std::string& label, const PhaseResult& phase,
                 double slo_ms) {
  const double p99 = percentile(phase.all_ms, 0.99);
  std::cout << std::fixed << std::setprecision(3) << label << ": rate "
            << phase.rate << " req/s, ops " << phase.attempted << ", failed "
            << phase.failed << ", p99 " << p99 << " ms (SLO " << slo_ms
            << " ms)";
  if (!phase.lag_ms.empty()) {
    std::cout << ", lag p99 " << percentile(phase.lag_ms, 0.99) << " ms";
  }
  std::cout << "\n";
  std::cout.unsetf(std::ios::fixed);
}

/// Requests answered ok within the SLO.
double good_requests(const PhaseResult& phase, double slo_ms) {
  return static_cast<double>(
      std::count_if(phase.all_ms.begin(), phase.all_ms.end(),
                    [&](double ms) { return ms <= slo_ms; }));
}

void run_open(const WorkloadSpec& spec, const Args& args,
              mmph::par::ThreadPool& pool, RunOutput& out) {
  Json& rec = out.record;
  const double ref_rate = spec.reference_rate;
  const SelfTestReport self = generator_self_test(spec, args.seed, ref_rate);
  std::cout << "generator self-test: " << (self.ok ? "ok" : "FAILED") << " ("
            << self.detail << ")\n";
  if (!self.ok) out.fail("generator self-test: " + self.detail);
  rec.key("generator");
  rec.begin_object();
  rec.field("digest", std::to_string(self.digest));
  rec.field("mix_error", self.mix_error);
  rec.field("rate_error", self.rate_error);
  rec.field("hot_region_share", self.hot_share);
  rec.end_object();

  const bool traced = args.trace == 1;
  const std::size_t trials = traced ? 1 : kOpenTrials;
  // Each untraced trial runs the reference rate, then the saturated
  // phase; a trace run spends 0.4 of its time at the reference rate.
  const double trial_seconds = args.seconds / static_cast<double>(trials);
  const double ref_seconds =
      traced ? 0.4 * args.seconds : (1.0 - kSaturatedShare) * trial_seconds;
  const double saturated_seconds = kSaturatedShare * trial_seconds;
  TrialFigures figures;
  std::vector<double> setup_seconds = extra_setups(spec, args, pool, trials);
  Latencies pooled;
  std::vector<double> lag_ms;  ///< send lag of every reference-rate op
  // The run is invalid when the generator fell behind. The check pools
  // the trials, like the latencies it protects: one host stall of ~12 ms
  // in a short trial was over 1% of that trial's sends.
  const auto check_lag = [&] {
    const double p99 = percentile(lag_ms, 0.99);
    rec.field("gen_lag_p99_ms", p99);
    if (p99 > max_gen_lag_ms(spec)) {
      out.fail("generator fell behind at the reference rate (lag p99 " +
               std::to_string(p99) + " ms)");
    }
  };
  rec.begin_array("trials");
  for (std::size_t t = 0; t < trials; ++t) {
    reset_peak_rss();
    Setup setup = set_up(spec, args, pool, t);
    setup_seconds.push_back(setup.seconds);
    out.attempted += setup.requests;
    rec.begin_object();
    rec.field("seed", trial_seed(args.seed, t));
    rec.field("setup_s", setup.seconds);

    const std::vector<Scheduled> schedule =
        setup.gen->schedule(ref_rate, ref_seconds);
    if (traced) {
      mmph::trace::SpanCollector::global().reset();
      mmph::trace::SpanCollector::global().set_enabled(true);
    }
    const Counters before = counters(*setup.rig);
    const PhaseResult ref = setup.load->run_open_loop(
        schedule, ref_rate, ref_seconds, setup.model);
    const Counters after = counters(*setup.rig);
    // Peak RSS before the saturated phase, whose queues would make the
    // figure follow the window rather than the workload.
    figures.rss_mb.push_back(peak_rss_mb());
    rec.field("peak_rss_mb", figures.rss_mb.back());
    std::vector<mmph::trace::SpanStats> library_spans;
    if (traced) {
      mmph::trace::SpanCollector::global().set_enabled(false);
      library_spans = mmph::trace::SpanCollector::global().stats();
    }
    print_phase("reference rate", ref, spec.slo_ms);
    out.attempted += ref.attempted;
    out.failed += ref.failed;
    const double lag_p99_ms = percentile(ref.lag_ms, 0.99);
    append(lag_ms, ref.lag_ms);

    // Goodput: the server kept saturated by a fixed window of requests.
    if (!traced) {
      const PhaseResult saturated = setup.load->run_saturated(
          setup.gen->schedule(kSaturatedStreamRate, saturated_seconds),
          kWindowPerConnection, saturated_seconds, setup.model);
      print_phase("saturated", saturated, spec.slo_ms);
      figures.add_goodput(rec, good_requests(saturated, spec.slo_ms),
                          saturated.wall);
      rec.field("saturated_p99_ms", percentile(saturated.all_ms, 0.99));
    }

    const Closing closing = close_run(spec, setup, out, std::nullopt);
    std::cout << "reference model: " << closing.check.detail << "\n";
    if (closing.recovery) {
      std::cout << "wal recovery: " << closing.recovery->detail << "\n";
    }
    std::cout << "placement quality: " << closing.quality.objective << " / "
              << closing.quality.bound << " (ls bound "
              << closing.quality.ls_bound << ", continuous bound "
              << closing.quality.continuous_bound << ")\n";

    const auto& lat = ref.latency;
    const auto of = [&](OpKind kind) -> const std::vector<double>& {
      return lat[static_cast<std::size_t>(kind)];
    };
    Latencies trial;
    trial.query = of(OpKind::kQuery);
    trial.evaluate = of(OpKind::kEvaluate);
    for (const OpKind kind : {OpKind::kMove, OpKind::kJoin, OpKind::kLeave}) {
      append(trial.mutate, of(kind));
    }
    pooled.append(trial);
    const auto solves_of = [](const Counters& c) {
      return static_cast<double>(c.serve.full_solves + c.serve.incremental_solves);
    };
    trial.record(rec, "samples");
    rec.field("solve_p50_ms", after.serve.solve_p50_seconds * 1e3);
    rec.field("solve_p99_ms", after.serve.solve_p99_seconds * 1e3);
    rec.field("all_p99_ms", percentile(ref.all_ms, 0.99));
    rec.field("gen_lag_p99_ms", lag_p99_ms);
    figures.add(rec, solves_of(after) - solves_of(before), ref.wall,
                closing.quality.ratio);
    rec.end_object();

    if (traced) {
      Observed obs;
      obs.duration = ref_seconds;
      obs.before = before;
      obs.after = after;
      for (const std::vector<double>& samples : lat) {
        append(obs.client_ms, samples);
      }
      obs.gen_lag_p99_ms = lag_p99_ms;
      obs.attempted = out.attempted;
      obs.failed = out.failed;
      obs.scrape_bytes = ref.scrape_bytes;
      obs.scrapes = ref.scrapes;
      obs.mutation_user_bytes = ref.mutation_user_bytes;
      obs.library_spans = std::move(library_spans);
      obs.requests.reserve(schedule.size());
      for (const Scheduled& item : schedule) obs.requests.push_back({item.op});
      rec.end_array();
      check_lag();
      per_layer(spec, args, pool, setup.gen->initial(), obs, closing, out);
      return;
    }
  }
  rec.end_array();
  check_lag();

  record_setups(rec, setup_seconds);
  pooled.record(rec, "pooled");
  pooled.print();
  out.metrics = end_to_end(median(setup_seconds), pooled, figures);
}

// --- closed loop -------------------------------------------------------------

void run_closed(const WorkloadSpec& spec, const Args& args,
                mmph::par::ThreadPool& pool, RunOutput& out) {
  Json& rec = out.record;
  const bool traced = args.trace == 1;
  const std::size_t trials = traced ? 1 : kClosedTrials;
  const double budget =
      args.seconds * (traced ? 0.4 : 1.0) / static_cast<double>(trials);
  TrialFigures figures;
  std::vector<double> setup_seconds = extra_setups(spec, args, pool, trials);
  Latencies pooled;
  rec.begin_array("trials");
  for (std::size_t t = 0; t < trials; ++t) {
    reset_peak_rss();
    Setup setup = set_up(spec, args, pool, t);
    setup_seconds.push_back(setup.seconds);
    out.attempted += setup.requests;
    LoadGen& load = *setup.load;
    OpGenerator& gen = *setup.gen;
    rec.begin_object();
    rec.field("seed", trial_seed(args.seed, t));
    rec.field("setup_s", setup.seconds);

    if (traced) {
      mmph::trace::SpanCollector::global().reset();
      mmph::trace::SpanCollector::global().set_enabled(true);
    }
    const Counters before = counters(*setup.rig);
    Latencies trial;
    std::vector<double> all_ms;
    std::optional<Served> quality_at;
    std::vector<ReplayRequest> requests;
    std::size_t epochs = 0;
    std::uint64_t ok = 0;
    std::vector<std::uint8_t> bytes;
    const auto start = Clock::now();
    const auto note = [&](const mmph::net::ResponseFrame& reply, double ms,
                          std::vector<double>& into) {
      ++out.attempted;
      if (reply.status != mmph::net::WireStatus::kOk) {
        ++out.failed;
        return false;
      }
      ++ok;
      into.push_back(ms);
      all_ms.push_back(ms);
      return true;
    };
    // A trial always reaches the quality epoch, however short the budget.
    while (seconds_since(start) < budget || epochs < spec.quality_epoch) {
      // One epoch is one batch: the 1% churn as one add_users frame, the
      // query and two what-if evaluates, pipelined in one write. Every
      // reply leaves when the batch's re-solve is done. Sent on their
      // own, the ack and the evaluates were sub-millisecond loopback
      // roundtrips whose run-to-run spread was set by how fast the host
      // woke the server's thread.
      std::vector<Op> moves;
      for (std::size_t i = 0; i < spec.churn_per_epoch; ++i) {
        moves.push_back(gen.next_move());
      }
      const Op first = gen.next_evaluate();
      const Op second = gen.next_evaluate();
      bytes.clear();
      mmph::net::encode_request(to_frame(moves, load.next_request_id()), bytes);
      encode_op(Op{}, load.next_request_id(), bytes);
      encode_op(first, load.next_request_id(), bytes);
      encode_op(second, load.next_request_id(), bytes);
      const auto sent = Clock::now();
      std::vector<mmph::net::ResponseFrame> replies = load.roundtrip(bytes, 4);
      const double wait_ms = seconds_since(sent) * 1e3;
      // Request order: the churn ack first, so the model holds the
      // population the query's placement was solved for.
      std::sort(replies.begin(), replies.end(),
                [](const auto& a, const auto& b) {
                  return a.request_id < b.request_id;
                });
      if (note(replies[0], wait_ms, trial.mutate)) {
        for (const Op& op : moves) apply_to_model(op, setup.model);
      }
      if (note(replies[1], wait_ms, trial.query) &&
          epochs + 1 == spec.quality_epoch && replies[1].centers) {
        quality_at = Served{replies[1].objective, *replies[1].centers,
                            setup.model};
      }
      note(replies[2], wait_ms, trial.evaluate);
      note(replies[3], wait_ms, trial.evaluate);
      ++epochs;
      if (traced) {
        requests.push_back(moves);
        requests.push_back({Op{}});
        requests.push_back({first});
        requests.push_back({second});
      }
    }
    const double elapsed = seconds_since(start);
    const Counters after = counters(*setup.rig);
    figures.rss_mb.push_back(peak_rss_mb());
    rec.field("peak_rss_mb", figures.rss_mb.back());
    std::vector<mmph::trace::SpanStats> library_spans;
    if (traced) {
      mmph::trace::SpanCollector::global().set_enabled(false);
      library_spans = mmph::trace::SpanCollector::global().stats();
    }
    std::cout << "closed loop: " << epochs << " epochs in " << elapsed << " s\n";
    if (!quality_at.has_value()) {
      out.fail("run ended before quality epoch " +
               std::to_string(spec.quality_epoch));
    }
    const Closing closing = close_run(spec, setup, out, quality_at);
    std::cout << "reference model: " << closing.check.detail << "\n";
    std::cout << "placement quality at epoch " << spec.quality_epoch << ": "
              << closing.quality.objective << " / " << closing.quality.bound
              << " (ls bound " << closing.quality.ls_bound
              << ", continuous bound " << closing.quality.continuous_bound
              << ")\n";

    rec.field("epochs", static_cast<std::uint64_t>(epochs));
    trial.record(rec, "samples");
    pooled.append(trial);
    figures.add_goodput(rec, static_cast<double>(ok), elapsed);
    figures.add(rec, static_cast<double>(epochs), elapsed,
                closing.quality.ratio);
    rec.end_object();

    if (traced) {
      Observed obs;
      obs.duration = elapsed;
      obs.before = before;
      obs.after = after;
      obs.client_ms = all_ms;
      obs.attempted = out.attempted;
      obs.failed = out.failed;
      obs.library_spans = std::move(library_spans);
      obs.requests = std::move(requests);
      rec.end_array();
      per_layer(spec, args, pool, gen.initial(), obs, closing, out);
      return;
    }
  }
  rec.end_array();

  record_setups(rec, setup_seconds);
  pooled.record(rec, "pooled");
  pooled.print();
  out.metrics = end_to_end(median(setup_seconds), pooled, figures);
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::optional<WorkloadSpec> found;
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == args.workload) found = w;
  }
  if (!found.has_value()) {
    std::cerr << "unknown workload '" << args.workload << "' (";
    for (const WorkloadSpec& w : workloads()) std::cerr << ' ' << w.name;
    std::cerr << " )\n";
    return 2;
  }
  const WorkloadSpec& spec = *found;
  std::filesystem::create_directories(args.work_dir);
  use_server_cpus();
  mmph::par::ThreadPool pool(kPoolThreads);

  RunOutput out;
  Json& rec = out.record;
  rec.begin_object();
  rec.field("workload", spec.name);
  rec.field("seed", args.seed);
  rec.field("seconds", args.seconds);
  rec.field("trace", static_cast<std::uint64_t>(args.trace));
  rec.field("rev", args.rev);
  rec.field("build_type", std::string(MMPH_PERFBENCH_BUILD_TYPE));
  rec.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  rec.field("cpu_model", cpu_model());
  rec.key("params");
  rec.begin_object();
  rec.field("why", spec.why);
  rec.field("open_loop", spec.open_loop);
  rec.field("n", static_cast<std::uint64_t>(spec.n));
  rec.field("box", spec.box);
  rec.field("k", static_cast<std::uint64_t>(spec.k));
  rec.field("radius", kRadius);
  rec.field("loops", static_cast<std::uint64_t>(kLoops));
  rec.field("store_shards", static_cast<std::uint64_t>(spec.store_shards));
  rec.field("wal", spec.wal ? std::string("fsync group") : std::string("off"));
  rec.field("solver", std::string(serve::solver_tier_name(spec.solver)));
  rec.field("pool_threads", static_cast<std::uint64_t>(kPoolThreads));
  rec.field("connections", static_cast<std::uint64_t>(spec.connections));
  rec.field("mix", "query " + std::to_string(spec.p_query) + ", evaluate " +
                       std::to_string(spec.p_evaluate) + ", move " +
                       std::to_string(spec.p_move) + ", join " +
                       std::to_string(spec.p_join) + ", leave " +
                       std::to_string(spec.p_leave));
  rec.field("stats_per_s", spec.stats_per_s);
  rec.field("zipf_s", spec.zipf_s);
  if (spec.open_loop) {
    rec.field("reference_rate", spec.reference_rate);
    rec.field("saturated_window",
              static_cast<std::uint64_t>(kWindowPerConnection * spec.connections));
    rec.field("slo_ms", spec.slo_ms);
  } else {
    rec.field("churn_per_epoch", static_cast<std::uint64_t>(spec.churn_per_epoch));
    rec.field("quality_epoch", static_cast<std::uint64_t>(spec.quality_epoch));
  }
  rec.end_object();

  if (spec.open_loop) {
    run_open(spec, args, pool, out);
  } else {
    run_closed(spec, args, pool, out);
  }

  rec.begin_array("failures");
  for (const std::string& why : out.failures) rec.value(why);
  rec.end_array();
  rec.key("metrics");
  rec.begin_object();
  for (const Metric& m : out.metrics) rec.field(m.name, m.value);
  rec.end_object();
  rec.end_object();

  std::cout << "\n" << spec.name << " seed " << args.seed << " ("
            << (args.trace ? "per-layer, traced replay" : "end to end") << ")\n";
  for (const Metric& m : out.metrics) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << m.unit << "\n";
  }
  for (const std::string& why : out.failures) std::cout << "FAILED: " << why << "\n";
  std::cout << "record " << rec.str() << "\n";

  Json result;
  result.begin_object();
  result.field("correct", out.correct);
  result.field("attempted", std::max<std::uint64_t>(out.attempted, 1));
  result.field("failed", out.failed);
  result.key("metrics");
  result.begin_object();
  for (const Metric& m : out.metrics) {
    result.key(m.name);
    result.begin_object();
    result.field("value", m.value);
    result.field("unit", m.unit);
    result.end_object();
  }
  result.end_object();
  result.end_object();
  std::cout << result.str() << std::endl;
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mmph_perfbench: " << e.what() << "\n";
    return 1;
  }
}
