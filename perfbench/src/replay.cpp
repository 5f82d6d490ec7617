#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "drive.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/ls/bounds.hpp"
#include "mmph/net/server.hpp"
#include "mmph/net/wire.hpp"
#include "mmph/wal/sharded_wal.hpp"

namespace perfbench {

namespace net = mmph::net;
namespace serve = mmph::serve;
namespace wal = mmph::wal;

namespace {

struct Span {
  std::string_view name;
  std::int32_t parent = -1;
  std::uint32_t batch = 0;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span recorder. Disabled, open() returns -1 without reading
/// the clock, so the untraced replay runs the same code path.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  std::int32_t open(std::string_view name, std::int32_t parent,
                    std::uint32_t batch) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, parent, batch, now(), 0.0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end = now();
  }
  void rename(std::int32_t span, std::string_view name) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].name = name;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double now() const { return seconds_since(origin_); }
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// A fresh service seeded with the initial population (not timed), plus
/// the benchmark-owned log when the workload is durable.
struct ReplayRig {
  ReplayRig(const WorkloadSpec& spec,
            const std::vector<serve::UserRecord>& initial,
            const std::string& wal_dir, mmph::par::ThreadPool& pool)
      : server(service_config(spec), net::NetServerConfig{}, &pool) {
    constexpr std::size_t kChunk = 4096;
    for (std::size_t at = 0; at < initial.size(); at += kChunk) {
      const std::size_t end = std::min(initial.size(), at + kChunk);
      server.service().apply_add(std::vector<serve::UserRecord>(
          initial.begin() + static_cast<std::ptrdiff_t>(at),
          initial.begin() + static_cast<std::ptrdiff_t>(end)));
    }
    (void)server.service().placement();
    if (spec.wal) {
      dir = wal_dir;
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      wal::WalConfig config;
      config.dir = dir;
      config.fsync = wal::FsyncPolicy::kGroupCommit;
      log = std::make_unique<wal::ShardedWal>(
          config, spec.store_shards,
          wal::recover_sharded(dir, spec.store_shards, kDim));
    }
  }
  ~ReplayRig() {
    log.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
  ReplayRig(const ReplayRig&) = delete;
  ReplayRig& operator=(const ReplayRig&) = delete;

  net::NetServer server;  ///< never started: owns the service, renders stats
  std::string dir;
  std::unique_ptr<wal::ShardedWal> log;
};

wal::WalRecord to_record(const net::RequestFrame& frame) {
  wal::WalRecord record;
  if (frame.type == net::FrameType::kRemoveUsers) {
    record.type = wal::RecordType::kRemove;
    record.ids = frame.ids;
    return record;
  }
  record.type = wal::RecordType::kUpsert;
  record.dim = static_cast<std::uint16_t>(kDim);
  for (const serve::UserRecord& user : frame.users) {
    record.ids.push_back(user.id);
    record.weights.push_back(user.weight);
    record.coords.insert(record.coords.end(), user.interest.begin(),
                         user.interest.end());
  }
  return record;
}

/// Runs batches [0, limit) or until \p max_seconds; returns batches run.
std::size_t run_batches(const WorkloadSpec& spec, ReplayRig& rig,
                        const std::vector<ReplayRequest>& requests,
                        std::size_t batch_size, std::size_t limit,
                        double max_seconds, Tracer& tracer) {
  serve::PlacementService& service = rig.server.service();
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> bytes;
  const auto start = Clock::now();
  std::size_t batch = 0;
  for (std::size_t at = 0; at < requests.size() && batch < limit;
       at += batch_size, ++batch) {
    if (seconds_since(start) > max_seconds) break;
    const auto b = static_cast<std::uint32_t>(batch);
    const std::int32_t top = tracer.open("batch", -1, b);
    bool mutated = false;
    bool query = false;
    std::vector<std::size_t> evaluates;  ///< indexes into frames
    std::vector<net::RequestFrame> frames;
    const std::size_t end = std::min(requests.size(), at + batch_size);
    for (std::size_t i = at; i < end; ++i) {
      const net::RequestFrame outbound = to_frame(requests[i], i + 1);
      std::int32_t span = tracer.open("net.encode_request", top, b);
      bytes.clear();
      net::encode_request(outbound, bytes);
      tracer.close(span);

      span = tracer.open("net.FrameDecoder", top, b);
      decoder.feed(bytes.data(), bytes.size());
      net::FrameDecoder::Result decoded = decoder.next();
      tracer.close(span);
      if (decoded.status != net::DecodeStatus::kOk) {
        throw std::runtime_error("replay: frame failed to decode");
      }
      frames.push_back(std::move(decoded.request));
      const net::RequestFrame& frame = frames.back();

      switch (frame.type) {
        case net::FrameType::kAddUsers:
        case net::FrameType::kRemoveUsers: {
          if (rig.log) {
            wal::WalRecord record = to_record(frame);
            span = tracer.open("wal.append", top, b);
            rig.log->append(record.ids.front() % spec.store_shards, record);
            tracer.close(span);
          }
          span = tracer.open("serve.apply", top, b);
          if (frame.type == net::FrameType::kAddUsers) {
            service.apply_add(frame.users);
          } else {
            service.apply_remove(frame.ids);
          }
          tracer.close(span);
          mutated = true;
          break;
        }
        case net::FrameType::kQueryPlacement:
          query = true;
          break;
        case net::FrameType::kEvaluate:
          evaluates.push_back(frames.size() - 1);
          break;
        case net::FrameType::kStats: {
          span = tracer.open("obs.render_stats", top, b);
          const std::string text = rig.server.render_stats();
          tracer.close(span);
          (void)text;
          break;
        }
        default:
          break;
      }
    }
    if (rig.log && mutated) {
      const std::int32_t span = tracer.open("wal.commit_all", top, b);
      rig.log->commit_all();
      tracer.close(span);
    }
    if (query) {
      const serve::MetricsSnapshot before = service.metrics();
      const std::int32_t span = tracer.open("serve.placement", top, b);
      (void)service.placement();
      tracer.close(span);
      const serve::MetricsSnapshot after = service.metrics();
      if (after.full_solves > before.full_solves) {
        tracer.rename(span, "serve.placement.full");
      } else if (after.incremental_solves > before.incremental_solves) {
        tracer.rename(span, "serve.placement.incremental");
      }
    }
    if (!evaluates.empty()) {
      std::int32_t span = tracer.open("serve.snapshot", top, b);
      const wal::WalSnapshot snap = service.wal_snapshot();
      const mmph::core::Problem problem(
          mmph::geo::PointSet(kDim, snap.coords), snap.weights, kRadius,
          service.config().metric, service.config().shape);
      tracer.close(span);
      for (const std::size_t index : evaluates) {
        const mmph::geo::PointSet& centers = *frames[index].centers;
        span = tracer.open("serve.evaluate", top, b);
        (void)service.evaluate(centers);
        tracer.close(span);
        span = tracer.open("core.objective_value", top, b);
        (void)mmph::core::objective_value(problem, centers);
        tracer.close(span);
      }
    }
    tracer.close(top);
  }
  return batch;
}

}  // namespace

ReplayResult traced_replay(const WorkloadSpec& spec,
                           const std::vector<serve::UserRecord>& initial,
                           const std::vector<ReplayRequest>& requests,
                           std::size_t batch_size, double max_seconds,
                           const std::string& work_dir,
                           mmph::par::ThreadPool& pool) {
  ReplayResult result;
  batch_size = std::max<std::size_t>(batch_size, 1);
  // Untraced, traced, untraced again on the same batches: the overhead
  // compares the traced wall time with the mean of the two around it.
  const auto untraced = [&](std::size_t limit, double seconds,
                            const std::string& tag) {
    Tracer off(false);
    ReplayRig rig(spec, initial, work_dir + "/replay-wal-" + tag, pool);
    const auto start = Clock::now();
    const std::size_t batches =
        run_batches(spec, rig, requests, batch_size, limit, seconds, off);
    return std::make_pair(batches, seconds_since(start));
  };
  const auto [batches, first_wall] =
      untraced(requests.size(), max_seconds, "untraced-1");
  result.batches = batches;
  Tracer traced(true);
  {
    ReplayRig rig(spec, initial, work_dir + "/replay-wal-traced", pool);
    const auto start = Clock::now();
    (void)run_batches(spec, rig, requests, batch_size, result.batches, 1e300,
                      traced);
    result.traced_wall_s = seconds_since(start);

    // The certificate, once, on the replayed population.
    const wal::WalSnapshot snap = rig.server.service().wal_snapshot();
    const mmph::core::Problem problem(
        mmph::geo::PointSet(kDim, snap.coords), snap.weights, kRadius,
        rig.server.service().config().metric,
        rig.server.service().config().shape);
    // Same pool shape as the run's own certificate (every core).
    mmph::par::ThreadPool bounds_pool(std::thread::hardware_concurrency());
    const std::uint32_t b = static_cast<std::uint32_t>(result.batches);
    std::int32_t span = traced.open("core.lazy_greedy", -1, b);
    const mmph::core::Solution reference =
        mmph::core::LazyGreedySolver(&bounds_pool).solve(problem, spec.k);
    traced.close(span);
    span = traced.open("ls.certified_upper_bounds", -1, b);
    (void)mmph::ls::certified_upper_bounds(problem, spec.k, reference,
                                           problem.points(), &bounds_pool);
    traced.close(span);
  }
  const double second_wall = untraced(result.batches, 1e300, "untraced-2").second;
  result.untraced_wall_s = 0.5 * (first_wall + second_wall);
  result.requests = std::min(requests.size(), result.batches * batch_size);

  // Self time: a span's duration minus what its children cover (children
  // of one batch run one after another, so their durations add).
  const std::vector<Span>& spans = traced.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  double batch_total = 0.0;
  double batch_covered = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration = span.end - span.start;
    LayerTime& layer = result.layers[std::string(span.name)];
    ++layer.count;
    layer.total_s += duration;
    layer.self_s += duration - child[i];
    if (span.name == "batch") {
      batch_total += duration;
      batch_covered += child[i];
    }
  }
  result.coverage = batch_total > 0.0 ? batch_covered / batch_total : 0.0;

  result.spans_file = work_dir + "/spans-" + spec.name + ".tsv";
  std::ofstream out(result.spans_file);
  out << "index\tname\tparent\tbatch\tstart_s\tend_s\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << i << '\t' << span.name << '\t' << span.parent << '\t' << span.batch
        << '\t' << span.start << '\t' << span.end << '\n';
  }
  return result;
}

}  // namespace perfbench
