#pragma once

/// \file replay.hpp
/// \brief Traced in-process replay: times each layer's public calls.
///
/// The replay feeds a generated op stream, in batches of the untraced
/// run's mean batch size, through the same public functions the server
/// path uses: net::encode_request / FrameDecoder, a benchmark-owned
/// ShardedWal (append, commit_all), PlacementService::apply_add /
/// apply_remove / placement() / evaluate(), NetServer::render_stats, and
/// ls::certified_upper_bounds. Each call is wrapped in a span (name,
/// start, end, parent, batch id); spans stay in memory and are written
/// out when the replay ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mmph/parallel/thread_pool.hpp"

namespace perfbench {

/// One request of the replayed stream: ops that travel in one frame
/// (a closed-loop epoch's moves share one add_users frame).
using ReplayRequest = std::vector<Op>;

struct LayerTime {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

struct ReplayResult {
  std::size_t batches = 0;
  std::size_t requests = 0;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  /// Share of batch-span time covered by child spans.
  double coverage = 0.0;
  std::map<std::string, LayerTime> layers;  ///< by span name
  std::string spans_file;                   ///< where the spans went
};

/// Replays \p requests on fresh services seeded with \p initial three
/// times: untraced (stopping after \p max_seconds), traced, and untraced
/// again over the same batches; the traced wall time against the mean of
/// the untraced ones is the tracing overhead. With spec.wal, mutations
/// also go through a benchmark-owned ShardedWal under \p work_dir.
[[nodiscard]] ReplayResult traced_replay(
    const WorkloadSpec& spec,
    const std::vector<mmph::serve::UserRecord>& initial,
    const std::vector<ReplayRequest>& requests, std::size_t batch_size,
    double max_seconds, const std::string& work_dir,
    mmph::par::ThreadPool& pool);

}  // namespace perfbench
