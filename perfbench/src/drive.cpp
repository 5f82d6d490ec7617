#include "drive.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#include <fcntl.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "mmph/core/certificate.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/ls/bounds.hpp"
#include "mmph/wal/recovery.hpp"

namespace perfbench {

namespace net = mmph::net;
namespace serve = mmph::serve;
namespace wal = mmph::wal;

namespace {

constexpr double kDrainSeconds = 10.0;  ///< wait for replies after a phase
constexpr double kRoundtripSeconds = 60.0;
/// Weight of a served center added to the problem for the ls bound.
constexpr double kCenterWeight = 1e-9;

/// Value of an unlabeled series in Prometheus exposition text.
double exposition_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0.0;
}

}  // namespace

serve::ServiceConfig service_config(const WorkloadSpec& spec) {
  serve::ServiceConfig config;
  config.dim = kDim;
  config.k = spec.k;
  config.radius = kRadius;
  config.store_shards = spec.store_shards;
  config.solver = spec.solver;
  config.full_solve_churn_fraction = spec.full_solve_churn_fraction;
  return config;
}

ServerRig::ServerRig(const WorkloadSpec& spec, mmph::par::ThreadPool& pool,
                     std::string dir)
    : wal_dir(spec.wal ? std::move(dir) : std::string()) {
  serve::ServiceConfig config = service_config(spec);
  if (spec.wal) {
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    const wal::ShardedRecovery recovered =
        wal::recover_sharded(wal_dir, spec.store_shards, kDim);
    wal::WalConfig wal_config;
    wal_config.dir = wal_dir;
    wal_config.fsync = wal::FsyncPolicy::kGroupCommit;
    wal_config.snapshot_every_ops = 4096;  // serve-net's default
    wal = std::make_unique<wal::ShardedWal>(wal_config, spec.store_shards,
                                            recovered);
    config.shard_wal = wal.get();
  }
  net::NetServerConfig net_config;
  net_config.loops = kLoops;
  server = std::make_unique<net::NetServer>(config, net_config, &pool);
  server->start();
}

ServerRig::~ServerRig() {
  if (server) server->stop();
  server.reset();
  wal.reset();
}

ServerRig::WalCounters ServerRig::wal_counters() const {
  WalCounters counters;
  if (!wal) return counters;
  for (std::size_t s = 0; s < wal->shard_count(); ++s) {
    const std::string text = wal->writer(s).registry().exposition_text();
    counters.appends += exposition_value(text, "mmph_wal_appends_total");
    counters.bytes += exposition_value(text, "mmph_wal_bytes");
    counters.commits += exposition_value(text, "mmph_wal_commits_total");
  }
  return counters;
}

// --- LoadGen ---------------------------------------------------------------

LoadGen::LoadGen(std::uint16_t port, std::size_t connections)
    : conns_(connections) {
  for (std::size_t c = 0; c < connections; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    conns_[c].fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      throw std::runtime_error(std::string("connect failed: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_.add(fd, EPOLLIN, &conns_[c]);
  }
}

LoadGen::~LoadGen() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void LoadGen::fault(const std::string& what) {
  if (faults_.size() < 16) faults_.push_back(what);
}

void LoadGen::flush(std::size_t c) {
  Conn& conn = conns_[c];
  while (conn.out_head < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_head,
               conn.out.size() - conn.out_head, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_head += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fault("send failed on connection " + std::to_string(c));
    conn.out.clear();
    conn.out_head = 0;
    return;
  }
  const bool pending = conn.out_head < conn.out.size();
  if (!pending) {
    conn.out.clear();
    conn.out_head = 0;
  }
  if (pending != conn.want_write) {
    epoll_.mod(conn.fd, EPOLLIN | (pending ? EPOLLOUT : 0u), &conn);
    conn.want_write = pending;
  }
}

bool LoadGen::pump_read(std::size_t c) {
  Conn& conn = conns_[c];
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fault("connection " + std::to_string(c) + " closed by the server");
    return false;
  }
  for (;;) {
    net::FrameDecoder::Result result = conn.decoder.next();
    if (result.status == net::DecodeStatus::kNeedMoreData) break;
    if (result.status != net::DecodeStatus::kOk || !result.is_response) {
      fault(std::string("undecodable reply: ") + net::to_string(result.status));
      return false;
    }
    inbox_.push_back(std::move(result.response));
    inbox_conn_.push_back(c);
  }
  return true;
}

std::vector<std::size_t> LoadGen::poll(int timeout_ms) {
  std::vector<std::size_t> dead;
  epoll_event events[16];
  const int n = epoll_.wait(events, 16, timeout_ms);
  for (int i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(
        static_cast<const Conn*>(events[i].data.ptr) - conns_.data());
    if (events[i].events & EPOLLOUT) flush(c);
    if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) && !pump_read(c)) {
      dead.push_back(c);
    }
  }
  return dead;
}

/// Replies that were processed (kOk) carry the store epoch after their
/// batch; on one connection those epochs never decrease. Stats replies
/// are answered inline ahead of queued requests, so they are exempt.
void LoadGen::check_epoch(std::size_t c, const net::ResponseFrame& reply) {
  Conn& conn = conns_[c];
  if (reply.epoch < conn.last_epoch) {
    fault("epoch went backwards on connection " + std::to_string(c) + ": " +
          std::to_string(conn.last_epoch) + " -> " +
          std::to_string(reply.epoch));
  }
  conn.last_epoch = std::max(conn.last_epoch, reply.epoch);
}

void LoadGen::seed(const std::vector<serve::UserRecord>& users, Model& model) {
  constexpr std::size_t kChunk = 1024;
  const std::size_t conns = conns_.size();
  std::vector<std::vector<serve::UserRecord>> owned(conns);
  for (const serve::UserRecord& user : users) {
    owned[user.id % conns].push_back(user);
  }
  std::size_t frames = 0;
  for (std::size_t c = 0; c < conns; ++c) {
    for (std::size_t at = 0; at < owned[c].size(); at += kChunk) {
      net::RequestFrame frame;
      frame.type = net::FrameType::kAddUsers;
      frame.request_id = next_request_id();
      const std::size_t end = std::min(owned[c].size(), at + kChunk);
      frame.users.assign(owned[c].begin() + static_cast<std::ptrdiff_t>(at),
                         owned[c].begin() + static_cast<std::ptrdiff_t>(end));
      net::encode_request(frame, conns_[c].out);
      ++frames;
    }
    flush(c);
  }
  const auto start = Clock::now();
  std::size_t acked = 0;
  while (acked < frames) {
    if (seconds_since(start) > kRoundtripSeconds) {
      throw std::runtime_error("seeding timed out");
    }
    if (!poll(0).empty()) throw std::runtime_error("seeding: connection lost");
    for (std::size_t i = 0; i < inbox_.size(); ++i) {
      if (inbox_[i].status != net::WireStatus::kOk) {
        throw std::runtime_error(std::string("seeding: add_users answered ") +
                                 net::to_string(inbox_[i].status));
      }
      check_epoch(inbox_conn_[i], inbox_[i]);
      ++acked;
    }
    inbox_.clear();
    inbox_conn_.clear();
  }
  for (const serve::UserRecord& user : users) {
    model[user.id] = UserPos{user.interest[0], user.interest[1]};
  }
}

std::vector<net::ResponseFrame> LoadGen::roundtrip(
    const std::vector<std::uint8_t>& frames, std::size_t expect) {
  Conn& conn = conns_[0];
  conn.out.insert(conn.out.end(), frames.begin(), frames.end());
  flush(0);
  std::vector<net::ResponseFrame> replies;
  const auto start = Clock::now();
  while (replies.size() < expect) {
    if (seconds_since(start) > kRoundtripSeconds) {
      throw std::runtime_error("closed-loop request timed out");
    }
    // Spins like the open loop: the generator has its CPU to itself, and
    // waking a sleeping vCPU would add its latency to every roundtrip.
    if (!poll(0).empty()) throw std::runtime_error("connection lost");
    for (std::size_t i = 0; i < inbox_.size(); ++i) {
      if (inbox_[i].status == net::WireStatus::kOk && !inbox_[i].stats) {
        check_epoch(inbox_conn_[i], inbox_[i]);
      }
      replies.push_back(std::move(inbox_[i]));
    }
    inbox_.clear();
    inbox_conn_.clear();
  }
  return replies;
}

std::vector<std::uint8_t> LoadGen::encode_phase(
    const std::vector<Scheduled>& schedule, std::uint64_t& base,
    std::vector<std::size_t>& offset) {
  const std::size_t count = schedule.size();
  base = next_id_;
  next_id_ += count;
  std::vector<std::uint8_t> bytes;
  offset.assign(count + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    offset[i] = bytes.size();
    encode_op(schedule[i].op, base + i, bytes);
  }
  offset[count] = bytes.size();
  return bytes;
}

std::size_t LoadGen::take_replies(const std::vector<Scheduled>& schedule,
                                  std::uint64_t base, double now,
                                  PhaseTimes& times, PhaseResult& result,
                                  Model& model) {
  std::size_t answered = 0;
  const std::size_t count = schedule.size();
  for (std::size_t i = 0; i < inbox_.size(); ++i) {
    const net::ResponseFrame& reply = inbox_[i];
    const std::uint64_t index = reply.request_id - base;
    if (reply.request_id < base || index >= count ||
        times.done[index] != PhaseTimes::kNotYet) {
      fault("reply to an unknown or already answered request id " +
            std::to_string(reply.request_id));
      continue;
    }
    times.done[index] = now;
    ++answered;
    const Op& op = schedule[index].op;
    if (reply.status != net::WireStatus::kOk) continue;
    if (op.kind != OpKind::kStats) check_epoch(inbox_conn_[i], reply);
    times.ok[index] = 1;
    if (is_mutation(op.kind)) {
      apply_to_model(op, model);
      result.mutation_user_bytes +=
          op.kind == OpKind::kLeave ? 8 : 16 + 8 * kDim;
    }
    if (op.kind == OpKind::kStats && reply.stats.has_value()) {
      result.scrape_bytes += reply.stats->size();
      ++result.scrapes;
    }
  }
  inbox_.clear();
  inbox_conn_.clear();
  return answered;
}

void LoadGen::settle(const std::vector<Scheduled>& schedule,
                     const PhaseTimes& times, bool from_due,
                     PhaseResult& result) {
  const std::size_t count = schedule.size();
  result.all_ms.reserve(count);
  result.lag_ms.reserve(count);
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    const bool was_sent = times.sent[i] != PhaseTimes::kNotYet;
    // A saturated phase offers only what its window let through; an open
    // loop offers its whole schedule, so an unsent op there has failed.
    if (!from_due && !was_sent) continue;
    ++result.attempted;
    if (from_due && was_sent) {
      result.lag_ms.push_back((times.sent[i] - schedule[i].due) * 1e3);
    }
    if (times.ok[i] == 0) {
      ++result.failed;
      result.all_ms.push_back(inf);
      continue;
    }
    const double from = from_due ? schedule[i].due : times.sent[i];
    const double latency = (times.done[i] - from) * 1e3;
    result.all_ms.push_back(latency);
    result.latency[static_cast<std::size_t>(schedule[i].op.kind)].push_back(
        latency);
  }
}

PhaseResult LoadGen::run_open_loop(const std::vector<Scheduled>& schedule,
                                  double rate, double duration, Model& model) {
  PhaseResult result;
  result.rate = rate;
  result.duration = duration;
  const std::size_t count = schedule.size();

  // Frames are encoded before the clock starts: the generator's job is
  // to hold the schedule, not to measure its own encoder.
  std::uint64_t base = 0;
  std::vector<std::size_t> offset;
  const std::vector<std::uint8_t> bytes = encode_phase(schedule, base, offset);
  PhaseTimes times(count);
  std::size_t next = 0;
  std::size_t completed = 0;
  std::vector<bool> dirty(conns_.size(), false);

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto elapsed = [&] { return seconds_since(start); };
  while (completed < count) {
    const double now = elapsed();
    if (next < count && schedule[next].due <= now) {
      while (next < count && schedule[next].due <= now) {
        const std::size_t c = schedule[next].op.conn;
        conns_[c].out.insert(
            conns_[c].out.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(offset[next]),
            bytes.begin() + static_cast<std::ptrdiff_t>(offset[next + 1]));
        times.sent[next] = now;
        dirty[c] = true;
        ++next;
      }
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        if (dirty[c]) flush(c);
        dirty[c] = false;
      }
    }
    if (now > duration + kDrainSeconds) break;

    // While ops are still due the generator polls without sleeping: a
    // sleeping vCPU can take milliseconds to wake, which would show up as
    // send lag. Once everything is sent it waits for replies in 5 ms naps.
    for (const std::size_t c : poll(next < count ? 0 : 5)) {
      // A dead connection loses its in-flight requests; they count as
      // failed below.
      epoll_.del(conns_[c].fd);
    }
    if (inbox_.empty()) continue;
    completed += take_replies(schedule, base, elapsed(), times, result, model);
  }
  result.wall = elapsed();
  settle(schedule, times, /*from_due=*/true, result);
  return result;
}

PhaseResult LoadGen::run_saturated(const std::vector<Scheduled>& schedule,
                                   std::size_t window, double duration,
                                   Model& model) {
  PhaseResult result;
  result.duration = duration;
  const std::size_t count = schedule.size();
  std::uint64_t base = 0;
  std::vector<std::size_t> offset;
  const std::vector<std::uint8_t> bytes = encode_phase(schedule, base, offset);
  PhaseTimes times(count);

  // Each connection sends its own ops in stream order, so the ops on one
  // id keep their order; due times are ignored.
  std::vector<std::vector<std::size_t>> queue(conns_.size());
  for (std::size_t i = 0; i < count; ++i) {
    queue[schedule[i].op.conn].push_back(i);
  }
  std::vector<std::size_t> cursor(conns_.size(), 0);
  std::vector<std::size_t> in_flight(conns_.size(), 0);
  std::vector<std::size_t> conn_of_reply;
  std::size_t sent = 0;
  std::size_t completed = 0;

  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_since(start); };
  for (;;) {
    const double now = elapsed();
    const bool sending = now < duration;
    if (!sending && completed == sent) break;
    if (now > duration + kDrainSeconds) break;
    if (sending) {
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        bool any = false;
        while (in_flight[c] < window && cursor[c] < queue[c].size()) {
          const std::size_t i = queue[c][cursor[c]++];
          conns_[c].out.insert(
              conns_[c].out.end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(offset[i]),
              bytes.begin() + static_cast<std::ptrdiff_t>(offset[i + 1]));
          times.sent[i] = now;
          ++in_flight[c];
          ++sent;
          any = true;
        }
        if (any) flush(c);
      }
    }
    for (const std::size_t c : poll(0)) epoll_.del(conns_[c].fd);
    if (inbox_.empty()) continue;
    conn_of_reply = inbox_conn_;
    const std::size_t answered =
        take_replies(schedule, base, elapsed(), times, result, model);
    completed += answered;
    for (const std::size_t c : conn_of_reply) --in_flight[c];
  }
  result.wall = elapsed();
  result.rate = static_cast<double>(completed) / result.wall;
  settle(schedule, times, /*from_due=*/false, result);
  return result;
}

// --- model checks -----------------------------------------------------------

void apply_to_model(const Op& op, Model& model) {
  switch (op.kind) {
    case OpKind::kMove:
    case OpKind::kJoin:
      model[op.id] = UserPos{op.x, op.y};
      break;
    case OpKind::kLeave:
      model.erase(op.id);
      break;
    default:
      break;
  }
}

mmph::core::Problem model_problem(const WorkloadSpec& spec,
                                  const Model& model) {
  std::vector<double> coords;
  coords.reserve(model.size() * kDim);
  for (const auto& [id, pos] : model) {
    coords.push_back(pos.x);
    coords.push_back(pos.y);
  }
  const serve::ServiceConfig config = service_config(spec);
  return mmph::core::Problem(mmph::geo::PointSet(kDim, std::move(coords)),
                             std::vector<double>(model.size(), 1.0),
                             config.radius, config.metric, config.shape);
}

FinalCheck final_check(const WorkloadSpec& spec, ServerRig& rig,
                       LoadGen& load, const Model& model) {
  FinalCheck check;
  std::ostringstream why;
  std::vector<std::uint8_t> frame;
  encode_op(Op{}, load.next_request_id(), frame);  // kQuery
  const std::vector<net::ResponseFrame> replies = load.roundtrip(frame, 1);
  const net::ResponseFrame& reply = replies.front();
  if (reply.status != net::WireStatus::kOk || !reply.centers.has_value()) {
    check.detail = std::string("final query answered ") +
                   net::to_string(reply.status);
    return check;
  }
  check.objective = reply.objective;
  check.centers = *reply.centers;

  // The store must hold exactly the model's rows, bit for bit.
  const wal::WalSnapshot store = rig.server->service().wal_snapshot();
  if (store.size() != model.size()) {
    why << "population " << store.size() << " != model " << model.size();
    check.detail = why.str();
    return check;
  }
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto it = model.find(store.ids[i]);
    if (it == model.end() ||
        std::bit_cast<std::uint64_t>(store.coords[i * kDim]) !=
            std::bit_cast<std::uint64_t>(it->second.x) ||
        std::bit_cast<std::uint64_t>(store.coords[i * kDim + 1]) !=
            std::bit_cast<std::uint64_t>(it->second.y) ||
        store.weights[i] != 1.0) {
      why << "store row for id " << store.ids[i] << " differs from the model";
      check.detail = why.str();
      return check;
    }
  }

  // Reply objective vs objective_value on the model. Shard layout changes
  // the summation order of n non-negative terms, which moves the sum by
  // at most about n ulps; the tolerance is 2n + 16 ulps.
  const mmph::core::Problem problem = model_problem(spec, model);
  check.model_objective = mmph::core::objective_value(problem, check.centers);
  const auto a = std::bit_cast<std::int64_t>(check.objective);
  const auto b = std::bit_cast<std::int64_t>(check.model_objective);
  check.ulps = static_cast<double>(a > b ? a - b : b - a);
  check.ulp_tolerance = 2.0 * static_cast<double>(model.size()) + 16.0;
  if (!(check.ulps <= check.ulp_tolerance) || check.objective < 0.0) {
    why.precision(17);
    why << "objective " << check.objective << " != model "
        << check.model_objective << " (" << check.ulps << " ulps)";
    check.detail = why.str();
    return check;
  }
  check.ok = true;
  why << "store == model (" << model.size() << " rows), objective within "
      << check.ulps << " of " << check.ulp_tolerance << " ulps";
  check.detail = why.str();
  return check;
}

RecoveryCheck recovery_check(const WorkloadSpec& spec,
                             const std::string& wal_dir, const Model& model) {
  RecoveryCheck check;
  const auto start = Clock::now();
  const wal::ShardedRecovery recovered =
      wal::recover_sharded(wal_dir, spec.store_shards, kDim);
  check.seconds = seconds_since(start);
  std::ostringstream why;
  if (!recovered.clean || !recovered.dir_found) {
    check.detail = "recovery not clean";
    return check;
  }
  std::size_t rows = 0;
  for (const wal::RecoveryResult& shard : recovered.shards) {
    const wal::WalSnapshot& store = shard.store;
    rows += store.size();
    for (std::size_t i = 0; i < store.size(); ++i) {
      const auto it = model.find(store.ids[i]);
      if (it == model.end() ||
          std::bit_cast<std::uint64_t>(store.coords[i * kDim]) !=
              std::bit_cast<std::uint64_t>(it->second.x) ||
          std::bit_cast<std::uint64_t>(store.coords[i * kDim + 1]) !=
              std::bit_cast<std::uint64_t>(it->second.y) ||
          store.weights[i] != 1.0) {
        why << "recovered row for id " << store.ids[i]
            << " differs from the model";
        check.detail = why.str();
        return check;
      }
    }
  }
  if (rows != model.size()) {
    why << "recovered " << rows << " rows, model has " << model.size();
    check.detail = why.str();
    return check;
  }
  check.ok = true;
  why << "recovered " << rows << " rows bitwise in " << check.seconds << " s";
  check.detail = why.str();
  return check;
}

Quality certify(const WorkloadSpec& spec, const Model& model, double objective,
                const mmph::geo::PointSet& centers,
                mmph::par::ThreadPool& pool) {
  Quality quality;
  quality.objective = objective;
  const mmph::core::Problem problem = model_problem(spec, model);
  // Users plus the served centers as near-weightless users: lazy greedy
  // and the ls bounds then range over a ground set that holds the served
  // placement, whose value can only grow from the added weight.
  mmph::geo::PointSet ground = problem.points();
  std::vector<double> weights = problem.weights();
  for (std::size_t j = 0; j < centers.size(); ++j) {
    ground.push_back(centers[j]);
    weights.push_back(kCenterWeight);
  }
  const mmph::core::Problem extended(std::move(ground), std::move(weights),
                                     problem.radius(), problem.metric(),
                                     problem.reward_shape());
  const mmph::core::Solution reference =
      mmph::core::LazyGreedySolver(&pool).solve(extended, spec.k);
  quality.ls_bound = mmph::ls::certified_upper_bounds(
                         extended, spec.k, reference, extended.points(), &pool)
                         .best();
  // Lemma 1(a) k * max g over a grid, plus Lipschitz slack. The pitch
  // caps the scan at about 2e8 distance evaluations.
  const double side = spec.box + 2.0 * kRadius;
  const double nodes = std::max(64.0, 2e8 / static_cast<double>(model.size()));
  const double pitch = side / std::sqrt(nodes);
  quality.continuous_bound =
      mmph::core::continuous_opt_upper_bound(problem, spec.k, pitch);
  quality.bound = std::min(quality.ls_bound, quality.continuous_bound);
  quality.ratio = ratio(objective, quality.bound);
  return quality;
}

}  // namespace perfbench
