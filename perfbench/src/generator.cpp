#include "generator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "mmph/net/wire.hpp"

namespace perfbench {

namespace net = mmph::net;
namespace serve = mmph::serve;

OpGenerator::OpGenerator(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  regions_.resize(kRegionsPerSide * kRegionsPerSide);
  // Hot regions: a seeded permutation assigns Zipf ranks to grid regions.
  mmph::rnd::Rng layout = rng_.fork(1);
  rank_to_region_ = layout.permutation(regions_.size());
  rank_hits_.assign(regions_.size(), 0);

  const std::size_t conns = std::max<std::size_t>(spec_.connections, 1);
  // Join ids continue above the initial population, aligned so that
  // id % connections == owning connection.
  const std::uint64_t base =
      (spec_.n + conns - 1) / conns * conns;
  next_join_id_.resize(conns);
  for (std::size_t c = 0; c < conns; ++c) next_join_id_[c] = base + c;

  initial_.reserve(spec_.n);
  users_.reserve(spec_.n + spec_.n / 4);
  for (std::uint64_t id = 0; id < spec_.n; ++id) {
    const double x = rng_.uniform(0.0, spec_.box);
    const double y = rng_.uniform(0.0, spec_.box);
    place(id, x, y);
    initial_.push_back(serve::UserRecord{id, {x, y}, 1.0});
  }
}

std::size_t OpGenerator::region_of(double x, double y) const {
  const auto cell = [&](double v) {
    const auto c = static_cast<std::size_t>(
        std::max(0.0, v / spec_.box * static_cast<double>(kRegionsPerSide)));
    return std::min(c, kRegionsPerSide - 1);
  };
  return cell(y) * kRegionsPerSide + cell(x);
}

void OpGenerator::place(std::uint64_t id, double x, double y) {
  if (id >= users_.size()) users_.resize(id + 1);
  User& user = users_[id];
  if (user.alive) unplace(id);
  user.x = x;
  user.y = y;
  user.alive = true;
  user.region = region_of(x, y);
  user.slot = regions_[user.region].size();
  regions_[user.region].push_back(id);
  ++live_count_;
}

void OpGenerator::unplace(std::uint64_t id) {
  User& user = users_[id];
  std::vector<std::uint64_t>& members = regions_[user.region];
  const std::uint64_t last = members.back();
  members[user.slot] = last;
  users_[last].slot = user.slot;
  members.pop_back();
  user.alive = false;
  --live_count_;
}

std::uint64_t OpGenerator::pick_hot_user() {
  const std::size_t rank = rng_.zipf(regions_.size(), spec_.zipf_s) - 1;
  ++rank_hits_[rank];  // the drawn rank, before any fallback
  // An emptied region hands the pick to the next rank.
  for (std::size_t step = 0; step < regions_.size(); ++step) {
    const std::size_t r = (rank + step) % regions_.size();
    const std::vector<std::uint64_t>& members = regions_[rank_to_region_[r]];
    if (!members.empty()) return members[rng_.next_u64() % members.size()];
  }
  return 0;  // unreachable while the population is non-empty
}

Op OpGenerator::make_move(std::uint64_t id) {
  const User& user = users_[id];
  const auto reflect = [&](double v) {
    if (v < 0.0) v = -v;
    if (v > spec_.box) v = 2.0 * spec_.box - v;
    return std::clamp(v, 0.0, spec_.box);
  };
  Op op;
  op.kind = OpKind::kMove;
  op.id = id;
  op.x = reflect(user.x + rng_.normal(0.0, spec_.move_sigma));
  op.y = reflect(user.y + rng_.normal(0.0, spec_.move_sigma));
  op.conn = static_cast<std::uint32_t>(id % next_join_id_.size());
  place(id, op.x, op.y);
  return op;
}

Op OpGenerator::make_join() {
  Op op;
  op.kind = OpKind::kJoin;
  op.conn = static_cast<std::uint32_t>(rng_.next_u64() % next_join_id_.size());
  op.id = next_join_id_[op.conn];
  next_join_id_[op.conn] += next_join_id_.size();
  op.x = rng_.uniform(0.0, spec_.box);
  op.y = rng_.uniform(0.0, spec_.box);
  place(op.id, op.x, op.y);
  return op;
}

Op OpGenerator::make_leave() {
  Op op;
  op.kind = OpKind::kLeave;
  op.id = pick_hot_user();
  op.conn = static_cast<std::uint32_t>(op.id % next_join_id_.size());
  unplace(op.id);
  return op;
}

Op OpGenerator::next_move() {
  if (live_count_ == 0) return make_join();
  return make_move(pick_hot_user());
}

Op OpGenerator::next_evaluate() {
  Op op;
  op.kind = OpKind::kEvaluate;
  op.conn = static_cast<std::uint32_t>(rng_.next_u64() % next_join_id_.size());
  op.centers.reserve(spec_.k * kDim);
  for (std::size_t j = 0; j < spec_.k * kDim; ++j) {
    op.centers.push_back(rng_.uniform(0.0, spec_.box));
  }
  return op;
}

Op OpGenerator::next_mix() {
  double u = rng_.uniform();
  if ((u -= spec_.p_move) < 0.0) return next_move();
  if ((u -= spec_.p_join) < 0.0) return make_join();
  if ((u -= spec_.p_leave) < 0.0) {
    // Never empty the population: a leave with one user left joins.
    return live_count_ > 1 ? make_leave() : make_join();
  }
  if ((u -= spec_.p_evaluate) < 0.0) return next_evaluate();
  Op op;
  op.kind = OpKind::kQuery;
  op.conn = static_cast<std::uint32_t>(rng_.next_u64() % next_join_id_.size());
  return op;
}

std::vector<Scheduled> OpGenerator::schedule(double rate, double duration) {
  std::vector<Scheduled> out;
  out.reserve(static_cast<std::size_t>(rate * duration * 1.1) + 64);
  const double stats_period =
      spec_.stats_per_s > 0.0 ? 1.0 / spec_.stats_per_s : 0.0;
  double mix_due = rng_.exponential(rate);
  // Scrapes start half a period in, so they never coincide with the
  // phase edges.
  double stats_due = stats_period > 0.0 ? 0.5 * stats_period : duration;
  for (;;) {
    Scheduled item;
    if (mix_due <= stats_due) {
      if (mix_due >= duration) break;
      item.due = mix_due;
      item.op = next_mix();
      mix_due += rng_.exponential(rate);
    } else {
      if (stats_due >= duration) break;
      item.due = stats_due;
      item.op.kind = OpKind::kStats;
      stats_due += stats_period;
    }
    out.push_back(std::move(item));
  }
  return out;
}

net::RequestFrame to_frame(std::span<const Op> ops, std::uint64_t request_id) {
  net::RequestFrame frame;
  frame.request_id = request_id;
  const Op& head = ops.front();
  switch (head.kind) {
    case OpKind::kQuery:
      frame.type = net::FrameType::kQueryPlacement;
      break;
    case OpKind::kStats:
      frame.type = net::FrameType::kStats;
      break;
    case OpKind::kEvaluate:
      frame.type = net::FrameType::kEvaluate;
      frame.centers = mmph::geo::PointSet(kDim, head.centers);
      break;
    case OpKind::kMove:
    case OpKind::kJoin:
      frame.type = net::FrameType::kAddUsers;
      for (const Op& op : ops) {
        frame.users.push_back(serve::UserRecord{op.id, {op.x, op.y}, 1.0});
      }
      break;
    case OpKind::kLeave:
      frame.type = net::FrameType::kRemoveUsers;
      for (const Op& op : ops) frame.ids.push_back(op.id);
      break;
  }
  return frame;
}

void encode_op(const Op& op, std::uint64_t request_id,
               std::vector<std::uint8_t>& out) {
  net::encode_request(to_frame({&op, 1}, request_id), out);
}

namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::uint64_t schedule_digest(const std::vector<Scheduled>& schedule) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::vector<std::uint8_t> frame;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    frame.clear();
    encode_op(schedule[i].op, i, frame);
    h = fnv1a(h, frame.data(), frame.size());
    h = fnv1a(h, &schedule[i].due, sizeof(double));
  }
  return h;
}

SelfTestReport generator_self_test(const WorkloadSpec& spec,
                                   std::uint64_t seed, double rate) {
  SelfTestReport report;
  std::ostringstream detail;
  const auto fail = [&](const std::string& what) {
    if (report.ok) report.detail = what;
    report.ok = false;
  };

  // Byte-identical stream from the same seed; a different one otherwise.
  const double duration = std::min(20000.0 / rate, 30.0);
  OpGenerator a(spec, seed);
  OpGenerator b(spec, seed);
  OpGenerator c(spec, seed + 1);
  const std::vector<Scheduled> stream = a.schedule(rate, duration);
  const std::uint64_t da = schedule_digest(stream);
  const std::uint64_t db = schedule_digest(b.schedule(rate, duration));
  const std::uint64_t dc = schedule_digest(c.schedule(rate, duration));
  report.digest = da;
  if (da != db) fail("same seed gave different op streams");
  if (da == dc) fail("different seeds gave the same op stream");

  // Mix shares, Poisson mean rate and Zipf skew of that stream; scrapes
  // are evenly spaced and not part of the mix.
  std::size_t counts[6] = {0, 0, 0, 0, 0, 0};
  for (const Scheduled& item : stream) {
    ++counts[static_cast<std::size_t>(item.op.kind)];
  }
  const double samples = static_cast<double>(
      stream.size() - counts[static_cast<std::size_t>(OpKind::kStats)]);
  const double expect[5] = {spec.p_query, spec.p_evaluate, spec.p_move,
                            spec.p_join, spec.p_leave};
  for (std::size_t kind = 0; kind < 5; ++kind) {
    const double share = static_cast<double>(counts[kind]) / samples;
    const double p = expect[kind];
    // Five binomial standard deviations, floored for shares near 0 or 1.
    const double tol = std::max(5.0 * std::sqrt(p * (1.0 - p) / samples), 1e-3);
    report.mix_error = std::max(report.mix_error, std::abs(share - p));
    if (std::abs(share - p) > tol) {
      fail(std::string("op mix share off for ") +
           op_name(static_cast<OpKind>(kind)));
    }
  }
  // The Poisson count over the stream has standard deviation sqrt(mean).
  const double expected = rate * duration;
  report.rate_error = std::abs(samples / expected - 1.0);
  if (report.rate_error > 5.0 / std::sqrt(expected)) {
    fail("Poisson mean rate off");
  }
  std::uint64_t picks = 0;
  for (const std::uint64_t hits : a.rank_hits()) picks += hits;
  if (picks >= 1000 && spec.zipf_s > 0.0) {
    double h = 0.0;
    const std::size_t regions = a.rank_hits().size();
    for (std::size_t r = 0; r < regions; ++r) {
      h += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
    }
    const double p = 1.0 / h;
    report.hot_share =
        static_cast<double>(a.rank_hits()[0]) / static_cast<double>(picks);
    const double tol = 5.0 * std::sqrt(p * (1.0 - p) / static_cast<double>(picks));
    if (std::abs(report.hot_share - p) > tol) fail("Zipf skew off");
  }
  if (report.ok) {
    detail << "digest ok, mix error " << report.mix_error << ", rate error "
           << report.rate_error << ", hot-region share " << report.hot_share;
    report.detail = detail.str();
  }
  return report;
}

}  // namespace perfbench
