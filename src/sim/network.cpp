#include "sim/network.h"

#include <algorithm>
#include <stdexcept>

#include "common/logging.h"
#include "common/strings.h"
#include "sim/parallel_engine.h"
#include "sim/simulation.h"

namespace oftt::sim {

int pick_network(Simulation& sim, int a, int b) {
  if (a == b) return 0;  // loopback; Process::send short-circuits anyway
  for (std::size_t i = 0; i < sim.network_count(); ++i) {
    auto& net = sim.network(static_cast<int>(i));
    if (net.attached(a) && net.attached(b)) return static_cast<int>(i);
  }
  return -1;
}

Network::Network(Simulation& sim, std::string name, int id)
    : sim_(sim),
      name_(std::move(name)),
      id_(id),
      rng_(sim.fork_rng(cat("net:", name_))),
      ctr_unreachable_(sim.telemetry().metrics().counter(cat(name_, ".unreachable"))),
      ctr_lost_(sim.telemetry().metrics().counter(cat(name_, ".lost"))),
      ctr_duplicated_(sim.telemetry().metrics().counter(cat(name_, ".duplicated"))),
      payload_bytes_(sim.telemetry().metrics().histogram(
          "net.payload_bytes", {64, 256, 1024, 4096, 16384, 65536, 262144, 1048576})) {}

void Network::attach(int node_id) {
  if (node_id < 0) {
    throw std::invalid_argument(
        cat("Network::attach('", name_, "'): negative node id ", node_id));
  }
  const auto i = static_cast<std::size_t>(node_id);
  if (attached_.size() <= i) attached_.resize(i + 1, 0);
  attached_[i] = 1;
}

void Network::detach(int node_id) {
  if (attached(node_id)) attached_[static_cast<std::size_t>(node_id)] = 0;
}

void Network::set_latency(SimTime min, SimTime max) {
  if (max < min) {
    throw std::invalid_argument(cat("Network::set_latency('", name_, "'): max (", max,
                                    " ns) < min (", min, " ns) — arguments swapped?"));
  }
  if (min < 0) {
    throw std::invalid_argument(
        cat("Network::set_latency('", name_, "'): negative min (", min, " ns)"));
  }
  latency_min_ = min;
  latency_max_ = max;
}

void Network::prepare_parallel(std::size_t node_count) {
  while (node_rng_.size() < node_count) {
    node_rng_.push_back(sim_.fork_rng(cat("net:", name_, "#", node_rng_.size())));
  }
  if (node_burst_bad_.size() < node_count) node_burst_bad_.resize(node_count, 0);
}

void Network::set_link(int a, int b, bool up) {
  auto key = std::minmax(a, b);
  if (up) {
    dead_links_.erase({key.first, key.second});
  } else {
    dead_links_.insert({key.first, key.second});
  }
}

bool Network::link_up(int a, int b) const {
  auto key = std::minmax(a, b);
  return dead_links_.count({key.first, key.second}) == 0;
}

void Network::set_burst_loss(double p_enter, double p_exit, double loss_good, double loss_bad) {
  burst_.enabled = true;
  burst_.p_enter = p_enter;
  burst_.p_exit = p_exit <= 0.0 ? 1.0 : p_exit;  // a burst must be escapable
  burst_.loss_good = loss_good;
  burst_.loss_bad = loss_bad;
}

void Network::clear_burst_loss() {
  burst_ = BurstLoss{};
  std::fill(node_burst_bad_.begin(), node_burst_bad_.end(), 0);
}

bool Network::burst_drop(Rng& rng, bool& bad) {
  // One chain step per send attempt: transition draw first, then the
  // state's loss draw. Disabled channels make no rng draws at all, so
  // enabling burst loss mid-run never perturbs earlier history.
  if (bad) {
    if (rng.chance(burst_.p_exit)) bad = false;
  } else {
    if (rng.chance(burst_.p_enter)) bad = true;
  }
  double loss = bad ? burst_.loss_bad : burst_.loss_good;
  return loss > 0.0 && rng.chance(loss);
}

void Network::partition(std::vector<std::vector<int>> groups) {
  partition_group_.clear();
  int g = 0;
  for (const auto& group : groups) {
    for (int node : group) partition_group_[node] = g;
    ++g;
  }
}

void Network::heal() {
  partition_group_.clear();
  dead_links_.clear();
  down_ = false;
}

bool Network::reachable(int a, int b) const {
  if (down_) return false;
  if (!dead_links_.empty() && !link_up(a, b)) return false;
  if (!partition_group_.empty()) {
    auto ia = partition_group_.find(a);
    auto ib = partition_group_.find(b);
    // Nodes not named in the partition spec are isolated from everyone.
    if (ia == partition_group_.end() || ib == partition_group_.end()) return false;
    if (ia->second != ib->second) return false;
  }
  return true;
}

bool Network::send(Datagram d) {
  if (!attached(d.src_node)) return false;
  sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(d.payload.size(), std::memory_order_relaxed);
  payload_bytes_.record(static_cast<std::int64_t>(d.payload.size()));
  if (!attached(d.dst_node) || !reachable(d.src_node, d.dst_node)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    ctr_unreachable_.inc();
    return true;  // datagram silently lost in the fabric
  }
  // Parallel mode draws from the source node's own substream (and
  // advances the source node's burst chain) so concurrent sends from
  // different nodes never race — and never perturb — each other's draw
  // sequences. The draw *order within one send* is identical in both
  // modes: loss, burst transition + state loss, duplication, latency
  // per copy.
  ParallelEngine* engine = sim_.parallel_engine();
  const bool parallel = engine != nullptr;
  const auto src = static_cast<std::size_t>(d.src_node);
  if (parallel && node_rng_.size() <= src) prepare_parallel(sim_.node_count());
  Rng& rng = parallel ? node_rng_[src] : rng_;
  if (loss_ > 0.0 && rng.chance(loss_)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    ctr_lost_.inc();
    return true;
  }
  if (burst_.enabled) {
    bool drop;
    if (parallel) {
      bool bad = node_burst_bad_[src] != 0;
      drop = burst_drop(rng, bad);
      node_burst_bad_[src] = bad ? 1 : 0;
    } else {
      drop = burst_drop(rng, burst_.bad);
    }
    if (drop) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      burst_dropped_.fetch_add(1, std::memory_order_relaxed);
      ctr_lost_.inc();
      return true;
    }
  }
  int copies = 1;
  if (dup_ > 0.0 && rng.chance(dup_)) {
    ++copies;
    duplicated_.fetch_add(1, std::memory_order_relaxed);
    ctr_duplicated_.inc();
  }
  SimTime serialization = 0;
  if (bandwidth_ > 0.0) {
    serialization =
        static_cast<SimTime>(static_cast<double>(d.payload.size()) / bandwidth_ * 1e9);
  }
  const int src_node = d.src_node;
  const int dst = d.dst_node;
  for (int i = 0; i < copies; ++i) {
    // Each copy draws its own latency, so a duplicate can overtake the
    // original — the nastier of the two orderings for receivers.
    SimTime latency = latency_min_ == latency_max_
                          ? latency_min_
                          : latency_min_ + rng.uniform(0, latency_max_ - latency_min_);
    latency += serialization;
    // The last (usually the only) delivery takes the datagram itself; a
    // duplicate gets its own copy.
    Datagram dgram = i + 1 < copies ? d : std::move(d);
    auto deliver = [this, dst, dgram = std::move(dgram)] {
      delivered_.fetch_add(1, std::memory_order_relaxed);
      sim_.node(dst).deliver(dgram);
    };
    static_assert(InlineFn::fits_inline<decltype(deliver)>(),
                  "a datagram delivery must not heap-allocate its event closure");
    if (parallel) {
      // Cross-shard delivery: keyed with the sender's counter at send
      // time, routed through the engine (mailbox if the destination
      // lives on another worker).
      engine->post_send(src_node, dst, sim_.now() + latency, std::move(deliver));
    } else {
      sim_.schedule_after(latency, std::move(deliver));
    }
  }
  return true;
}

}  // namespace oftt::sim
