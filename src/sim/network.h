// Network: one Ethernet segment of Fig. 1. A simulation can hold several
// (the paper pairs redundant nodes "via one or dual Ethernet networks"),
// each with independent latency, loss, link failures and partitions.
#pragma once

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/message.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace oftt::sim {

class Simulation;

/// First network both nodes are attached to, or 0 for loopback (a == b),
/// or -1 when the nodes share no segment.
int pick_network(Simulation& sim, int a, int b);

class Network {
 public:
  Network(Simulation& sim, std::string name, int id);

  const std::string& name() const { return name_; }
  int id() const { return id_; }

  /// Attach a node (id >= 0; a negative id throws). Idempotent.
  void attach(int node_id);
  /// Detach a node; a node that was never attached is a no-op.
  void detach(int node_id);
  bool attached(int node_id) const {
    return node_id >= 0 && static_cast<std::size_t>(node_id) < attached_.size() &&
           attached_[static_cast<std::size_t>(node_id)] != 0;
  }

  /// Delivery delay is uniform in [min, max]. An inverted range throws
  /// (it used to clamp silently, hiding swapped-argument bugs); the
  /// parallel engine additionally refuses to run while any network has
  /// min == 0, since the minimum latency is its conservative lookahead.
  void set_latency(SimTime min, SimTime max);
  SimTime latency_min() const { return latency_min_; }
  SimTime latency_max() const { return latency_max_; }
  /// Serialization delay: bytes/second on the wire; 0 disables (the
  /// default keeps small control traffic latency-dominated, but large
  /// checkpoint images should pay for their size). 10BASE-T Ethernet,
  /// the paper's era, is ~1.25e6 B/s.
  void set_bandwidth(double bytes_per_second) { bandwidth_ = bytes_per_second; }
  double bandwidth() const { return bandwidth_; }
  /// Independent per-datagram loss probability.
  void set_loss(double p) { loss_ = p; }
  double loss() const { return loss_; }

  /// Gilbert-Elliott two-state burst loss, layered on top of the
  /// independent loss above (both can drop a datagram). The channel
  /// alternates between a Good and a Bad state; the state chain advances
  /// one step per send attempt:
  ///
  ///   P(Good -> Bad) = p_enter      loss in Good = loss_good
  ///   P(Bad -> Good) = p_exit       loss in Bad  = loss_bad
  ///
  /// Mean burst length is 1/p_exit sends — the correlated-drop pattern
  /// (switch buffer overruns, interference bursts) that an independent
  /// per-datagram coin can never express. clear_burst_loss() restores
  /// the memoryless channel (and resets the state to Good).
  void set_burst_loss(double p_enter, double p_exit, double loss_good, double loss_bad);
  void clear_burst_loss();
  bool burst_loss_enabled() const { return burst_.enabled; }
  /// Current chain state (tests/monitor introspection): true = Bad.
  bool burst_state_bad() const { return burst_.bad; }
  /// Independent per-datagram duplication probability: with probability p
  /// a surviving datagram is delivered twice, each copy with its own
  /// latency draw (so the duplicate may arrive first). Real switches do
  /// this during spanning-tree reconvergence; protocols must tolerate it.
  void set_duplicate(double p) { dup_ = p; }
  /// Take the whole segment down / up (cable pull at the switch).
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }

  /// Per-pair link control (cable pull between two specific nodes).
  void set_link(int a, int b, bool up);
  bool link_up(int a, int b) const;

  /// Partition into groups: traffic crosses only within a group.
  void partition(std::vector<std::vector<int>> groups);
  void heal();

  /// Attempt to send; returns false only for immediately-detectable
  /// refusal (sender not attached). Loss/partition drops are silent.
  bool send(Datagram d);

  /// Parallel-engine hook, called at every run entry: materialize one
  /// decorrelated rng substream (and burst-chain state cell) per source
  /// node, forked by name from the seed. Sends executing on worker
  /// threads then draw from their source node's own stream, so the draw
  /// sequence each node sees is a pure function of that node's history
  /// — identical for any worker count (and any partition).
  void prepare_parallel(std::size_t node_count);

  // Introspection for tests/benches.
  std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  /// Total payload bytes offered to the segment (including datagrams
  /// later lost) — the traffic-cost figure the detection benchmarks
  /// compare across protocols.
  std::uint64_t bytes_sent() const { return bytes_sent_.load(std::memory_order_relaxed); }
  std::uint64_t delivered() const { return delivered_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  std::uint64_t duplicated() const { return duplicated_.load(std::memory_order_relaxed); }
  std::uint64_t burst_dropped() const { return burst_dropped_.load(std::memory_order_relaxed); }

 private:
  bool reachable(int a, int b) const;
  /// Advance a Gilbert-Elliott chain one step and decide whether this
  /// send attempt is swallowed by the burst channel. The chain state is
  /// the shared channel's in sequential mode, the per-source-node cell
  /// in parallel mode.
  bool burst_drop(Rng& rng, bool& bad);

  Simulation& sim_;
  std::string name_;
  int id_;
  // Attachment flag per node id: every send tests both ends, so it is
  // an index, not a tree lookup.
  std::vector<char> attached_;
  SimTime latency_min_ = microseconds(100);
  SimTime latency_max_ = microseconds(300);
  double bandwidth_ = 0.0;
  double loss_ = 0.0;
  double dup_ = 0.0;
  struct BurstLoss {
    bool enabled = false;
    bool bad = false;  // current chain state
    double p_enter = 0.0, p_exit = 1.0;
    double loss_good = 0.0, loss_bad = 1.0;
  } burst_;
  bool down_ = false;
  std::set<std::pair<int, int>> dead_links_;
  std::map<int, int> partition_group_;  // node -> group (empty = healed)
  Rng rng_;
  // Parallel-mode per-source-node draw streams and burst-chain states
  // (see prepare_parallel). Only sized when a parallel engine runs;
  // sequential mode keeps the shared rng_/burst_.bad exactly as before
  // so every pinned hash is untouched.
  std::vector<Rng> node_rng_;
  std::vector<char> node_burst_bad_;
  // Counters are relaxed atomics: workers on different source nodes
  // send (and deliver) concurrently. Reads are whole-run sums.
  std::atomic<std::uint64_t> sent_{0}, delivered_{0}, dropped_{0}, duplicated_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> burst_dropped_{0};
  // Pre-resolved metric handles: the per-datagram path must not do
  // string-keyed map lookups.
  obs::Counter ctr_unreachable_;
  obs::Counter ctr_lost_;
  obs::Counter ctr_duplicated_;
  obs::Histogram payload_bytes_;
};

}  // namespace oftt::sim
