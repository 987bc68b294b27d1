// Simulation: the deterministic discrete-event kernel everything runs
// on. By default single-threaded; virtual time only advances between
// events, so a given seed replays the identical history — which is how
// we reproduce the paper's §3.2 startup race on demand instead of by
// accident. set_engine(EngineKind::kParallel) swaps in the conservative
// parallel engine (src/sim/parallel_engine.h), which executes the same
// history across worker threads — byte-identical for any worker count,
// at the cost of per-node (rather than globally shared) rng substreams.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "obs/telemetry.h"
#include "sim/event_queue.h"
#include "sim/exec_context.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/partition.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace oftt::sim {

class ParallelEngine;

enum class EngineKind { kSequential, kParallel };

/// Per-run engine selection. Default sequential: every pinned
/// kernel/chaos-corpus hash predates the parallel engine and must stay
/// untouched.
struct EngineConfig {
  EngineKind kind = EngineKind::kSequential;
  /// Worker threads (>= 1). One worker still runs the full parallel
  /// machinery — shard queues, keyed ordering, barrier windows — and is
  /// the sequential-order reference the W>1 hashes are diffed against.
  int workers = 2;
  PartitionStrategy partition = PartitionStrategy::kRoundRobin;
  /// Per (src shard, dst shard) SPSC ring capacity; overflow spills
  /// (counted, never blocking).
  std::size_t mailbox_capacity = 1024;
};

/// Overlay OFTT_ENGINE ("sequential" | "parallel") and
/// OFTT_ENGINE_WORKERS onto `def`. Harness/test opt-in only — a
/// Simulation never reads the environment by itself (pinned sequential
/// hashes must not depend on ambient state). The CI parallel lane sets
/// these to push an extra worker count through the pdes suites.
EngineConfig engine_config_from_env(EngineConfig def = {});

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const {
    // Under the parallel engine each worker tracks its own clock in a
    // thread-local context; the shared now_ only moves at barriers.
    const pdes::ExecContext* c = pdes::tl_ctx;
    return (c != nullptr && c->sim == this) ? c->now : now_;
  }
  Rng& rng() { return rng_; }
  Rng fork_rng(std::string_view name) const { return rng_.fork(name); }

  /// Select the engine for this simulation. Must be called before any
  /// node, network or event exists (the parallel engine owns the shard
  /// queues events are routed into); throws std::logic_error otherwise.
  void set_engine(const EngineConfig& config);
  const EngineConfig& engine_config() const { return engine_cfg_; }
  /// Non-null iff running under EngineKind::kParallel.
  ParallelEngine* parallel_engine() { return engine_.get(); }

  /// Monotonic epoch counter, never reused within a simulation. Transport
  /// sessions stamp their frames with one so a peer that reboots (new
  /// endpoint instance, new epoch) can never confuse stale traffic from a
  /// previous life with the current conversation. Under the parallel
  /// engine, epochs requested from a node's execution context come from
  /// that node's own stream (high bits = node id + 1) so the values are
  /// independent of worker interleaving; both streams are monotonic per
  /// endpoint, which is all the protocol compares.
  std::uint64_t next_epoch();

  /// Global (always-fires) scheduling; used by fault injectors and
  /// harnesses. Application code schedules through its Strand instead.
  EventHandle schedule_at(SimTime at, EventFn&& fn);
  EventHandle schedule_after(SimTime delay, EventFn&& fn) {
    return schedule_at(now() + delay, std::move(fn));
  }
  void cancel(EventHandle& h) { EventQueue::cancel_owned(h); }

  Node& add_node(const std::string& name);
  Node& node(int id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  std::size_t node_count() const { return nodes_.size(); }

  /// Intern a datagram port name: one name, one id, for the life of
  /// this simulation; "" is PortId{}. Thread-safe, because the parallel
  /// engine boots nodes (and so binds ports) on its workers. Resolve a
  /// name once, where it is bound or stored, never per datagram.
  PortId port(std::string_view name);
  /// The name `id` was interned from (log lines, obs events).
  std::string port_name(PortId id) const;

  Network& add_network(const std::string& name);
  Network& network(int id) { return *networks_.at(static_cast<std::size_t>(id)); }
  std::size_t network_count() const { return networks_.size(); }

  /// Run one event; false when the queue is empty.
  bool step();
  /// Run events with time <= t, then set now to t.
  void run_until(SimTime t);
  void run_for(SimTime d) { run_until(now_ + d); }
  /// Drain the queue (bounded by max_events as a runaway guard).
  void run(std::uint64_t max_events = 100'000'000);

  /// The telemetry subsystem: event bus, metrics registry, failover
  /// spans. Hot paths resolve metric handles once at construction; the
  /// string-keyed reads below are for tests and benches only.
  obs::Telemetry& telemetry() { return telemetry_; }
  const obs::Telemetry& telemetry() const { return telemetry_; }

  std::uint64_t counter_value(const std::string& name) const {
    return telemetry_.metrics().counter_value(name);
  }

  // Internal: Strand scheduling funnels through here. `node` is the
  // strand's home node; the parallel engine routes the event to that
  // node's shard and keys it from the node's deterministic counter
  // (sequential mode ignores it).
  EventHandle schedule_on(SimTime at, LifeRef life, EventFn&& fn, int node = -1);

  /// Per-simulation typed singletons (e.g. the DCOM class directory —
  /// the moral equivalent of HKEY_LOCAL_MACHINE replicated to all PCs).
  /// Resolution is mutex-guarded: under the parallel engine, workers on
  /// different nodes may race to attach the same singleton (DiskStore).
  template <typename T, typename... Args>
  T& attachment(Args&&... args) {
    std::lock_guard<std::mutex> lock(attachments_mu_);
    auto it = attachments_.find(std::type_index(typeid(T)));
    if (it == attachments_.end()) {
      auto obj = std::make_shared<T>(std::forward<Args>(args)...);
      T& ref = *obj;
      attachments_.emplace(std::type_index(typeid(T)), std::move(obj));
      return ref;
    }
    return *static_cast<T*>(it->second.get());
  }

 private:
  friend class ParallelEngine;

  SimTime now_ = 0;
  std::uint64_t next_epoch_ = 1;
  // Declared first so it outlives nodes/networks during teardown (their
  // metric handles point into the registry).
  obs::Telemetry telemetry_;
  EventQueue queue_;
  Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Network>> networks_;
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  mutable std::mutex ports_mu_;
  std::unordered_map<std::string, PortId, NameHash, std::equal_to<>> port_ids_;
  std::vector<std::string> port_names_{""};  // index = PortId::value()
  std::mutex attachments_mu_;
  std::map<std::type_index, std::shared_ptr<void>> attachments_;
  EngineConfig engine_cfg_;
  // Declared last: destroying the engine joins its worker threads
  // before nodes/networks/queue go away.
  std::unique_ptr<ParallelEngine> engine_;
};

}  // namespace oftt::sim
