// Node: a simulated PC. Hosts processes, owns the datagram port table,
// and is the unit of the paper's failure classes (a) node failure and
// (b) NT crash / blue screen of death.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/process.h"

namespace oftt::sim {

class Simulation;

enum class NodeFailureKind { kNone, kPowerFailure, kOsCrash };

class Node {
 public:
  using BootScript = std::function<void(Node&)>;

  Node(Simulation& sim, std::string name, int id);

  const std::string& name() const { return name_; }
  int id() const { return id_; }
  Simulation& sim() { return sim_; }
  bool up() const { return up_; }
  NodeFailureKind last_failure() const { return last_failure_; }
  int boot_count() const { return boot_count_; }

  /// Install the script that (re-)creates this node's processes at boot.
  void set_boot_script(BootScript script) { boot_script_ = std::move(script); }

  /// Power the node on: marks it up and runs the boot script.
  void boot();

  /// Failure class (a): node/power failure. Everything dies instantly;
  /// the node stays down until reboot()/boot().
  void crash();

  /// Failure class (b): NT crash (blue screen). Identical visible effect
  /// — distinguished for reporting, and typically followed by an
  /// automatic reboot after `reboot_after` unless kNever.
  void os_crash(SimTime reboot_after = kNever);

  /// Schedule boot() after `delay` (models POST + NT startup time).
  void reboot(SimTime delay);

  /// Start a process; remembers the factory so restart_process() can
  /// re-create it (local recovery of a crashed application).
  std::shared_ptr<Process> start_process(const std::string& name, Process::Factory factory);

  /// Kill (if alive) and re-create a process from its remembered factory.
  std::shared_ptr<Process> restart_process(const std::string& name);

  std::shared_ptr<Process> find_process(const std::string& name);

  // --- datagram plumbing (used by Strand/Network, not applications) ---
  /// Binding a bound port replaces its handler.
  void bind_port(PortId port, LifeRef life, MessageHandler h);
  void unbind_port(PortId port);
  bool port_bound(PortId port) const { return port_index(port) < ports_.size(); }
  void deliver(const Datagram& d);

  /// Deterministic per-node counters for the parallel engine: event
  /// tie-break keys, bus/log merge keys, and the node's epoch stream.
  /// Each is only ever advanced by the thread currently executing this
  /// node — its shard worker inside a window, the coordinator at
  /// barriers — so the sequences are pure functions of the node's own
  /// deterministic history, independent of the worker count.
  struct PdesCounters {
    std::uint64_t sched_seq = 0;
    std::uint64_t pub_seq = 0;
    std::uint64_t log_seq = 0;
    std::uint64_t epoch = 0;
  };
  PdesCounters& pdes() { return pdes_; }

 private:
  struct PortEntry {
    PortId port;
    LifeRef life;
    /// Boxed, so the table may move while the handler runs.
    std::unique_ptr<MessageHandler> handler;
  };
  /// Index of `port`'s entry, or ports_.size() when it is unbound.
  std::size_t port_index(PortId port) const;
  /// Drop a handler that was unbound or replaced. While a delivery runs
  /// it may be the running handler, so it is kept until deliver returns.
  void retire(std::unique_ptr<MessageHandler> handler);
  void clear_ports();
  void kill_all_processes(const std::string& reason);
  void publish_down(const char* why);

  Simulation& sim_;
  std::string name_;
  int id_;
  bool up_ = false;
  int boot_count_ = 0;
  NodeFailureKind last_failure_ = NodeFailureKind::kNone;
  BootScript boot_script_;
  int next_pid_ = 1;

  PdesCounters pdes_;
  // A node binds a handful of ports: a flat table scanned by id beats
  // any tree or hash here.
  std::vector<PortEntry> ports_;
  bool delivering_ = false;
  std::vector<std::unique_ptr<MessageHandler>> retired_;
  std::map<std::string, std::shared_ptr<Process>> processes_;
  std::map<std::string, Process::Factory> factories_;
  // Pre-resolved delivery-path metric handles (shared names across all
  // nodes — they address the same registry cells).
  obs::Counter ctr_deliver_down_;
  obs::Counter ctr_deliver_no_port_;
  obs::Counter ctr_deliver_dead_strand_;
};

}  // namespace oftt::sim
