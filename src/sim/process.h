// Process and Strand: a simulated NT process and its schedulable
// execution contexts ("threads").
//
// A Strand is the granularity of both scheduling and hanging: the
// paper's FTIM runs as its own thread inside the application's address
// space, so an application-thread hang must leave the FTIM strand
// running (heartbeats continue; only the watchdog catches the hang).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <typeindex>
#include <vector>

#include "sim/event_queue.h"
#include "sim/message.h"
#include "sim/time.h"

namespace oftt::sim {

class Node;
class Simulation;
class Process;

// StrandLife (the shared liveness token checked at event dispatch)
// lives in event_queue.h: the kernel stores it natively in each slot.

class Strand {
 public:
  Strand(Process& process, std::string name);

  const std::string& name() const { return name_; }
  Process& process() { return process_; }
  bool alive() const { return life_->alive; }
  bool hung() const { return life_->hung; }

  /// Schedule `fn` to run on this strand after `delay`. The callback is
  /// silently discarded if the strand has died or hung by fire time.
  EventHandle schedule_after(SimTime delay, EventFn fn);

  /// Bind a datagram port; the handler executes on this strand.
  void bind(PortId port, MessageHandler handler);
  void unbind(PortId port);

  void hang() { life_->hung = true; }
  void unhang() { life_->hung = false; }

  const LifeRef& life() const { return life_; }

 private:
  friend class Process;
  Process& process_;
  std::string name_;
  LifeRef life_;
  std::vector<PortId> bound_ports_;
};

class Process {
 public:
  using Factory = std::function<void(Process&)>;
  using ExitListener = std::function<void(const std::string& reason)>;

  Process(Node& node, std::string name, int pid);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  int pid() const { return pid_; }
  Node& node() { return node_; }
  const Node& node() const { return node_; }
  Simulation& sim();

  bool alive() const { return main_->alive(); }

  /// The implicit first thread of the process.
  Strand& main_strand() { return *main_; }
  /// Spawn an additional thread-like context (e.g. the FTIM thread).
  Strand& create_strand(const std::string& name);
  Strand* find_strand(const std::string& name);

  // Convenience passthroughs operating on the main strand.
  EventHandle schedule_after(SimTime delay, EventFn fn) {
    return main_->schedule_after(delay, std::move(fn));
  }
  void bind(PortId port, MessageHandler handler) {
    main_->bind(port, std::move(handler));
  }

  /// Send a datagram from this process over the given network.
  /// Returns false if the network refused immediately (node detached or
  /// local node down); in-flight loss is invisible to the sender.
  bool send(int network_id, int dst_node, PortId dst_port, Buffer payload,
            PortId src_port = {});

  /// Terminate the process now: all strands die, pending events are
  /// tombstoned, ports unbound, components destroyed (reverse order).
  /// Must not be called from one of this process's own strands — use
  /// exit_self() there.
  void kill(const std::string& reason);

  /// Deferred self-termination, safe to call from the process's own code.
  void exit_self(const std::string& reason);

  /// Hang every strand (full-process hang; a stuck app image).
  void hang_all();

  void on_exit(ExitListener fn) { exit_listeners_.push_back(std::move(fn)); }

  /// Keep an application object alive for the life of the process.
  void add_component(std::shared_ptr<void> component) {
    components_.push_back(std::move(component));
  }

  /// Per-process typed singleton (e.g. the COM runtime attaches here).
  template <typename T, typename... Args>
  T& attachment(Args&&... args) {
    auto it = attachments_.find(std::type_index(typeid(T)));
    if (it == attachments_.end()) {
      auto obj = std::make_shared<T>(std::forward<Args>(args)...);
      T& ref = *obj;
      attachments_.emplace(std::type_index(typeid(T)), std::move(obj));
      return ref;
    }
    return *static_cast<T*>(it->second.get());
  }

  template <typename T>
  T* find_attachment() {
    auto it = attachments_.find(std::type_index(typeid(T)));
    return it == attachments_.end() ? nullptr : static_cast<T*>(it->second.get());
  }

 private:
  friend class Strand;
  Node& node_;
  std::string name_;
  int pid_;
  std::unique_ptr<Strand> main_;
  std::vector<std::unique_ptr<Strand>> extra_strands_;
  std::vector<std::shared_ptr<void>> components_;
  std::map<std::type_index, std::shared_ptr<void>> attachments_;
  std::vector<ExitListener> exit_listeners_;
  bool exiting_ = false;
};

}  // namespace oftt::sim
