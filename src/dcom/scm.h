// Remote activation: the Directory (the simulation's HKEY_CLASSES_ROOT,
// replicated to every PC like a configured NT registry) plus the SCM
// service process on each node, which receives ACTIVATE packets,
// launches the local server process if it is not running, and forwards
// the activation to that process's ORPC endpoint.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/guid.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace oftt::dcom {

/// Well-known SCM datagram port on every node.
inline constexpr const char* kScmPort = "scm";

class Directory {
 public:
  struct Entry {
    std::string process;    // local-server process name (for launch)
    sim::PortId orpc_port;  // its ORPC endpoint
    std::string name;       // debug name
  };

  static Directory& of(sim::Simulation& sim) { return sim.attachment<Directory>(); }

  void register_class(int node, const Clsid& clsid, Entry entry) {
    std::lock_guard<std::mutex> lock(mu_);
    table_[{node, clsid}] = std::move(entry);
  }
  const Entry* find(int node, const Clsid& clsid) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = table_.find({node, clsid});
    return it == table_.end() ? nullptr : &it->second;
  }

 private:
  // Boot scripts register classes as nodes (re)boot — on worker threads
  // under the parallel engine. std::map node pointers are stable, so a
  // returned Entry* stays valid; the lock only guards the tree shape.
  mutable std::mutex mu_;
  std::map<std::pair<int, Clsid>, Entry> table_;
};

/// Start the SCM service process on a node (idempotent per boot; call it
/// from the node's boot script). Returns the process.
std::shared_ptr<sim::Process> install_scm(sim::Node& node);

}  // namespace oftt::dcom
