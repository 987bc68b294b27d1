#include "sim/process.h"

#include "common/logging.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace oftt::sim {

Strand::Strand(Process& process, std::string name)
    : process_(process), name_(std::move(name)), life_(LifeRef::make()) {}

EventHandle Strand::schedule_after(SimTime delay, EventFn fn) {
  Simulation& sim = process_.sim();
  return sim.schedule_on(sim.now() + delay, life_, std::move(fn), process_.node().id());
}

void Strand::bind(PortId port, MessageHandler handler) {
  process_.node().bind_port(port, life_, std::move(handler));
  bound_ports_.push_back(port);
}

void Strand::unbind(PortId port) {
  process_.node().unbind_port(port);
  std::erase(bound_ports_, port);
}

Process::Process(Node& node, std::string name, int pid)
    : node_(node), name_(std::move(name)), pid_(pid) {
  main_ = std::make_unique<Strand>(*this, "main");
}

Process::~Process() {
  // Destroying a live Process (e.g. simulation teardown) must still
  // release its ports; kill() is idempotent on a dead one.
  if (main_ && main_->alive()) kill("teardown");
}

Simulation& Process::sim() { return node_.sim(); }

Strand& Process::create_strand(const std::string& name) {
  extra_strands_.push_back(std::make_unique<Strand>(*this, name));
  return *extra_strands_.back();
}

Strand* Process::find_strand(const std::string& name) {
  if (name == "main") return main_.get();
  for (auto& s : extra_strands_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

bool Process::send(int network_id, int dst_node, PortId dst_port, Buffer payload,
                   PortId src_port) {
  if (!alive() || !node_.up()) return false;
  Datagram d;
  d.network_id = network_id;
  d.src_node = node_.id();
  d.src_port = src_port;
  d.dst_node = dst_node;
  d.dst_port = dst_port;
  d.payload = std::move(payload);
  if (dst_node == node_.id()) {
    // Loopback: local RPC never touches the wire.
    Node* node = &node_;
    sim().schedule_after(microseconds(10),
                         [node, dgram = std::move(d)] { node->deliver(dgram); });
    return true;
  }
  return sim().network(network_id).send(std::move(d));
}

void Process::kill(const std::string& reason) {
  if (!main_->alive()) return;
  OFTT_LOG_DEBUG("sim/process", node_.name(), "/", name_, " killed: ", reason);
  auto dead = [this](Strand& s) {
    s.life_->alive = false;
    for (PortId port : s.bound_ports_) node_.unbind_port(port);
    s.bound_ports_.clear();
  };
  dead(*main_);
  for (auto& s : extra_strands_) dead(*s);
  // Destroy application objects in reverse construction order; their
  // destructors must not schedule events (all strands are dead anyway).
  for (auto it = components_.rbegin(); it != components_.rend(); ++it) it->reset();
  components_.clear();
  attachments_.clear();
  auto listeners = std::move(exit_listeners_);
  exit_listeners_.clear();
  for (auto& l : listeners) l(reason);
}

void Process::exit_self(const std::string& reason) {
  if (exiting_ || !main_->alive()) return;
  exiting_ = true;
  // Defer to a global event so no destructor runs under our own frame.
  Node* node = &node_;
  std::string pname = name_;
  sim().schedule_after(0, [node, pname, reason] {
    if (auto p = node->find_process(pname)) p->kill(reason);
  });
}

void Process::hang_all() {
  main_->hang();
  for (auto& s : extra_strands_) s->hang();
}

}  // namespace oftt::sim
