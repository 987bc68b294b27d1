#include "sim/node.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "sim/simulation.h"

namespace oftt::sim {

Node::Node(Simulation& sim, std::string name, int id)
    : sim_(sim),
      name_(std::move(name)),
      id_(id),
      ctr_deliver_down_(sim.telemetry().metrics().counter("node.deliver_down")),
      ctr_deliver_no_port_(sim.telemetry().metrics().counter("node.deliver_no_port")),
      ctr_deliver_dead_strand_(sim.telemetry().metrics().counter("node.deliver_dead_strand")) {}

void Node::boot() {
  if (up_) return;
  up_ = true;
  ++boot_count_;
  last_failure_ = NodeFailureKind::kNone;
  OFTT_LOG_INFO("sim/node", name_, " booted (boot #", boot_count_, ")");
  {
    obs::Event e;
    e.kind = obs::EventKind::kNodeUp;
    e.node = id_;
    e.a = static_cast<std::uint64_t>(boot_count_);
    sim_.telemetry().bus().publish(std::move(e));
  }
  if (boot_script_) boot_script_(*this);
}

void Node::crash() {
  if (!up_) return;
  OFTT_LOG_WARN("sim/node", name_, " POWER FAILURE");
  last_failure_ = NodeFailureKind::kPowerFailure;
  publish_down("power failure");
  kill_all_processes("node power failure");
  up_ = false;
  clear_ports();
}

void Node::os_crash(SimTime reboot_after) {
  if (!up_) return;
  OFTT_LOG_WARN("sim/node", name_, " NT CRASH (blue screen)");
  last_failure_ = NodeFailureKind::kOsCrash;
  publish_down("NT crash (blue screen)");
  kill_all_processes("NT crash");
  up_ = false;
  clear_ports();
  if (reboot_after != kNever) reboot(reboot_after);
}

void Node::publish_down(const char* why) {
  obs::Event e;
  e.kind = obs::EventKind::kNodeDown;
  e.node = id_;
  e.detail = why;
  e.a = static_cast<std::uint64_t>(last_failure_);
  sim_.telemetry().bus().publish(std::move(e));
}

void Node::reboot(SimTime delay) {
  sim_.schedule_after(delay, [this] { boot(); });
}

void Node::kill_all_processes(const std::string& reason) {
  // Copy: exit listeners may look up processes.
  auto procs = processes_;
  for (auto& [pname, proc] : procs) proc->kill(reason);
  processes_.clear();
}

std::shared_ptr<Process> Node::start_process(const std::string& pname, Process::Factory factory) {
  if (!up_) {
    OFTT_LOG_WARN("sim/node", name_, ": cannot start ", pname, " while down");
    return nullptr;
  }
  factories_[pname] = factory;
  auto proc = std::make_shared<Process>(*this, pname, next_pid_++);
  processes_[pname] = proc;
  OFTT_LOG_DEBUG("sim/node", name_, " started process ", pname, " pid=", proc->pid());
  if (factory) factory(*proc);
  return proc;
}

std::shared_ptr<Process> Node::restart_process(const std::string& pname) {
  auto it = factories_.find(pname);
  if (it == factories_.end() || !up_) return nullptr;
  if (auto existing = find_process(pname); existing && existing->alive()) {
    existing->kill("restart");
  }
  processes_.erase(pname);
  return start_process(pname, it->second);
}

std::shared_ptr<Process> Node::find_process(const std::string& pname) {
  auto it = processes_.find(pname);
  return it == processes_.end() ? nullptr : it->second;
}

std::size_t Node::port_index(PortId port) const {
  std::size_t i = 0;
  while (i < ports_.size() && ports_[i].port != port) ++i;
  return i;
}

void Node::bind_port(PortId port, LifeRef life, MessageHandler h) {
  auto handler = std::make_unique<MessageHandler>(std::move(h));
  const std::size_t i = port_index(port);
  if (i < ports_.size()) {
    ports_[i].life = std::move(life);
    retire(std::exchange(ports_[i].handler, std::move(handler)));
    return;
  }
  ports_.push_back(PortEntry{port, std::move(life), std::move(handler)});
}

void Node::unbind_port(PortId port) {
  const std::size_t i = port_index(port);
  if (i == ports_.size()) return;
  retire(std::move(ports_[i].handler));
  ports_.erase(ports_.begin() + static_cast<std::ptrdiff_t>(i));
}

void Node::retire(std::unique_ptr<MessageHandler> handler) {
  if (delivering_) retired_.push_back(std::move(handler));
}

void Node::clear_ports() {
  for (PortEntry& e : ports_) retire(std::move(e.handler));
  ports_.clear();
}

void Node::deliver(const Datagram& d) {
  if (!up_) {
    ctr_deliver_down_.inc();
    return;
  }
  const std::size_t i = port_index(d.dst_port);
  if (i == ports_.size()) {
    ctr_deliver_no_port_.inc();
    if (Logger::instance().enabled(LogLevel::kTrace)) {  // port_name() takes a lock
      OFTT_LOG_TRACE("sim/node", name_, ": no listener on port '", sim_.port_name(d.dst_port),
                     "'");
    }
    return;
  }
  if (!ports_[i].life->runnable()) {
    ctr_deliver_dead_strand_.inc();
    return;
  }
  // The handler may unbind or rebind its own port, bind or unbind
  // others, or crash the node while it runs: retire() keeps whatever it
  // drops alive until it returns.
  MessageHandler& handler = *ports_[i].handler;
  delivering_ = true;
  handler(d);
  delivering_ = false;
  retired_.clear();
}

}  // namespace oftt::sim
