#include "sim/simulation.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/logging.h"
#include "sim/parallel_engine.h"

namespace oftt::sim {

EngineConfig engine_config_from_env(EngineConfig def) {
  const char* kind = std::getenv("OFTT_ENGINE");
  if (kind != nullptr && std::strcmp(kind, "parallel") == 0) {
    def.kind = EngineKind::kParallel;
  } else if (kind != nullptr && std::strcmp(kind, "sequential") == 0) {
    def.kind = EngineKind::kSequential;
  }
  const char* workers = std::getenv("OFTT_ENGINE_WORKERS");
  if (workers != nullptr) {
    int w = std::atoi(workers);
    if (w >= 1) def.workers = w;
  }
  return def;
}

Simulation::Simulation(std::uint64_t seed)
    // The telemetry clock goes through now() (not now_): under the
    // parallel engine an event's publishes must stamp the worker's
    // thread-local clock, not the barrier-granularity shared one.
    : telemetry_([this] { return now(); }), rng_(seed) {}

Simulation::~Simulation() {
  // Components cancel their pending events as they die (PeriodicTimer),
  // so they must go while every queue still exists: the shard queues die
  // with engine_, the first member destroyed. Same relative order as the
  // members' own teardown.
  attachments_.clear();
  networks_.clear();
  nodes_.clear();
}

void Simulation::set_engine(const EngineConfig& config) {
  if (config.kind == EngineKind::kSequential) {
    if (engine_ != nullptr) {
      throw std::logic_error("Simulation::set_engine: cannot switch back to sequential");
    }
    engine_cfg_ = config;
    return;
  }
  if (!nodes_.empty() || !queue_.empty() || engine_ != nullptr) {
    throw std::logic_error(
        "Simulation::set_engine: select the parallel engine before adding nodes or "
        "scheduling events (shard queues own all routing)");
  }
  if (config.workers < 1) {
    throw std::invalid_argument("Simulation::set_engine: workers must be >= 1");
  }
  engine_cfg_ = config;
  engine_ = std::make_unique<ParallelEngine>(*this, config);
}

std::uint64_t Simulation::next_epoch() {
  const pdes::ExecContext* c = pdes::tl_ctx;
  if (engine_ != nullptr && c != nullptr && c->sim == this && c->node >= 0) {
    return ((static_cast<std::uint64_t>(c->node) + 1) << 40) |
           ++nodes_[static_cast<std::size_t>(c->node)]->pdes().epoch;
  }
  return next_epoch_++;
}

EventHandle Simulation::schedule_at(SimTime at, EventFn&& fn) {
  assert(at >= now());
  if (engine_ != nullptr) {
    return engine_->schedule(at < now() ? now() : at, nullptr, std::move(fn), /*node=*/-1);
  }
  return queue_.schedule(at < now_ ? now_ : at, std::move(fn));
}

EventHandle Simulation::schedule_on(SimTime at, LifeRef life, EventFn&& fn, int node) {
  if (engine_ != nullptr) {
    return engine_->schedule(at < now() ? now() : at, std::move(life), std::move(fn), node);
  }
  // The liveness gate is a native slot field in the queue (checked at
  // pop), not a wrapper lambda — no extra allocation per strand event.
  return queue_.schedule_on(at < now_ ? now_ : at, std::move(life), std::move(fn));
}

Node& Simulation::add_node(const std::string& name) {
  nodes_.push_back(std::make_unique<Node>(*this, name, static_cast<int>(nodes_.size())));
  if (engine_ != nullptr) engine_->on_add_node(nodes_.back()->id());
  return *nodes_.back();
}

PortId Simulation::port(std::string_view name) {
  if (name.empty()) return PortId{};
  std::lock_guard<std::mutex> lock(ports_mu_);
  if (auto it = port_ids_.find(name); it != port_ids_.end()) return it->second;
  const PortId id(static_cast<std::uint32_t>(port_names_.size()));
  port_names_.emplace_back(name);
  port_ids_.emplace(port_names_.back(), id);
  return id;
}

std::string Simulation::port_name(PortId id) const {
  std::lock_guard<std::mutex> lock(ports_mu_);
  return id.value() < port_names_.size() ? port_names_[id.value()] : std::string("?");
}

Network& Simulation::add_network(const std::string& name) {
  networks_.push_back(
      std::make_unique<Network>(*this, name, static_cast<int>(networks_.size())));
  return *networks_.back();
}

bool Simulation::step() {
  if (engine_ != nullptr) return engine_->step();
  if (queue_.empty()) return false;
  EventFn fn;
  SimTime at = queue_.pop(fn);
  assert(at >= now_);
  now_ = at;
  // An empty callback means the event's strand died or hung before fire
  // time: the tick still advances the clock, but there is nothing to run.
  if (fn) fn();
  return true;
}

void Simulation::run_until(SimTime t) {
  if (engine_ != nullptr) {
    engine_->run_until(t);
    return;
  }
  while (!queue_.empty() && queue_.next_time() <= t) {
    step();
  }
  if (now_ < t) now_ = t;
}

void Simulation::run(std::uint64_t max_events) {
  if (engine_ != nullptr) {
    engine_->run(max_events);
    return;
  }
  std::uint64_t n = 0;
  while (step()) {
    if (++n >= max_events) {
      OFTT_LOG_ERROR("sim", "run(): event budget exhausted (", max_events, ") — runaway loop?");
      return;
    }
  }
}

}  // namespace oftt::sim
