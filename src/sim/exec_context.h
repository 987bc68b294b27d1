// Thread-local execution context for the parallel engine.
//
// When a Simulation runs under EngineKind::kParallel, each worker
// thread (and the coordinator, while it executes global events) carries
// one of these. Simulation::now() reads the context's clock instead of
// the shared now_, scheduling calls use the context to derive
// deterministic per-node event keys, and the obs/logging layers use the
// node id to stamp merge keys. A null context (or one belonging to a
// different Simulation — seed sweeps run whole sims per thread) means
// sequential semantics.
#pragma once

#include "sim/time.h"

namespace oftt::sim {

class Simulation;
class ParallelEngine;

namespace pdes {

struct ExecContext {
  Simulation* sim = nullptr;
  ParallelEngine* engine = nullptr;
  int shard = -1;  // -1 = coordinator
  int node = -1;   // node whose event is executing, -1 between events
  SimTime now = 0;
};

// Defined in parallel_engine.cpp. constinit (constant-initialized to
// null) lets other translation units read it directly instead of
// through a thread_local init wrapper, which UBSan's null check
// misreports on every sequential-engine read.
extern constinit thread_local ExecContext* tl_ctx;

}  // namespace pdes
}  // namespace oftt::sim
