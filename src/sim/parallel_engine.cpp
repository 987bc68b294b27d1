#include "sim/parallel_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "common/logging.h"
#include "common/strings.h"
#include "sim/simulation.h"

namespace oftt::sim {

namespace pdes {
constinit thread_local ExecContext* tl_ctx = nullptr;
}  // namespace pdes

namespace {

/// m + L without overflowing past kNever (both operands can be kNever).
SimTime sat_add(SimTime a, SimTime b) {
  if (a >= kNever - b) return kNever;
  return a + b;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

}  // namespace

ParallelEngine::ParallelEngine(Simulation& sim, const EngineConfig& config)
    : sim_(sim),
      partition_{config.workers, config.partition},
      workers_(config.workers),
      mailbox_capacity_(config.mailbox_capacity == 0 ? 8 : config.mailbox_capacity) {
  shards_.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) shards_.push_back(std::make_unique<Shard>());
  mailboxes_.reserve(static_cast<std::size_t>(workers_) * static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_ * workers_; ++i) {
    mailboxes_.push_back(std::make_unique<SpscMailbox>(mailbox_capacity_));
  }

  obs::MetricsRegistry& mx = sim_.telemetry().metrics();
  ctr_windows_ = mx.counter("oftt.pdes.windows");
  ctr_events_ = mx.counter("oftt.pdes.events");
  ctr_spills_ = mx.counter("oftt.pdes.mailbox_spills");
  g_stall_ns_ = mx.gauge("oftt.pdes.stall_ns");
  g_mailbox_peak_ = mx.gauge("oftt.pdes.mailbox_peak");
  g_worker_events_.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    g_worker_events_.push_back(mx.gauge(cat("oftt.pdes.w", w, ".events")));
  }

  // Worker-context publishes are captured into the worker's buffer with
  // a (node, pub_seq) merge key and replayed at the barrier; everything
  // else (coordinator, setup, other sims on this thread) dispatches
  // immediately as before.
  sim_.telemetry().bus().set_defer([this](obs::Event& e) {
    pdes::ExecContext* c = pdes::tl_ctx;
    if (c == nullptr || c->engine != this || c->shard < 0 || c->node < 0) return false;
    Shard& sh = *shards_[static_cast<std::size_t>(c->shard)];
    const std::uint64_t key =
        ((static_cast<std::uint64_t>(c->node) + 1) << 40) |
        ++sim_.nodes_[static_cast<std::size_t>(c->node)]->pdes().pub_seq;
    sh.bus_buf.push_back(BusItem{key, std::move(e)});
    return true;
  });
}

ParallelEngine::~ParallelEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_workers_.notify_all();
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) sh->thread.join();
  }
  sim_.telemetry().bus().set_defer(nullptr);
}

void ParallelEngine::on_add_node(int node) {
  (void)node;
  pdes::ExecContext* c = pdes::tl_ctx;
  if (c != nullptr && c->engine == this && c->shard >= 0) {
    throw std::logic_error("ParallelEngine: add_node from a worker context is not supported");
  }
}

std::uint64_t ParallelEngine::make_key(int origin_node) {
  Node& n = *sim_.nodes_[static_cast<std::size_t>(origin_node)];
  return ((static_cast<std::uint64_t>(origin_node) + 1) << 40) | ++n.pdes().sched_seq;
}

EventHandle ParallelEngine::schedule(SimTime at, LifeRef life, EventFn&& fn, int node) {
  pdes::ExecContext* c = pdes::tl_ctx;
  if (c != nullptr && c->sim == &sim_ && c->shard >= 0) {
    // Worker context. Events stay on the executing node: a strand only
    // schedules onto its own node (cross-node influence goes through
    // Network::send -> post_send), which keeps both the key origin and
    // the shard routing invariant under the worker count.
    const int origin = c->node;
    assert(origin >= 0 && "worker-context scheduling requires a node context");
    assert((node < 0 || node == origin) &&
           "cross-node scheduling must go through the network (post_send)");
    return shards_[static_cast<std::size_t>(c->shard)]->q.schedule_keyed(
        at, make_key(origin), static_cast<std::uint32_t>(origin), std::move(life),
        std::move(fn));
  }
  // Coordinator or setup context: workers are parked, every queue and
  // node counter is safe to touch.
  if (node >= 0) {
    return shards_[static_cast<std::size_t>(shard_of(node))]->q.schedule_keyed(
        at, make_key(node), static_cast<std::uint32_t>(node), std::move(life), std::move(fn));
  }
  // No node context at all: a global event (fault injector, harness).
  return sim_.queue_.schedule_on(at, std::move(life), std::move(fn));
}

void ParallelEngine::post_send(int src_node, int dst_node, SimTime at, EventFn&& fn) {
  // Send-time key semantics: the key comes from the sender's counter,
  // allocated now, so however many workers there are the destination
  // queue reconstructs the identical (time, key) order.
  const std::uint64_t key = make_key(src_node);
  const int dst_shard = shard_of(dst_node);
  pdes::ExecContext* c = pdes::tl_ctx;
  if (c != nullptr && c->sim == &sim_ && c->shard >= 0) {
    assert(c->node == src_node && "post_send must run in the sending node's context");
    if (dst_shard != c->shard) {
      // Conservative lookahead guarantees `at` lands at or beyond the
      // current window's end, so the delivery can ride the mailbox and
      // be inserted at the barrier.
      mailbox(c->shard, dst_shard)
          .push(CrossEvent{at, key, static_cast<std::uint32_t>(dst_node), std::move(fn)});
      return;
    }
  }
  shards_[static_cast<std::size_t>(dst_shard)]->q.schedule_keyed(
      at, key, static_cast<std::uint32_t>(dst_node), nullptr, std::move(fn));
}

SimTime ParallelEngine::shard_min() {
  SimTime m = kNever;
  for (auto& sh : shards_) {
    if (!sh->q.empty()) m = std::min(m, sh->q.next_time());
  }
  return m;
}

SimTime ParallelEngine::global_next() {
  return sim_.queue_.empty() ? kNever : sim_.queue_.next_time();
}

void ParallelEngine::start_run() {
  // Revalidated at every run entry: links may be added or retuned
  // between runs, and the engine must refuse zero lookahead before the
  // first window rather than deadlock inside it.
  lookahead_ = kNever;
  for (auto& net : sim_.networks_) {
    if (net->latency_min() <= 0) {
      throw std::runtime_error(
          cat("ParallelEngine: network '", net->name(),
              "' has zero minimum latency — conservative synchronization needs positive "
              "lookahead on every link; give set_latency a min > 0"));
    }
    lookahead_ = std::min(lookahead_, net->latency_min());
    net->prepare_parallel(sim_.nodes_.size());
  }
  if (!started_) {
    started_ = true;
    for (int w = 0; w < workers_; ++w) {
      shards_[static_cast<std::size_t>(w)]->thread =
          std::thread(&ParallelEngine::worker_main, this, w);
    }
  }
}

bool ParallelEngine::step() {
  bool ran = false;
  advance(kNever, UINT64_MAX, /*once=*/true, ran);
  return ran;
}

void ParallelEngine::run_until(SimTime t) {
  bool ran = false;
  advance(t, UINT64_MAX, /*once=*/false, ran);
}

void ParallelEngine::run(std::uint64_t max_events) {
  bool ran = false;
  advance(kNever, max_events == 0 ? 1 : max_events, /*once=*/false, ran);
}

void ParallelEngine::advance(SimTime t, std::uint64_t budget, bool once, bool& ran_any) {
  start_run();

  // The coordinator carries its own context while it executes global
  // events and replays barrier flushes.
  pdes::ExecContext cctx;
  cctx.sim = &sim_;
  cctx.engine = this;
  cctx.shard = -1;
  cctx.node = -1;
  cctx.now = sim_.now_;
  pdes::ExecContext* prev = pdes::tl_ctx;
  pdes::tl_ctx = &cctx;
  struct CtxRestore {
    pdes::ExecContext* prev;
    ~CtxRestore() { pdes::tl_ctx = prev; }
  } restore{prev};

  std::uint64_t executed = 0;
  while (true) {
    const SimTime g = global_next();
    const SimTime m = shard_min();
    const SimTime first = std::min(g, m);
    if (first == kNever || first > t) break;

    if (g <= m) {
      // Global events run on the coordinator with workers parked: a
      // fault injector may crash any node, reroute any network.
      EventFn fn;
      const SimTime at = sim_.queue_.pop(fn);
      sim_.now_ = at;
      cctx.now = at;
      cctx.node = -1;
      if (fn) fn();
      ++global_executed_;
      ++executed;
      ctr_events_.inc();
      ran_any = true;
      if (once) break;
      if (executed >= budget) {
        OFTT_LOG_ERROR("sim", "run(): event budget exhausted (", budget, ") — runaway loop?");
        break;
      }
      continue;
    }

    // Bounded-lag window: every event in [now, end) is independent
    // across shards because cross-node influence pays >= lookahead.
    const SimTime end = std::min(std::min(g, sat_add(m, lookahead_)), sat_add(t, 1));
    std::uint64_t before = 0;
    for (auto& sh : shards_) before += sh->executed;
    run_window(end);
    std::uint64_t after = 0;
    for (auto& sh : shards_) after += sh->executed;
    const std::uint64_t delta = after - before;
    executed += delta;
    if (delta > 0) ran_any = true;

    sim_.now_ = std::min(end, t);
    cctx.now = sim_.now_;
    flush_barrier();
    ++windows_;
    ctr_windows_.inc();
    ctr_events_.inc(delta);

    if (once) break;
    if (executed >= budget) {
      OFTT_LOG_ERROR("sim", "run(): event budget exhausted (", budget, ") — runaway loop?");
      break;
    }
  }

  if (t != kNever && sim_.now_ < t) sim_.now_ = t;
}

void ParallelEngine::run_window(SimTime end) {
  const auto wall_start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_end_ = end;
    running_ = workers_;
    ++round_;
  }
  cv_workers_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_coord_.wait(lock, [this] { return running_ == 0; });
  }
  // Horizon stall: wall time a worker sat idle while the window was
  // open (waiting for slower shards plus barrier overhead).
  const std::uint64_t wall = elapsed_ns(wall_start);
  for (auto& sh : shards_) {
    stall_ns_ += wall > sh->window_exec_ns ? wall - sh->window_exec_ns : 0;
  }
}

void ParallelEngine::worker_main(int w) {
  Shard& sh = *shards_[static_cast<std::size_t>(w)];
  pdes::ExecContext ctx;
  ctx.sim = &sim_;
  ctx.engine = this;
  ctx.shard = w;
  pdes::tl_ctx = &ctx;

  // This worker's log lines stamp its thread-local clock and its
  // executing node's (node, seq) merge key, and buffer until the
  // barrier replays them in deterministic order.
  Logger& logger = Logger::instance();
  logger.set_clock([&ctx] { return ctx.now; });
  logger.set_origin([this, &ctx]() -> std::pair<int, std::uint64_t> {
    if (ctx.node < 0) return {-1, 0};
    return {ctx.node,
            ++sim_.nodes_[static_cast<std::size_t>(ctx.node)]->pdes().log_seq};
  });
  logger.set_buffer(&sh.log_buf);

  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_workers_.wait(lock, [&] { return shutdown_ || round_ != seen; });
    if (shutdown_) break;
    seen = round_;
    const SimTime end = window_end_;
    lock.unlock();

    const auto exec_start = std::chrono::steady_clock::now();
    while (!sh.q.empty() && sh.q.next_time() < end) {
      EventFn fn;
      const SimTime at = sh.q.pop(fn);
      ctx.now = at;
      const std::uint32_t target = sh.q.last_target();
      ctx.node = target == EventQueue::kNoTarget ? -1 : static_cast<int>(target);
      if (fn) fn();
      ++sh.executed;
    }
    ctx.node = -1;
    sh.window_exec_ns = elapsed_ns(exec_start);

    lock.lock();
    if (--running_ == 0) cv_coord_.notify_one();
  }
  lock.unlock();

  logger.set_buffer(nullptr);
  logger.set_origin(nullptr);
  logger.set_clock(nullptr);
  pdes::tl_ctx = nullptr;
}

void ParallelEngine::flush_barrier() {
  // 1. Cross-partition deliveries into their destination shard queues.
  //    Arrival order is irrelevant: the queues re-order by (time, key).
  for (int s = 0; s < workers_; ++s) {
    for (int d = 0; d < workers_; ++d) {
      if (s == d) continue;
      EventQueue& dq = shards_[static_cast<std::size_t>(d)]->q;
      mailbox(s, d).drain([&dq](CrossEvent&& e) {
        dq.schedule_keyed(e.at, e.key, e.target, nullptr, std::move(e.fn));
      });
    }
  }
  std::size_t peak = 0;
  std::uint64_t spills = 0;
  for (auto& mb : mailboxes_) {
    peak = std::max(peak, mb->peak());
    spills += mb->spills();
  }
  g_mailbox_peak_.set(static_cast<std::int64_t>(peak));
  if (spills > spills_reported_) {
    ctr_spills_.inc(spills - spills_reported_);
    spills_reported_ = spills;
  }

  // 2. Replay deferred telemetry in (time, key) order — the order a
  //    sequential execution would have published in.
  bus_merge_.clear();
  for (auto& sh : shards_) {
    for (BusItem& b : sh->bus_buf) bus_merge_.push_back(std::move(b));
    sh->bus_buf.clear();
  }
  if (!bus_merge_.empty()) {
    std::sort(bus_merge_.begin(), bus_merge_.end(), [](const BusItem& a, const BusItem& b) {
      return a.e.at != b.e.at ? a.e.at < b.e.at : a.key < b.key;
    });
    obs::EventBus& bus = sim_.telemetry().bus();
    pdes::ExecContext* c = pdes::tl_ctx;  // the coordinator's context
    const SimTime saved = c->now;
    for (BusItem& b : bus_merge_) {
      c->now = b.e.at;  // a handler that schedules sees the event's time
      bus.dispatch_now(std::move(b.e));
    }
    c->now = saved;
    bus_merge_.clear();
  }

  // 3. Replay buffered log lines in (time, node, seq) order — byte
  //    identical to the sequential emission order.
  log_merge_.clear();
  for (auto& sh : shards_) {
    for (LogRecord& r : sh->log_buf) log_merge_.push_back(std::move(r));
    sh->log_buf.clear();
  }
  if (!log_merge_.empty()) {
    std::sort(log_merge_.begin(), log_merge_.end(), [](const LogRecord& a, const LogRecord& b) {
      if (a.sim_time_ns != b.sim_time_ns) return a.sim_time_ns < b.sim_time_ns;
      if (a.node != b.node) return a.node < b.node;
      return a.seq < b.seq;
    });
    Logger& logger = Logger::instance();
    for (const LogRecord& r : log_merge_) logger.deliver(r);
    log_merge_.clear();
  }

  for (int w = 0; w < workers_; ++w) {
    g_worker_events_[static_cast<std::size_t>(w)].set(
        static_cast<std::int64_t>(shards_[static_cast<std::size_t>(w)]->executed));
  }
  g_stall_ns_.set(static_cast<std::int64_t>(stall_ns_));
}

bool ParallelEngine::empty() const {
  if (!sim_.queue_.empty()) return false;
  for (const auto& sh : shards_) {
    if (!sh->q.empty()) return false;
  }
  return true;
}

std::uint64_t ParallelEngine::events_executed() const {
  std::uint64_t n = global_executed_;
  for (const auto& sh : shards_) n += sh->executed;
  return n;
}

std::uint64_t ParallelEngine::worker_events(int w) const {
  return shards_.at(static_cast<std::size_t>(w))->executed;
}

std::uint64_t ParallelEngine::mailbox_spills() const {
  std::uint64_t n = 0;
  for (const auto& mb : mailboxes_) n += mb->spills();
  return n;
}

std::size_t ParallelEngine::mailbox_peak() const {
  std::size_t n = 0;
  for (const auto& mb : mailboxes_) n = std::max(n, mb->peak());
  return n;
}

std::uint64_t ParallelEngine::stall_ns() const { return stall_ns_; }

}  // namespace oftt::sim
