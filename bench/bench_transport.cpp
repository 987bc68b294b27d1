// Experiment E11 — what the unified session transport (src/transport/)
// buys over the improvised reliability it replaced.
//
//  E11a: checkpoint-stream goodput under loss. A sender ships 300
//       checkpoint-sized (4 KiB) frames to a peer at 0 / 1 / 5% datagram
//       loss, via two mechanisms run head to head on identical seeds:
//       "naive" reproduces the pre-transport pattern (one datagram per
//       frame, per-frame ack, fixed 200 ms retry sweep — the old MSMQ
//       retry timer / FTIM checkpoint-ack shape), "session" is a
//       transport::Endpoint with 50 ms initial RTO, backoff, and
//       selective acks. Goodput = payload bytes / time until every
//       frame is acknowledged.
//  E11b: end-to-end failover under loss. The integrated stack
//       (PairDeployment + CounterApp, checkpoints riding the session)
//       with the primary crashed, recovery time measured at the same
//       loss rates — p50/p99 across seeds, plus how often the restored
//       state was continuous (no more than ~a checkpoint period lost).
//  E20: host cost of one retransmission against the number of frames
//       in flight, D. A sender keeps D 64-byte frames in flight (each
//       ack admits a fresh one) to a silent peer (partitioned away) and
//       to a peer behind 25% loss; the row is host ns per retransmit
//       over a measured stretch after the RTOs have backed off, fastest
//       of five runs. transport_floor.h bounds how much it may grow
//       from D = 64 to the largest D. These are wall-clock numbers, so
//       they go to stderr: stdout and the JSON stay byte-identical at
//       any OFTT_BENCH_THREADS.
//
// Exports BENCH_transport.json.
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>

#include "bench_util.h"
#include "common/codec.h"
#include "core/deployment.h"
#include "obs/json.h"
#include "sim/simulation.h"
#include "sim/timer.h"
#include "support/counter_app.h"
#include "transport/session.h"
#include "transport_floor.h"

using namespace oftt;
using namespace oftt::bench;

namespace {

constexpr std::size_t kFrameBytes = 4 * 1024;
constexpr int kFrames = 300;
constexpr const char* kPort = "bench.xfer";
constexpr double kLossRates[] = {0.0, 0.01, 0.05};

// ---------------------------------------------------------------------
// E11a — goodput: naive fixed-period retry vs session transport.
// ---------------------------------------------------------------------

/// The naive pattern's two frames: one frame's payload under its id,
/// and the ack for that id.
struct NaiveData : codec::Message<NaiveData> {
  std::uint64_t id = 0;
  ByteView frame;
  template <class V> void fields(V& v) { v.tag(std::uint8_t{0xE1}); v(id); v(frame); }
};
struct NaiveAck : codec::Message<NaiveAck> {
  std::uint64_t id = 0;
  template <class V> void fields(V& v) { v.tag(std::uint8_t{0xE2}); v(id); }
};

/// The deleted reliability pattern, reconstructed for comparison: every
/// unacked frame is re-sent wholesale by a fixed 200 ms sweep, acks are
/// one datagram per frame, receiver dedups by frame id.
class NaiveSender {
 public:
  NaiveSender(sim::Process& p, int peer)
      : process_(&p), port_(p.sim().port(kPort)), peer_(peer), timer_(p.main_strand()) {
    p.bind(port_, [this](const sim::Datagram& d) {
      NaiveAck ack;
      if (NaiveAck::decode(d.payload, ack)) unacked_.erase(ack.id);
    });
    timer_.start(sim::milliseconds(200), [this] { sweep(); });
  }

  void enqueue(std::uint64_t id, Buffer frame) { unacked_.emplace(id, std::move(frame)); }
  void kick() { sweep(); }
  bool done() const { return unacked_.empty(); }
  std::uint64_t sends() const { return sends_; }

 private:
  void sweep() {
    for (const auto& [id, frame] : unacked_) {
      process_->send(0, peer_, port_, NaiveData{{}, id, frame}.encode(), port_);
      ++sends_;
    }
  }

  sim::Process* process_;
  sim::PortId port_;
  int peer_;
  std::map<std::uint64_t, Buffer> unacked_;
  std::uint64_t sends_ = 0;
  sim::PeriodicTimer timer_;
};

class NaiveReceiver {
 public:
  explicit NaiveReceiver(sim::Process& p) : process_(&p), port_(p.sim().port(kPort)) {
    p.bind(port_, [this](const sim::Datagram& d) {
      NaiveData data;
      if (!NaiveData::decode(d.payload, data)) return;
      if (seen_.insert(data.id).second) bytes_ += data.frame.size();
      process_->send(d.network_id, d.src_node, port_, NaiveAck{{}, data.id}.encode(), port_);
    });
  }
  std::size_t bytes() const { return bytes_; }

 private:
  sim::Process* process_;
  sim::PortId port_;
  std::set<std::uint64_t> seen_;
  std::size_t bytes_ = 0;
};

/// Session-side receiver: the Endpoint does everything.
class SessionPeer {
 public:
  explicit SessionPeer(sim::Process& p) {
    const sim::PortId port = p.sim().port(kPort);
    p.bind(port, [this](const sim::Datagram& d) { ep_->handle(d); });
    ep_ = std::make_unique<transport::Endpoint>(p.main_strand(), port, transport::SessionConfig{});
    ep_->on_deliver([this](int, int, ByteView b) { bytes_ += b.size(); });
  }
  transport::Endpoint& ep() { return *ep_; }
  std::size_t bytes() const { return bytes_; }

 private:
  std::unique_ptr<transport::Endpoint> ep_;
  std::size_t bytes_ = 0;
};

struct GoodputResult {
  bool valid = false;
  double mib_per_sec = 0;
  std::uint64_t transmissions = 0;  // total datagrams carrying payload
};

GoodputResult run_goodput(bool use_session, double loss, std::uint64_t seed) {
  sim::Simulation sim(seed);
  sim::Node& a = sim.add_node("a");
  sim::Node& b = sim.add_node("b");
  sim::Network& net = sim.add_network("lan");
  net.attach(a.id());
  net.attach(b.id());
  net.set_loss(loss);
  a.boot();
  b.boot();
  auto tx_proc = a.start_process("tx", nullptr);
  auto rx_proc = b.start_process("rx", nullptr);

  Buffer frame(kFrameBytes, 0x5A);
  sim::SimTime started = sim.now();
  const sim::SimTime deadline = started + sim::minutes(5);

  GoodputResult res;
  if (use_session) {
    auto& rx = rx_proc->attachment<SessionPeer>(*rx_proc);
    auto& tx = tx_proc->attachment<SessionPeer>(*tx_proc);
    for (int i = 0; i < kFrames; ++i) tx.ep().send(b.id(), frame);
    while (sim.now() < deadline && tx.ep().inflight_bytes() > 0) {
      sim.run_for(sim::milliseconds(5));
    }
    if (tx.ep().inflight_bytes() > 0 || rx.bytes() != kFrames * kFrameBytes) return res;
    res.transmissions = tx.ep().data_sent() + tx.ep().retransmits();
  } else {
    auto& rx = rx_proc->attachment<NaiveReceiver>(*rx_proc);
    auto& tx = tx_proc->attachment<NaiveSender>(*tx_proc, b.id());
    for (int i = 0; i < kFrames; ++i) {
      tx.enqueue(static_cast<std::uint64_t>(i) + 1, frame);
    }
    tx.kick();
    while (sim.now() < deadline && !tx.done()) {
      sim.run_for(sim::milliseconds(5));
    }
    if (!tx.done() || rx.bytes() != kFrames * kFrameBytes) return res;
    res.transmissions = tx.sends();
  }
  double secs = sim::to_seconds(sim.now() - started);
  if (secs <= 0) return res;
  res.valid = true;
  res.mib_per_sec = static_cast<double>(kFrames * kFrameBytes) / (1024.0 * 1024.0) / secs;
  return res;
}

// ---------------------------------------------------------------------
// E11b — failover latency under loss with the integrated stack.
// ---------------------------------------------------------------------

struct FailoverResult {
  double recover_ms = -1;
  bool state_continuous = false;
};

FailoverResult run_failover(double loss, std::uint64_t seed) {
  sim::Simulation sim(seed);
  core::PairDeploymentOptions opts;
  opts.unit = "bench";
  opts.with_monitor = false;
  opts.app_factory = [](sim::Process& proc) {
    testsupport::CounterApp::Options app;
    app.ftim.checkpoint_period = sim::milliseconds(200);
    app.tick = sim::milliseconds(10);
    proc.attachment<testsupport::CounterApp>(proc, app);
  };
  core::PairDeployment dep(sim, opts);
  sim.run_for(sim::seconds(5));
  if (dep.primary_node() != dep.node_a().id()) return {};
  // Loss switches on only after a clean start, so every run fails over
  // from an equivalent steady state.
  for (std::size_t n = 0; n < sim.network_count(); ++n) sim.network(n).set_loss(loss);
  sim.run_for(sim::seconds(2));

  std::int64_t count_before = testsupport::CounterApp::find(dep.node_a())->count();
  sim::SimTime injected = sim.now();
  dep.node_a().crash();

  FailoverResult res;
  sim::SimTime deadline = injected + sim::seconds(30);
  while (sim.now() < deadline && res.recover_ms < 0) {
    sim.run_for(sim::milliseconds(1));
    auto* app = testsupport::CounterApp::find(dep.node_b());
    if (app != nullptr && app->count() > count_before) {
      res.recover_ms = sim::to_millis(sim.now() - injected);
      res.state_continuous = app->count() >= count_before - 8;
    }
  }
  return res;
}

// ---------------------------------------------------------------------
// E20 — host ns per retransmission against frames in flight.
// ---------------------------------------------------------------------

constexpr std::size_t kRetxFrameBytes = 64;

/// Keeps `depth` frames in flight to `peer`: the window holds exactly
/// that many, and each ack admits a fresh frame.
class DepthSender {
 public:
  DepthSender(sim::Process& p, int peer, std::size_t depth) : peer_(peer) {
    const sim::PortId port = p.sim().port(kPort);
    p.bind(port, [this](const sim::Datagram& d) { ep_->handle(d); });
    transport::SessionConfig config;
    config.window_bytes = depth * kRetxFrameBytes;
    ep_ = std::make_unique<transport::Endpoint>(p.main_strand(), port, config);
    for (std::size_t i = 0; i < depth; ++i) send_one();
  }
  transport::Endpoint& ep() { return *ep_; }

 private:
  void send_one() {
    ep_->send(peer_, Buffer(kRetxFrameBytes, 0x5A), 0, [this](std::uint64_t) { send_one(); });
  }

  int peer_;
  std::unique_ptr<transport::Endpoint> ep_;
};

struct RetxCost {
  std::uint64_t retransmits = 0;  // in the measured stretch
  double ns_per_retx = 0;         // fastest run; stderr/floor only
};

/// `loss` < 0 means a silent peer. Counts are the same on every run.
RetxCost run_retx_cost(std::size_t depth, double loss, std::uint64_t target, int reps) {
  using Clock = std::chrono::steady_clock;
  RetxCost best;
  for (int rep = 0; rep < reps; ++rep) {
    sim::Simulation sim(20);
    sim::Node& a = sim.add_node("a");
    sim::Node& b = sim.add_node("b");
    sim::Network& net = sim.add_network("lan");
    net.attach(a.id());
    net.attach(b.id());
    if (loss < 0) {
      net.partition({{a.id()}, {b.id()}});
    } else {
      net.set_loss(loss);
    }
    a.boot();
    b.boot();
    auto rx_proc = b.start_process("rx", nullptr);
    rx_proc->attachment<SessionPeer>(*rx_proc);
    auto tx_proc = a.start_process("tx", nullptr);
    auto& tx = tx_proc->attachment<DepthSender>(*tx_proc, b.id(), depth);
    sim.run_for(sim::seconds(5));  // every RTO backs off to rto_max
    const std::uint64_t before = tx.ep().retransmits();
    const auto t0 = Clock::now();
    while (tx.ep().retransmits() - before < target) sim.run_for(sim::seconds(1));
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    best.retransmits = tx.ep().retransmits() - before;
    const double per = ns / static_cast<double>(best.retransmits);
    if (rep == 0 || per < best.ns_per_retx) best.ns_per_retx = per;
  }
  return best;
}

double p99_of(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  return xs[static_cast<std::size_t>(static_cast<double>(xs.size() - 1) * 0.99)];
}

}  // namespace

int main() {
  Logger::instance().set_level(LogLevel::kOff);
  const int kSeeds = seeds_or(20);

  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "transport");
  w.kv("seeds", static_cast<std::uint64_t>(kSeeds));
  w.kv("frame_bytes", static_cast<std::uint64_t>(kFrameBytes));
  w.kv("frames", static_cast<std::uint64_t>(kFrames));

  title("E11a: checkpoint-stream goodput under loss",
        "300 x 4 KiB frames; naive = per-frame ack + fixed 200 ms retry sweep "
        "(the pre-transport pattern), session = transport::Endpoint");
  row({"loss", "naive MiB/s", "session MiB/s", "speedup", "naive sends", "sess sends"});
  rule(6);
  w.key("goodput");
  w.begin_array();
  for (double loss : kLossRates) {
    std::vector<double> naive_mibs, sess_mibs;
    std::uint64_t naive_sends = 0, sess_sends = 0;
    // Both deployments for one seed stay on the same worker so the
    // paired comparison is unchanged; seeds fan out across the pool.
    auto runs = sweep_seeds(kSeeds, [&](int s) {
      std::uint64_t seed = static_cast<std::uint64_t>(s) * 1471 + 7;
      return std::pair{run_goodput(/*use_session=*/false, loss, seed),
                       run_goodput(/*use_session=*/true, loss, seed)};
    });
    for (int s = 0; s < kSeeds; ++s) {
      const auto& [na, se] = runs[static_cast<std::size_t>(s)];
      if (!na.valid || !se.valid) continue;
      naive_mibs.push_back(na.mib_per_sec);
      sess_mibs.push_back(se.mib_per_sec);
      naive_sends += na.transmissions;
      sess_sends += se.transmissions;
    }
    Stats ns = stats_of(naive_mibs), ss = stats_of(sess_mibs);
    double speedup = ns.p50 > 0 ? ss.p50 / ns.p50 : 0;
    row({fmt_pct(loss), fmt(ns.p50, 2), fmt(ss.p50, 2), fmt(speedup, 2),
         fmt_int(static_cast<long long>(naive_sends)),
         fmt_int(static_cast<long long>(sess_sends))});
    w.begin_object();
    w.kv("loss", loss);
    w.kv("naive_mib_per_sec_p50", ns.p50);
    w.kv("session_mib_per_sec_p50", ss.p50);
    w.kv("speedup_p50", speedup);
    w.kv("naive_transmissions", naive_sends);
    w.kv("session_transmissions", sess_sends);
    w.kv("n", static_cast<std::uint64_t>(naive_mibs.size()));
    w.end_object();
  }
  w.end_array();

  title("E11b: failover latency under loss",
        "pair deployment, primary node crash; checkpoints ride the session "
        "transport; recovery = backup app makes progress with restored state");
  row({"loss", "recover p50 ms", "recover p99 ms", "continuous", "n"});
  rule(5);
  w.key("failover");
  w.begin_array();
  for (double loss : kLossRates) {
    std::vector<double> recover;
    int continuous = 0, n = 0;
    std::vector<FailoverResult> runs = sweep_seeds(kSeeds, [&](int s) {
      return run_failover(loss, static_cast<std::uint64_t>(s) * 613 + 101);
    });
    for (int s = 0; s < kSeeds; ++s) {
      const FailoverResult& r = runs[static_cast<std::size_t>(s)];
      if (r.recover_ms < 0) continue;
      ++n;
      recover.push_back(r.recover_ms);
      if (r.state_continuous) ++continuous;
    }
    Stats rs = stats_of(recover);
    double p99 = p99_of(recover);
    row({fmt_pct(loss), fmt(rs.p50, 1), fmt(p99, 1),
         fmt_int(continuous) + "/" + fmt_int(n), fmt_int(n)});
    w.begin_object();
    w.kv("loss", loss);
    w.kv("recover_ms_p50", rs.p50);
    w.kv("recover_ms_p99", p99);
    w.kv("state_continuous", static_cast<std::uint64_t>(continuous));
    w.kv("n", static_cast<std::uint64_t>(n));
    w.end_object();
  }
  w.end_array();

  // E20 prints to stderr (see the header); the JSON keeps the counts.
  const bool smoke = smoke_mode();
  const std::vector<std::size_t> depths =
      smoke ? std::vector<std::size_t>{64, 1024} : std::vector<std::size_t>{64, 1024, 4096};
  const std::uint64_t target = smoke ? 100'000 : 400'000;
  std::fprintf(stderr,
               "\nE20: host ns per retransmit vs frames in flight (D)\n"
               "%-16s %8s %14s %14s\n",
               "peer", "D", "retransmits", "ns/retransmit");
  bool flat = true;
  w.key("retransmit_cost");
  w.begin_array();
  for (double loss : {-1.0, 0.25}) {
    const char* peer = loss < 0 ? "silent" : "25% loss";
    double ns_at_64 = 0;
    for (std::size_t depth : depths) {
      const RetxCost c = run_retx_cost(depth, loss, target, 5);
      if (depth == depths.front()) ns_at_64 = c.ns_per_retx;
      std::fprintf(stderr, "%-16s %8zu %14llu %14.0f\n", peer, depth,
                   static_cast<unsigned long long>(c.retransmits), c.ns_per_retx);
      w.begin_object();
      w.kv("peer", peer);
      w.kv("depth", static_cast<std::uint64_t>(depth));
      w.kv("retransmits", c.retransmits);
      w.end_object();
      if (depth == depths.back()) {
        const double ratio = c.ns_per_retx / ns_at_64;
        std::fprintf(stderr, "%-16s ratio D=%zu / D=64: %.2f (ceiling %.2f)\n", peer, depth,
                     ratio, kCeilingRetxFlatness);
        if (ratio > kCeilingRetxFlatness) flat = false;
      }
    }
  }
  w.end_array();
  w.end_object();
  write_file("BENCH_transport.json", w.take());

  std::printf(
      "\n(the session's 50 ms backoff RTO and selective acks recover lost frames an\n"
      " order of magnitude faster than the old fixed 200 ms sweep, and retransmit\n"
      " only the missing frames instead of every unacked one; failover latency is\n"
      " detection-dominated and should hold roughly flat across loss rates because\n"
      " heartbeats deliberately stay raw while replication absorbs the loss.)\n");
  const char* enforce = std::getenv("OFTT_BENCH_ENFORCE_FLOOR");
  if (enforce != nullptr && enforce[0] != '\0' && !flat) {
    std::fprintf(stderr,
                 "FLOOR REGRESSION: ns per retransmit grows more than %.1fx from D = 64 "
                 "to the largest D (transport_floor.h)\n",
                 kCeilingRetxFlatness);
    return 1;
  }
  return 0;
}
