// Experiment E16 — the sharded million-tag OPC data plane.
//
// The seed's OPC path polled every subscribed item every group tick
// (O(items × groups) string-keyed reads) and shipped one ORPC call per
// (group, tick) with tag names repeated in every update. E16 measures
// what the TagStore + SubscriptionHub + coalesced-notify rework buys,
// at the roadmap's scale:
//
//  E16a: change-driven group tick cost vs tag count — one group over
//        N ∈ {10⁴..10⁶} tags, C tags mutated per tick. The invariant
//        (asserted, not just reported): notifications == changed tags
//        exactly, independent of N. Wall-clock notifications/s is the
//        floor-gated throughput of the whole hub→group→sink path.
//        A second row sends the same ticks through the notification
//        plane to an OpcConnection on another node (group tick ->
//        frame -> transport -> client sink), with its own floor.
//  E16b: coalescing and update-to-notify latency vs client count —
//        clients spread over 10 nodes, several subscriptions per node;
//        batches-per-frame shows every frame shared across a node's
//        groups, p99 latency comes from the plane's own histogram.
//  E16c: failover vs tag count — a warm-passive pair whose application
//        state is a TagStore bound to one region per shard. Delta
//        checkpoint bytes track the mutation rate (not the tag count)
//        and crash-to-progress switchover stays sub-second at 10⁶ tags.
//  E16g: building a store — host ns per tag for intern + first set +
//        bind_regions at N ∈ {10⁴..10⁶}, the cost an app pays at every
//        restart before its first tick. Floor-gated like E16a.
//
// Exports BENCH_opc.json. The JSON carries only sim-domain values
// (byte-identical per seed at any worker-thread count — the CI
// determinism lane diffs it); wall-clock throughput appears on stdout
// only, where the OFTT_BENCH_ENFORCE_FLOOR gate reads it.
#include <chrono>
#include <memory>

#include "bench_util.h"
#include "com/object.h"
#include "common/strings.h"
#include "core/api.h"
#include "core/deployment.h"
#include "dcom/scm.h"
#include "nt/runtime.h"
#include "obs/json.h"
#include "opc/client.h"
#include "opc/device.h"
#include "opc/notify.h"
#include "opc/server.h"
#include "opc_floor.h"
#include "pdes/pdes_scenarios.h"
#include "sim/simulation.h"

using namespace oftt;
using namespace oftt::bench;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// E16a — change-driven group tick cost vs tag count.
// ---------------------------------------------------------------------

class CountingSink final : public com::Object<CountingSink, opc::IOPCDataCallback> {
 public:
  void OnDataChange(std::uint32_t, const std::vector<opc::ItemState>& items) override {
    delivered += items.size();
  }
  void OnReadComplete(std::uint32_t, HRESULT, const std::vector<opc::ItemState>&) override {}
  std::uint64_t delivered = 0;
};

struct TickCost {
  int tags = 0;
  int changed_per_tick = 0;
  int ticks = 0;
  std::uint64_t notified = 0;   // during the measured window (sim-exact)
  std::uint64_t routed = 0;     // hub routes during the window
  double wall_s = 0;            // stdout/floor only, never exported
  double notify_per_sec() const {
    return wall_s > 0 ? static_cast<double>(notified) / wall_s : 0;
  }
};

TickCost run_tick_cost(int tags, int changed, int ticks, std::uint64_t seed) {
  const sim::SimTime rate = sim::milliseconds(10);
  sim::Simulation sim(seed);
  auto& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("srv", nullptr);

  auto dev = std::make_shared<opc::Device>("plant");
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(tags));
  for (int i = 0; i < tags; ++i) names.push_back(cat("t", i));
  for (int i = 0; i < tags; ++i) {
    opc::TagId id = dev->store().intern(names[static_cast<std::size_t>(i)]);
    dev->store().set(id, opc::OpcValue::from_real(0.0), opc::Quality::kGood, sim.now());
  }

  auto group = opc::OpcGroupObject::create(*proc, dev, "bench", rate);
  group->AddItems(names, nullptr);
  auto sink = CountingSink::create();
  group->SetCallback(com::ComPtr<opc::IOPCDataCallback>(sink.get()), nullptr);
  // Warm: the fresh subscription announces all N once; offset the
  // window boundaries off the tick instants.
  sim.run_for(2 * rate + rate / 2);

  TickCost r;
  r.tags = tags;
  r.changed_per_tick = changed;
  r.ticks = ticks;
  const std::uint64_t notified0 = group->notified_total();
  const std::uint64_t routed0 = dev->hub().routed();
  const auto wall0 = Clock::now();
  for (int t = 0; t < ticks; ++t) {
    int start = (t * changed) % tags;
    for (int c = 0; c < changed; ++c) {
      opc::TagId id = static_cast<opc::TagId>((start + c) % tags);
      dev->store().set(id, opc::OpcValue::from_real(static_cast<double>(t + 1)),
                       opc::Quality::kGood, sim.now());
    }
    sim.run_for(rate);
  }
  sim.run_for(2 * rate);  // drain the final mutation
  r.wall_s = std::chrono::duration<double>(Clock::now() - wall0).count();
  r.notified = group->notified_total() - notified0;
  r.routed = dev->hub().routed() - routed0;
  return r;
}

// ---------------------------------------------------------------------
// E16b — coalescing and latency vs client count.
// ---------------------------------------------------------------------

const Clsid kClsid = Guid::from_name("CLSID_BenchOpcPlc");

// ---------------------------------------------------------------------
// E16a, batched row — the same tick through the notification plane:
// group tick -> NotifyPlane frame -> transport -> client sink.
// ---------------------------------------------------------------------

TickCost run_batched_tick_cost(int tags, int changed, int ticks, std::uint64_t seed) {
  const sim::SimTime rate = sim::milliseconds(10);
  sim::Simulation sim(seed);
  auto& server = sim.add_node("server");
  auto& client = sim.add_node("client");
  auto& net = sim.add_network("lan");
  net.attach(server.id());
  net.attach(client.id());

  auto dev = std::make_shared<opc::Device>("plant");
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(tags));
  for (int i = 0; i < tags; ++i) names.push_back(cat("t", i));
  for (int i = 0; i < tags; ++i) {
    opc::TagId id = dev->store().intern(names[static_cast<std::size_t>(i)]);
    dev->store().set(id, opc::OpcValue::from_real(0.0), opc::Quality::kGood, sim.now());
  }
  server.set_boot_script([dev](sim::Node& node) {
    dcom::install_scm(node);
    node.start_process("opcserver", [dev](sim::Process& proc) {
      opc::install_opc_server(proc, kClsid, dev, "bench");
    });
  });
  server.boot();
  client.boot();
  auto hmi = client.start_process("hmi", nullptr);

  opc::OpcConnection::Config cfg;
  cfg.update_rate = rate;
  cfg.batched_notifications = true;
  opc::OpcConnection conn(*hmi, server.id(), kClsid, cfg);
  std::uint64_t delivered = 0;
  conn.subscribe(names,
                 [&delivered](const std::vector<opc::ItemState>& items) {
                   delivered += items.size();
                 });
  // Connect, then drain the initial announce of all N items.
  const sim::SimTime deadline = sim.now() + sim::seconds(60);
  while (delivered < static_cast<std::uint64_t>(tags) && sim.now() < deadline) {
    sim.run_for(rate);
  }
  sim.run_for(2 * rate + rate / 2);

  TickCost r;
  r.tags = tags;
  r.changed_per_tick = changed;
  r.ticks = ticks;
  const std::uint64_t delivered0 = delivered;
  const std::uint64_t routed0 = dev->hub().routed();
  const auto wall0 = Clock::now();
  for (int t = 0; t < ticks; ++t) {
    int start = (t * changed) % tags;
    for (int c = 0; c < changed; ++c) {
      opc::TagId id = static_cast<opc::TagId>((start + c) % tags);
      dev->store().set(id, opc::OpcValue::from_real(static_cast<double>(t + 1)),
                       opc::Quality::kGood, sim.now());
    }
    sim.run_for(rate);
  }
  sim.run_for(2 * rate);  // drain the final mutation
  r.wall_s = std::chrono::duration<double>(Clock::now() - wall0).count();
  r.notified = delivered - delivered0;
  r.routed = dev->hub().routed() - routed0;
  return r;
}

struct CoalesceResult {
  int clients = 0;
  int client_nodes = 0;
  int connected = 0;
  std::uint64_t frames = 0;        // server plane frames in the window
  std::uint64_t batches = 0;       // client-side OnDataChange batches
  std::uint64_t notifications = 0; // items delivered in the window
  std::int64_t latency_p50_ns = 0; // update-to-notify, plane histogram
  std::int64_t latency_p99_ns = 0;
  std::uint64_t dropped = 0;
  double coalesce_ratio() const {
    return frames > 0 ? static_cast<double>(batches) / static_cast<double>(frames) : 0;
  }
};

CoalesceResult run_coalesce(int clients, std::uint64_t seed) {
  sim::Simulation sim(seed);
  auto& server = sim.add_node("server");
  auto& net = sim.add_network("lan");
  net.attach(server.id());
  // Fixed latency: the independent connection handshakes complete in
  // lockstep, so the groups of a client node tick at the same instants
  // — the alignment frame coalescing exploits.
  net.set_latency(sim::milliseconds(1), sim::milliseconds(1));
  server.set_boot_script([](sim::Node& node) {
    dcom::install_scm(node);
    node.start_process("opcserver", [](sim::Process& proc) {
      auto plc = std::make_shared<opc::PlcDevice>("PLC", sim::milliseconds(50));
      plc->add_input("s0", std::make_unique<opc::CounterSignal>());
      plc->add_input("s1", std::make_unique<opc::SineSignal>(50.0, 20.0, 0.7));
      plc->add_input("s2", std::make_unique<opc::SineSignal>(10.0, 5.0, 1.3));
      plc->add_input("s3", std::make_unique<opc::CounterSignal>());
      opc::install_opc_server(proc, kClsid, plc, "bench");
    });
  });
  server.boot();

  CoalesceResult r;
  r.clients = clients;
  r.client_nodes = std::min(clients, 10);
  const int per_node = clients / r.client_nodes;
  std::uint64_t batches = 0, notifications = 0;
  std::vector<std::shared_ptr<sim::Process>> hmis;
  std::vector<std::unique_ptr<opc::OpcConnection>> conns;
  for (int n = 0; n < r.client_nodes; ++n) {
    auto& cn = sim.add_node("client" + std::to_string(n));
    net.attach(cn.id());
    cn.boot();
    auto hmi = cn.start_process("hmi", nullptr);
    for (int c = 0; c < per_node; ++c) {
      opc::OpcConnection::Config cfg;
      cfg.batched_notifications = true;
      auto conn = std::make_unique<opc::OpcConnection>(*hmi, server.id(), kClsid, cfg);
      conn->subscribe({"s0", "s1", "s2", "s3"},
                      [&batches, &notifications](const std::vector<opc::ItemState>& items) {
                        ++batches;
                        notifications += items.size();
                      });
      conns.push_back(std::move(conn));
    }
    hmis.push_back(std::move(hmi));
  }
  sim.run_for(sim::seconds(3));  // connect + initial announces

  opc::NotifyPlane* plane = nullptr;
  if (auto proc = server.find_process("opcserver")) {
    plane = proc->find_attachment<opc::NotifyPlane>();
  }
  const std::uint64_t frames0 = plane != nullptr ? plane->frames_sent() : 0;
  const std::uint64_t batches0 = batches, items0 = notifications;
  sim.run_for(sim::seconds(5));  // measured window

  for (const auto& c : conns) {
    if (c->connected()) ++r.connected;
  }
  r.frames = (plane != nullptr ? plane->frames_sent() : 0) - frames0;
  r.batches = batches - batches0;
  r.notifications = notifications - items0;
  r.dropped = plane != nullptr ? plane->batches_dropped() : 0;
  const auto& hists = sim.telemetry().metrics().histograms();
  if (auto it = hists.find("oftt.opc.update_to_notify_ns"); it != hists.end()) {
    r.latency_p50_ns = it->second->quantile(0.50);
    r.latency_p99_ns = it->second->quantile(0.99);
  }
  return r;
}

// ---------------------------------------------------------------------
// E16c — warm-passive failover with a region-sharded TagStore.
// ---------------------------------------------------------------------

struct TagPlantOptions {
  core::FtimOptions ftim;
  int tags = 10'000;
  int mutate_per_tick = 256;
  sim::SimTime tick = sim::milliseconds(20);
};

/// The application under test: plant state is a TagStore sharded into
/// nt regions ("tags.<shard>") so FTIM delta checkpoints carry only
/// mutated slots. Tag 0 is the progress counter the switchover
/// measurement watches; while active, every tick bumps it and rewrites
/// a round-robin window of `mutate_per_tick` tags.
class TagPlantApp {
 public:
  TagPlantApp(sim::Process& process, TagPlantOptions options)
      : process_(&process),
        options_(options),
        store_(32),
        timer_(process.main_strand()) {
    auto& rt = nt::NtRuntime::of(process);
    rt.create_thread_static("plant_main", 0x501000);
    for (int i = 0; i < options_.tags; ++i) store_.intern(cat("p", i));
    for (int i = 0; i < options_.tags; ++i) {
      store_.set(static_cast<opc::TagId>(i), opc::OpcValue::from_real(0.0),
                 opc::Quality::kGood, process.sim().now());
    }
    store_.bind_regions(rt.memory(), "tags");
    core::OFTTInitialize(process, options_.ftim);
    core::Ftim& ftim = *core::Ftim::find(process);
    ftim.on_activate([this](bool) {
      // Re-read the (possibly FTIM-restored) region bytes into the
      // store's RAM arrays unconditionally: on the initial activation
      // the regions hold the just-bound initial slots, so the reload is
      // the identity; after a failover they hold the streamed state.
      store_.reload_from_regions();
      tick_count_ = static_cast<std::uint32_t>(store_.value(0).as_int(0));
      timer_.start(options_.tick, [this] { plant_tick(); });
    });
    ftim.on_deactivate([this] { timer_.stop(); });
  }

  std::uint32_t ticks() const { return tick_count_; }
  const opc::TagStore& store() const { return store_; }

  static TagPlantApp* find(sim::Node& node) {
    auto proc = node.find_process("app");
    return proc && proc->alive() ? proc->find_attachment<TagPlantApp>() : nullptr;
  }

 private:
  void plant_tick() {
    ++tick_count_;
    sim::SimTime now = process_->sim().now();
    store_.set(0, opc::OpcValue::from_int(static_cast<std::int32_t>(tick_count_)),
               opc::Quality::kGood, now);
    const int span = options_.tags - 1;
    int start = 1 + static_cast<int>((static_cast<std::uint64_t>(tick_count_) *
                                      static_cast<std::uint64_t>(options_.mutate_per_tick)) %
                                     static_cast<std::uint64_t>(span));
    for (int c = 0; c < options_.mutate_per_tick; ++c) {
      auto id = static_cast<opc::TagId>(1 + (start - 1 + c) % span);
      store_.set(id, opc::OpcValue::from_real(static_cast<double>(tick_count_)),
                 opc::Quality::kGood, now);
    }
  }

  sim::Process* process_;
  TagPlantOptions options_;
  opc::TagStore store_;
  sim::PeriodicTimer timer_;
  std::uint32_t tick_count_ = 0;
};

struct FailoverResult {
  sim::SimTime switchover_ns = -1;  // crash -> survivor app progressing
  std::int64_t ticks_lost = 0;      // progress-counter staleness at takeover
  std::uint64_t full_bytes = 0;     // primary lifetime totals at crash time
  std::uint64_t delta_bytes = 0;
  std::uint64_t window_delta_bytes = 0;  // 3 s steady-state window
};

FailoverResult run_failover(int tags, int mutate, std::uint64_t seed) {
  FailoverResult out;
  sim::Simulation sim(seed);
  core::PairDeploymentOptions opts;
  opts.engine.replication = core::ReplicationMode::kWarmPassive;
  TagPlantOptions app;
  app.tags = tags;
  app.mutate_per_tick = mutate;
  app.ftim.replication = core::ReplicationMode::kWarmPassive;
  app.ftim.checkpoint_period = sim::milliseconds(500);
  app.ftim.delta_stream_period = sim::milliseconds(50);
  app.ftim.restore_rate_bytes_per_s = 64ull * 1024 * 1024;
  opts.app_factory = [app](sim::Process& proc) {
    proc.attachment<TagPlantApp>(proc, app);
  };
  core::PairDeployment dep(sim, opts);
  sim.run_for(sim::seconds(5));
  int primary = dep.primary_node();
  if (primary < 0) return out;

  // Steady-state delta traffic over a 3 s window, after the initial
  // full image has shipped: bytes ∝ mutation rate, not tag count.
  std::uint64_t window0 = 0;
  if (core::Ftim* f = dep.ftim_on(*dep.node_by_id(primary))) {
    window0 = f->delta_bytes_sent();
  }
  sim.run_for(sim::seconds(3));
  if (core::Ftim* f = dep.ftim_on(*dep.node_by_id(primary))) {
    out.window_delta_bytes = f->delta_bytes_sent() - window0;
    out.full_bytes = f->full_bytes_sent();
    out.delta_bytes = f->delta_bytes_sent();
  }

  sim::Node& survivor = primary == dep.node_a().id() ? dep.node_b() : dep.node_a();
  auto* primary_app = TagPlantApp::find(*dep.node_by_id(primary));
  if (primary_app == nullptr) return out;
  const std::int64_t before = primary_app->ticks();
  const sim::SimTime injected = sim.now();
  dep.node_by_id(primary)->crash();

  const sim::SimTime deadline = injected + sim::seconds(20);
  while (sim.now() < deadline) {
    sim.run_for(sim::milliseconds(1));
    auto* app = TagPlantApp::find(survivor);
    if (app != nullptr && dep.primary_node() == survivor.id() &&
        static_cast<std::int64_t>(app->ticks()) > before) {
      out.switchover_ns = sim.now() - injected;
      out.ticks_lost =
          std::max<std::int64_t>(0, before + 1 - static_cast<std::int64_t>(app->ticks()));
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// E16g — building a store: what an OPC-client app pays at every
// (re)start before its first tick.
// ---------------------------------------------------------------------

struct BuildCost {
  // Host ns per tag, fastest of the repetitions; stdout/floor only.
  double intern_ns = 0;
  double set_ns = 0;
  double bind_ns = 0;
  double total_ns() const { return intern_ns + set_ns + bind_ns; }
  double tags_per_sec() const { return total_ns() > 0 ? 1e9 / total_ns() : 0; }
};

/// Intern N fresh names, set every tag once, bind the regions: the
/// farm app's constructor, timed phase by phase.
BuildCost run_tag_build(int tags, int reps) {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(tags));
  for (int i = 0; i < tags; ++i) names.push_back(cat("p", i));
  const auto per_tag = [tags](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count() / tags;
  };
  BuildCost best;
  for (int rep = 0; rep < reps; ++rep) {
    sim::Simulation sim(1);
    auto& node = sim.add_node("n");
    node.boot();
    auto proc = node.start_process("app", nullptr);
    opc::TagStore store(32);
    const auto t0 = Clock::now();
    for (const std::string& name : names) store.intern(name);
    const auto t1 = Clock::now();
    for (int i = 0; i < tags; ++i) {
      store.set(static_cast<opc::TagId>(i), opc::OpcValue::from_real(0.0), opc::Quality::kGood,
                0);
    }
    const auto t2 = Clock::now();
    store.bind_regions(nt::NtRuntime::of(*proc).memory(), "tags");
    const auto t3 = Clock::now();
    BuildCost r;
    r.intern_ns = per_tag(t0, t1);
    r.set_ns = per_tag(t1, t2);
    r.bind_ns = per_tag(t2, t3);
    if (rep == 0 || r.total_ns() < best.total_ns()) best = r;
  }
  return best;
}

}  // namespace

int main() {
  Logger::instance().set_level(LogLevel::kOff);
  bool floor_ok = true;
  bool invariant_ok = true;

  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "opc");

  // E16a -----------------------------------------------------------------
  const std::vector<int> tag_counts = smoke_mode()
                                          ? std::vector<int>{1'000, 10'000}
                                          : std::vector<int>{10'000, 100'000, 1'000'000};
  const int kChanged = smoke_mode() ? 100 : 1'000;
  const int kTicks = smoke_mode() ? 10 : 50;
  title("E16a: change-driven group tick cost vs tag count",
        "one group over N tags, " + std::to_string(kChanged) +
            " mutated per 10 ms tick; notifications must equal changed tags "
            "exactly — O(changed), never O(tags)");
  row({"N tags", "notified", "expected", "hub routed", "wall notif/s"});
  rule(5);
  std::vector<TickCost> tick_costs;
  for (int n : tag_counts) {
    TickCost r = run_tick_cost(n, kChanged, kTicks, 17);
    tick_costs.push_back(r);
    row({fmt_int(n), fmt_int(static_cast<long long>(r.notified)),
         fmt_int(static_cast<long long>(kChanged) * kTicks),
         fmt_int(static_cast<long long>(r.routed)), fmt(r.notify_per_sec() / 1e6, 2) + "M"});
    if (r.notified != static_cast<std::uint64_t>(kChanged) * static_cast<std::uint64_t>(kTicks)) {
      invariant_ok = false;
    }
    if (r.notify_per_sec() < 0.7 * kFloorNotifyPerSec) floor_ok = false;
  }
  title("E16a (batched): group tick -> NotifyPlane frame -> transport -> client sink",
        "the same ticks delivered through the notification plane to an OpcConnection on "
        "another node; every change must reach the client sink exactly once");
  row({"N tags", "delivered", "expected", "hub routed", "wall notif/s"});
  rule(5);
  std::vector<TickCost> batched_costs;
  for (int n : tag_counts) {
    TickCost r = run_batched_tick_cost(n, kChanged, kTicks, 17);
    batched_costs.push_back(r);
    row({fmt_int(n), fmt_int(static_cast<long long>(r.notified)),
         fmt_int(static_cast<long long>(kChanged) * kTicks),
         fmt_int(static_cast<long long>(r.routed)), fmt(r.notify_per_sec() / 1e6, 2) + "M"});
    if (r.notified != static_cast<std::uint64_t>(kChanged) * static_cast<std::uint64_t>(kTicks)) {
      invariant_ok = false;
    }
    if (r.notify_per_sec() < 0.7 * kFloorBatchedNotifyPerSec) floor_ok = false;
  }

  // E16b -----------------------------------------------------------------
  const std::vector<int> client_counts =
      smoke_mode() ? std::vector<int>{20} : std::vector<int>{100, 1'000, 10'000};
  title("E16b: coalesced frames and update-to-notify latency vs clients",
        "subscriptions spread over up to 10 client nodes, 4 items each at 100 ms; "
        "batches-per-frame > 1 means frames are shared across a node's groups");
  row({"clients", "connected", "frames", "batches", "batch/frame", "p99 ms"});
  rule(6);
  std::vector<CoalesceResult> coalesce;
  for (int c : client_counts) {
    CoalesceResult r = run_coalesce(c, 29);
    coalesce.push_back(r);
    row({fmt_int(c), fmt_int(r.connected), fmt_int(static_cast<long long>(r.frames)),
         fmt_int(static_cast<long long>(r.batches)), fmt(r.coalesce_ratio(), 2),
         fmt(static_cast<double>(r.latency_p99_ns) / 1e6, 2)});
    if (r.coalesce_ratio() < kFloorCoalesceRatio) floor_ok = false;
  }

  // E16c -----------------------------------------------------------------
  const std::vector<int> failover_tags = smoke_mode()
                                             ? std::vector<int>{5'000}
                                             : std::vector<int>{10'000, 100'000, 1'000'000};
  const int kMutate = 256;
  const int kSeeds = seeds_or(3, 2);
  title("E16c: warm-passive failover with region-sharded tag state",
        "pair deployment, app state = TagStore bound to one region per shard, " +
            std::to_string(kMutate) +
            " tags mutated per 20 ms tick; delta bytes follow the mutation rate "
            "and switchover stays sub-second at any tag count");
  row({"N tags", "switch p50 ms", "switch p99 ms", "ticks lost", "delta B/s", "runs"});
  rule(6);
  struct FailoverAgg {
    int tags = 0;
    std::vector<std::int64_t> switchovers;
    std::int64_t max_ticks_lost = 0;
    std::uint64_t window_delta_bytes = 0;
    std::uint64_t full_bytes = 0;
  };
  std::vector<FailoverAgg> failover_aggs;
  for (int n : failover_tags) {
    std::vector<FailoverResult> runs = sweep_seeds(kSeeds, [&](int s) {
      return run_failover(n, kMutate, static_cast<std::uint64_t>(s) * 613 + 3);
    });
    FailoverAgg agg;
    agg.tags = n;
    for (const FailoverResult& one : runs) {
      if (one.switchover_ns >= 0) agg.switchovers.push_back(one.switchover_ns);
      agg.max_ticks_lost = std::max(agg.max_ticks_lost, one.ticks_lost);
      agg.window_delta_bytes = std::max(agg.window_delta_bytes, one.window_delta_bytes);
      agg.full_bytes = std::max(agg.full_bytes, one.full_bytes);
    }
    std::int64_t p50 = obs::percentile(agg.switchovers, 0.50);
    std::int64_t p99 = obs::percentile(agg.switchovers, 0.99);
    row({fmt_int(n), fmt(static_cast<double>(p50) / 1e6, 1),
         fmt(static_cast<double>(p99) / 1e6, 1),
         fmt_int(agg.max_ticks_lost),
         fmt_int(static_cast<long long>(agg.window_delta_bytes / 3)),
         fmt_int(static_cast<long long>(agg.switchovers.size()))});
    if (agg.switchovers.size() < static_cast<std::size_t>(kSeeds)) invariant_ok = false;
    if (p99 > kFloorSwitchoverP99Ns) floor_ok = false;
    failover_aggs.push_back(std::move(agg));
  }

  // E16g -----------------------------------------------------------------
  const std::vector<int> build_tags = smoke_mode()
                                          ? std::vector<int>{10'000, 100'000}
                                          : std::vector<int>{10'000, 100'000, 1'000'000};
  title("E16g: building a TagStore (intern + first set + bind_regions)",
        "host ns per tag for N fresh \"p<i>\" names over 32 shards, fastest of 3 builds; "
        "the cost an app pays at every restart before its first tick");
  row({"N tags", "intern ns", "set ns", "bind ns", "total ns", "wall tags/s"});
  rule(6);
  for (int n : build_tags) {
    const BuildCost r = run_tag_build(n, 3);
    row({fmt_int(n), fmt(r.intern_ns, 1), fmt(r.set_ns, 1), fmt(r.bind_ns, 1),
         fmt(r.total_ns(), 1), fmt(r.tags_per_sec() / 1e6, 2) + "M"});
    if (r.tags_per_sec() < 0.7 * kFloorTagBuildPerSec) floor_ok = false;
  }

  // JSON export (sim-domain values only — the CI determinism lane diffs
  // this file across worker-thread counts; wall-clock stays on stdout).
  w.kv("changed_per_tick", kChanged);
  w.kv("ticks", kTicks);
  w.key("tick_cost");
  w.begin_array();
  for (const TickCost& r : tick_costs) {
    w.begin_object();
    w.kv("tags", r.tags);
    w.kv("notified", r.notified);
    w.kv("expected", static_cast<std::uint64_t>(kChanged) * static_cast<std::uint64_t>(kTicks));
    w.kv("hub_routed", r.routed);
    w.end_object();
  }
  w.end_array();
  w.key("batched_tick_cost");
  w.begin_array();
  for (const TickCost& r : batched_costs) {
    w.begin_object();
    w.kv("tags", r.tags);
    w.kv("delivered", r.notified);
    w.kv("expected", static_cast<std::uint64_t>(kChanged) * static_cast<std::uint64_t>(kTicks));
    w.kv("hub_routed", r.routed);
    w.end_object();
  }
  w.end_array();
  w.key("coalescing");
  w.begin_array();
  for (const CoalesceResult& r : coalesce) {
    w.begin_object();
    w.kv("clients", r.clients);
    w.kv("client_nodes", r.client_nodes);
    w.kv("connected", r.connected);
    w.kv("frames", r.frames);
    w.kv("batches", r.batches);
    w.kv("notifications", r.notifications);
    w.kv("batches_dropped", r.dropped);
    w.kv("latency_p50_ns", r.latency_p50_ns);
    w.kv("latency_p99_ns", r.latency_p99_ns);
    w.end_object();
  }
  w.end_array();
  w.key("failover");
  w.begin_array();
  for (const FailoverAgg& agg : failover_aggs) {
    w.begin_object();
    w.kv("tags", agg.tags);
    w.kv("runs", static_cast<std::uint64_t>(agg.switchovers.size()));
    w.kv("switchover_p50_ns", obs::percentile(agg.switchovers, 0.50));
    w.kv("switchover_p99_ns", obs::percentile(agg.switchovers, 0.99));
    w.kv("max_ticks_lost", agg.max_ticks_lost);
    w.kv("steady_delta_bytes_3s", agg.window_delta_bytes);
    w.kv("full_bytes_at_crash", agg.full_bytes);
    w.end_object();
  }
  w.end_array();
  // E16d -----------------------------------------------------------------
  // Parallel lane: the distributed tag farm (producers + historian)
  // under kParallel; the digest must be invariant across worker counts.
  const int kFarmProducers = smoke_mode() ? 4 : 10;
  const int kFarmTagsPerNode = smoke_mode() ? 1'000 : 10'000;
  title("E16d: parallel lane — distributed tag farm under kParallel",
        std::to_string(kFarmProducers) + " producer nodes x " +
            std::to_string(kFarmTagsPerNode) +
            " tags reporting to a historian; digest invariant across workers");
  row({"workers", "wall s", "digest"});
  rule(3);
  bool farm_ok = true;
  std::uint64_t farm_ref = 0;
  w.key("parallel_lane");
  w.begin_array();
  for (int workers : {1, 2, 4}) {
    sim::EngineConfig cfg;
    cfg.kind = sim::EngineKind::kParallel;
    cfg.workers = workers;
    auto t0 = Clock::now();
    std::uint64_t h = sim::pdestest::opc_farm_hash(17, kFarmProducers, kFarmTagsPerNode,
                                                   sim::seconds(2), &cfg);
    double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    if (workers == 1) farm_ref = h;
    if (h != farm_ref) farm_ok = false;
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
    row({fmt_int(workers), fmt(wall, 3), hex});
    w.begin_object();
    w.kv("workers", workers);
    w.kv("hash", hex);
    w.end_object();
  }
  w.end_array();
  if (!farm_ok) invariant_ok = false;
  w.kv("parallel_lane_ok", farm_ok);

  w.kv("invariants_ok", invariant_ok);
  w.end_object();
  write_file("BENCH_opc.json", w.take());

  if (!invariant_ok) {
    std::printf("INVARIANT VIOLATION: notifications != changed tags, or a failover "
                "run never recovered\n");
    return 1;
  }
  const char* enforce = std::getenv("OFTT_BENCH_ENFORCE_FLOOR");
  if (enforce != nullptr && enforce[0] != '\0' && !floor_ok) {
    std::printf("FLOOR REGRESSION: a measurement fell below opc_floor.h "
                "(throughput < 70%% of floor, coalesce ratio, or switchover p99)\n");
    return 1;
  }
  std::printf(
      "\n(notifications tracked changed tags exactly at every N — the group tick\n"
      " is O(changed); frames were shared across each client node's groups; and\n"
      " warm-passive switchover stayed flat while only delta bytes, not tag\n"
      " count, rode the checkpoint stream)\n");
  return 0;
}
