// Simulation-kernel tests: event ordering, cancellation, strand/process
// lifecycle, timers, and determinism.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <thread>

#include "common/strings.h"
#include "sim/disk.h"
#include "sim/fault_plan.h"
#include "sim/simulation.h"
#include "sim/timer.h"

namespace oftt::sim {
namespace {

TEST(EventQueue, FiresInTimeOrderWithFifoTies) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(milliseconds(10), [&] { order.push_back(2); });
  sim.schedule_at(milliseconds(5), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(10), [&] { order.push_back(3); });  // same time: FIFO
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(10));
}

TEST(EventQueue, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(milliseconds(1), [&] { fired = true; });
  sim.cancel(h);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(h.valid());
}

TEST(EventQueue, EventsScheduledDuringEventsRun) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(milliseconds(1), recurse);
  };
  sim.schedule_after(milliseconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(Simulation, RunUntilAdvancesClockEvenWhenIdle) {
  Simulation sim;
  sim.run_until(seconds(3));
  EXPECT_EQ(sim.now(), seconds(3));
}

TEST(Simulation, RunForIsRelative) {
  Simulation sim;
  sim.run_for(seconds(1));
  sim.run_for(seconds(1));
  EXPECT_EQ(sim.now(), seconds(2));
}

TEST(Process, KilledProcessEventsDoNotFire) {
  Simulation sim;
  Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("p", nullptr);
  int fired = 0;
  proc->schedule_after(milliseconds(10), [&] { ++fired; });
  proc->kill("test");
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(proc->alive());
}

TEST(Process, HungStrandDropsEventsButProcessStaysAlive) {
  Simulation sim;
  Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("p", nullptr);
  int main_fired = 0, ftim_fired = 0;
  Strand& ftim = proc->create_strand("ftim");
  proc->schedule_after(milliseconds(10), [&] { ++main_fired; });
  ftim.schedule_after(milliseconds(10), [&] { ++ftim_fired; });
  proc->main_strand().hang();
  sim.run();
  EXPECT_EQ(main_fired, 0) << "hung strand must not execute";
  EXPECT_EQ(ftim_fired, 1) << "other threads in the process keep running";
  EXPECT_TRUE(proc->alive());
}

TEST(Process, ComponentsDestroyedOnKillInReverseOrder) {
  Simulation sim;
  Node& node = sim.add_node("n");
  node.boot();
  std::vector<int> destroyed;
  struct Tracker {
    Tracker(std::vector<int>* log, int id) : log_(log), id_(id) {}
    ~Tracker() { log_->push_back(id_); }
    std::vector<int>* log_;
    int id_;
  };
  auto proc = node.start_process("p", [&](Process& p) {
    p.add_component(std::make_shared<Tracker>(&destroyed, 1));
    p.add_component(std::make_shared<Tracker>(&destroyed, 2));
  });
  proc->kill("test");
  EXPECT_EQ(destroyed, (std::vector<int>{2, 1}));
}

TEST(Process, ExitSelfDefersDestruction) {
  Simulation sim;
  Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("p", nullptr);
  proc->schedule_after(milliseconds(1), [&] {
    proc->exit_self("done");
    // Still alive within our own frame.
    EXPECT_TRUE(proc->alive());
  });
  sim.run();
  EXPECT_FALSE(proc->alive());
}

TEST(Process, ExitListenersRun) {
  Simulation sim;
  Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("p", nullptr);
  std::string reason;
  proc->on_exit([&](const std::string& r) { reason = r; });
  proc->kill("segfault");
  EXPECT_EQ(reason, "segfault");
}

TEST(Node, CrashKillsEverythingAndBlocksDelivery) {
  Simulation sim;
  Node& node = sim.add_node("n");
  Network& net = sim.add_network("lan");
  net.attach(node.id());
  node.boot();
  auto proc = node.start_process("p", nullptr);
  int received = 0;
  proc->bind(sim.port("port"), [&](const Datagram&) { ++received; });
  node.crash();
  EXPECT_FALSE(node.up());
  EXPECT_FALSE(proc->alive());
  EXPECT_EQ(node.last_failure(), NodeFailureKind::kPowerFailure);

  Datagram d;
  d.dst_node = node.id();
  d.dst_port = sim.port("port");
  node.deliver(d);
  EXPECT_EQ(received, 0);
}

TEST(Node, RebootRunsBootScriptAgain) {
  Simulation sim;
  Node& node = sim.add_node("n");
  int boots = 0;
  node.set_boot_script([&](Node&) { ++boots; });
  node.boot();
  node.os_crash(milliseconds(100));
  EXPECT_FALSE(node.up());
  EXPECT_EQ(node.last_failure(), NodeFailureKind::kOsCrash);
  sim.run_for(milliseconds(200));
  EXPECT_TRUE(node.up());
  EXPECT_EQ(boots, 2);
  EXPECT_EQ(node.boot_count(), 2);
}

TEST(Node, RestartProcessCreatesFreshInstance) {
  Simulation sim;
  Node& node = sim.add_node("n");
  node.boot();
  int instances = 0;
  node.start_process("app", [&](Process&) { ++instances; });
  auto old_proc = node.find_process("app");
  auto new_proc = node.restart_process("app");
  EXPECT_EQ(instances, 2);
  EXPECT_FALSE(old_proc->alive());
  EXPECT_TRUE(new_proc->alive());
  EXPECT_NE(old_proc->pid(), new_proc->pid());
}

TEST(Network, DeliversWithLatencyInRange) {
  Simulation sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  Network& net = sim.add_network("lan");
  net.attach(a.id());
  net.attach(b.id());
  net.set_latency(milliseconds(1), milliseconds(2));
  a.boot();
  b.boot();
  auto pa = a.start_process("p", nullptr);
  auto pb = b.start_process("p", nullptr);
  SimTime arrival = -1;
  pb->bind(sim.port("x"), [&](const Datagram& d) {
    arrival = sim.now();
    EXPECT_EQ(d.src_node, a.id());
  });
  pa->send(0, b.id(), sim.port("x"), Buffer{1});
  sim.run();
  ASSERT_GE(arrival, milliseconds(1));
  ASSERT_LE(arrival, milliseconds(2));
  EXPECT_EQ(net.delivered(), 1u);
}

TEST(Network, LossDropsApproximatelyTheConfiguredFraction) {
  Simulation sim(7);
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  Network& net = sim.add_network("lan");
  net.attach(a.id());
  net.attach(b.id());
  net.set_loss(0.3);
  a.boot();
  b.boot();
  auto pa = a.start_process("p", nullptr);
  auto pb = b.start_process("p", nullptr);
  int received = 0;
  pb->bind(sim.port("x"), [&](const Datagram&) { ++received; });
  for (int i = 0; i < 1000; ++i) pa->send(0, b.id(), sim.port("x"), Buffer{});
  sim.run();
  EXPECT_NEAR(received, 700, 60);
  EXPECT_EQ(net.dropped() + static_cast<std::uint64_t>(received), 1000u);
}

TEST(Network, PartitionBlocksCrossGroupTraffic) {
  Simulation sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  Node& c = sim.add_node("c");
  Network& net = sim.add_network("lan");
  for (auto* n : {&a, &b, &c}) {
    net.attach(n->id());
    n->boot();
  }
  auto pa = a.start_process("p", nullptr);
  int b_got = 0, c_got = 0;
  b.start_process("p", nullptr)->bind(sim.port("x"), [&](const Datagram&) { ++b_got; });
  c.start_process("p", nullptr)->bind(sim.port("x"), [&](const Datagram&) { ++c_got; });

  net.partition({{a.id(), b.id()}, {c.id()}});
  pa->send(0, b.id(), sim.port("x"), Buffer{});
  pa->send(0, c.id(), sim.port("x"), Buffer{});
  sim.run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);

  net.heal();
  pa->send(0, c.id(), sim.port("x"), Buffer{});
  sim.run();
  EXPECT_EQ(c_got, 1);
}

TEST(Network, PerLinkFailure) {
  Simulation sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  Network& net = sim.add_network("lan");
  net.attach(a.id());
  net.attach(b.id());
  a.boot();
  b.boot();
  auto pa = a.start_process("p", nullptr);
  int got = 0;
  b.start_process("p", nullptr)->bind(sim.port("x"), [&](const Datagram&) { ++got; });
  net.set_link(a.id(), b.id(), false);
  pa->send(0, b.id(), sim.port("x"), Buffer{});
  sim.run();
  EXPECT_EQ(got, 0);
  net.set_link(a.id(), b.id(), true);
  pa->send(0, b.id(), sim.port("x"), Buffer{});
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST(Network, GilbertElliottBurstLossDropsInBursts) {
  Simulation sim(11);
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  Network& net = sim.add_network("lan");
  net.attach(a.id());
  net.attach(b.id());
  a.boot();
  b.boot();
  auto pa = a.start_process("p", nullptr);
  int received = 0;
  b.start_process("p", nullptr)->bind(sim.port("x"), [&](const Datagram&) { ++received; });

  // Good state lossless, Bad state a blackout. Stationary Bad fraction
  // = p_enter / (p_enter + p_exit) = 0.2.
  net.set_burst_loss(/*p_enter=*/0.05, /*p_exit=*/0.2, /*loss_good=*/0.0,
                     /*loss_bad=*/1.0);
  EXPECT_TRUE(net.burst_loss_enabled());
  const int kSends = 4000;
  for (int i = 0; i < kSends; ++i) pa->send(0, b.id(), sim.port("x"), Buffer{});
  sim.run();
  EXPECT_EQ(net.burst_dropped() + static_cast<std::uint64_t>(received),
            static_cast<std::uint64_t>(kSends));
  // Burst correlation inflates the variance well past the binomial, so
  // the band is generous around the 20% stationary mean.
  EXPECT_NEAR(static_cast<double>(net.burst_dropped()) / kSends, 0.2, 0.1);

  net.clear_burst_loss();
  EXPECT_FALSE(net.burst_loss_enabled());
  std::uint64_t dropped_before = net.burst_dropped();
  received = 0;
  for (int i = 0; i < 100; ++i) pa->send(0, b.id(), sim.port("x"), Buffer{});
  sim.run();
  EXPECT_EQ(received, 100) << "a cleared burst channel must not drop";
  EXPECT_EQ(net.burst_dropped(), dropped_before);
}

TEST(Network, GilbertElliottMeanBurstLengthTracksExitProbability) {
  // With Good lossless and Bad a blackout, consecutive-drop run lengths
  // are the Bad-state sojourns: geometric with mean 1/p_exit.
  Simulation sim(5);
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  Network& net = sim.add_network("lan");
  net.attach(a.id());
  net.attach(b.id());
  a.boot();
  b.boot();
  auto pa = a.start_process("p", nullptr);
  std::vector<int> outcomes;  // 1 = delivered, in send order
  b.start_process("p", nullptr)->bind(sim.port("x"), [&](const Datagram&) { outcomes.back() = 1; });
  net.set_burst_loss(/*p_enter=*/0.02, /*p_exit=*/0.25, /*loss_good=*/0.0,
                     /*loss_bad=*/1.0);
  for (int i = 0; i < 6000; ++i) {
    outcomes.push_back(0);
    pa->send(0, b.id(), sim.port("x"), Buffer{});
    sim.run();  // deliver before the next send so outcome order is exact
  }
  int bursts = 0;
  long long burst_len_total = 0;
  int run = 0;
  for (int ok : outcomes) {
    if (ok == 0) {
      ++run;
    } else if (run > 0) {
      ++bursts;
      burst_len_total += run;
      run = 0;
    }
  }
  ASSERT_GT(bursts, 20) << "storm too quiet to measure";
  double mean_burst = static_cast<double>(burst_len_total) / bursts;
  EXPECT_NEAR(mean_burst, 4.0, 1.5) << "mean sojourn must track 1/p_exit";
}

TEST(Network, DisabledBurstChannelLeavesUniformLossHistoryUnchanged) {
  // The burst chain must consume zero RNG draws while disabled, so
  // pre-existing uniform-loss scenarios replay identically whether or
  // not the knob was ever compiled in.
  auto run_once = [](bool touch_api) {
    Simulation sim(7);
    Node& a = sim.add_node("a");
    Node& b = sim.add_node("b");
    Network& net = sim.add_network("lan");
    net.attach(a.id());
    net.attach(b.id());
    net.set_loss(0.3);
    if (touch_api) net.clear_burst_loss();
    a.boot();
    b.boot();
    auto pa = a.start_process("p", nullptr);
    int received = 0;
    b.start_process("p", nullptr)->bind(sim.port("x"), [&](const Datagram&) { ++received; });
    for (int i = 0; i < 1000; ++i) pa->send(0, b.id(), sim.port("x"), Buffer{});
    sim.run();
    return received;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(Network, LoopbackBypassesNetworkFaults) {
  Simulation sim;
  Node& a = sim.add_node("a");
  Network& net = sim.add_network("lan");
  net.attach(a.id());
  net.set_down(true);
  a.boot();
  auto p = a.start_process("p", nullptr);
  int got = 0;
  p->bind(sim.port("x"), [&](const Datagram&) { ++got; });
  p->send(0, a.id(), sim.port("x"), Buffer{});
  sim.run();
  EXPECT_EQ(got, 1) << "local IPC must not traverse the dead LAN";
}

TEST(Ports, InterningIsStableNamedAndThreadSafe) {
  Simulation sim;
  EXPECT_EQ(sim.port(""), PortId{});
  EXPECT_FALSE(sim.port(""));
  const PortId x = sim.port("x");
  EXPECT_TRUE(x);
  EXPECT_EQ(sim.port("x"), x);
  EXPECT_NE(sim.port("y"), x);
  EXPECT_EQ(sim.port_name(x), "x");
  EXPECT_EQ(sim.port_name(PortId{}), "");
  // Workers of the parallel engine bind ports concurrently: every
  // thread must see one id per name.
  constexpr int kThreads = 4, kNames = 200;
  std::vector<std::vector<PortId>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sim, &seen, t] {
      for (int i = 0; i < kNames; ++i) {
        seen[static_cast<std::size_t>(t)].push_back(
            sim.port(cat("p", (i * (t + 1)) % kNames)));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kNames; ++i) {
      const std::string name = cat("p", (i * (t + 1)) % kNames);
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)], sim.port(name));
      EXPECT_EQ(sim.port_name(sim.port(name)), name);
    }
  }
}

struct PortRig {
  PortRig() : a(sim.add_node("a")), b(sim.add_node("b")), net(sim.add_network("lan")) {
    net.attach(a.id());
    net.attach(b.id());
    a.boot();
    b.boot();
    pa = a.start_process("p", nullptr);
    pb = b.start_process("p", nullptr);
  }
  std::uint64_t no_port() const { return sim.counter_value("node.deliver_no_port"); }
  Simulation sim;
  Node& a;
  Node& b;
  Network& net;
  std::shared_ptr<Process> pa, pb;
};

TEST(Ports, RebindReplacesTheHandlerAndUnbindStopsDelivery) {
  PortRig r;
  const PortId x = r.sim.port("x"), y = r.sim.port("y");
  std::vector<std::string> got;
  r.pb->bind(x, [&](const Datagram&) { got.push_back("x1"); });
  r.pb->bind(y, [&](const Datagram&) { got.push_back("y"); });
  r.pa->send(0, r.b.id(), x, Buffer{});
  r.sim.run();
  r.pb->bind(x, [&](const Datagram&) { got.push_back("x2"); });
  r.pa->send(0, r.b.id(), x, Buffer{});
  r.pa->send(0, r.b.id(), y, Buffer{});
  r.sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"x1", "x2", "y"}));
  EXPECT_TRUE(r.b.port_bound(x));

  r.pb->main_strand().unbind(x);
  EXPECT_FALSE(r.b.port_bound(x));
  EXPECT_TRUE(r.b.port_bound(y));
  const std::uint64_t no_port = r.no_port();
  r.pa->send(0, r.b.id(), x, Buffer{});
  r.sim.run();
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ(r.no_port(), no_port + 1);
}

TEST(Ports, UnbindFromInsideTheHandler) {
  PortRig r;
  const PortId x = r.sim.port("x");
  auto calls = std::make_shared<int>(0);
  r.pb->bind(x, [&r, x, calls](const Datagram& d) {
    r.pb->main_strand().unbind(x);
    // The running handler's captures must outlive its own unbinding.
    *calls += static_cast<int>(d.payload.size());
  });
  r.pa->send(0, r.b.id(), x, Buffer{7});
  r.pa->send(0, r.b.id(), x, Buffer{7});
  const std::uint64_t no_port = r.no_port();
  r.sim.run();
  EXPECT_EQ(*calls, 1);
  EXPECT_FALSE(r.b.port_bound(x));
  EXPECT_EQ(r.no_port(), no_port + 1);
}

TEST(Ports, RebindFromInsideTheHandler) {
  PortRig r;
  const PortId x = r.sim.port("x");
  std::vector<std::string> got;
  const std::string name = "first handler, long enough to live on the heap";
  r.pb->bind(x, [&r, &got, x, name](const Datagram&) {
    r.pb->bind(x, [&got](const Datagram&) { got.push_back("second"); });
    // The running handler's captures must outlive its own replacement.
    got.push_back(name);
  });
  r.pa->send(0, r.b.id(), x, Buffer{});
  r.pa->send(0, r.b.id(), x, Buffer{});
  r.pa->send(0, r.b.id(), x, Buffer{});
  r.sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{name, "second", "second"}));
}

TEST(Ports, UnbindAndRebindFromInsideTheHandlerKeepsTheNewHandler) {
  PortRig r;
  const PortId x = r.sim.port("x");
  int first = 0, second = 0;
  r.pb->bind(x, [&](const Datagram&) {
    ++first;
    r.pb->main_strand().unbind(x);
    r.pb->bind(x, [&second](const Datagram&) { ++second; });
  });
  r.pa->send(0, r.b.id(), x, Buffer{});
  r.pa->send(0, r.b.id(), x, Buffer{});
  r.sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

// A handler that binds many ports (growing the port table) and unbinds
// one bound before its own (shifting its entry) keeps running intact
// and stays bound.
TEST(Ports, HandlerReshapingThePortTableStaysBound) {
  PortRig r;
  const PortId early = r.sim.port("early");
  const PortId x = r.sim.port("x");
  r.pb->bind(early, [](const Datagram&) {});
  std::vector<std::string> got;
  const std::string name = "handler capture that lives on the heap, not inline";
  r.pb->bind(x, [&r, &got, early, name](const Datagram&) {
    for (int i = 0; i < 32; ++i) r.pb->bind(r.sim.port(cat("extra.", i)), [](const Datagram&) {});
    r.pb->main_strand().unbind(early);
    got.push_back(name);
  });
  r.pa->send(0, r.b.id(), x, Buffer{});
  r.pa->send(0, r.b.id(), x, Buffer{});
  r.sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{name, name}));
  EXPECT_FALSE(r.b.port_bound(early));
}

// Delivery runs the bound handler in place: it is never copied.
TEST(Ports, DeliveryDoesNotCopyTheHandler) {
  struct Counting {
    int* copies;
    int* calls;
    Counting(int* copies, int* calls) : copies(copies), calls(calls) {}
    Counting(const Counting& o) : copies(o.copies), calls(o.calls) { ++*copies; }
    Counting(Counting&&) noexcept = default;
    void operator()(const Datagram&) const { ++*calls; }
  };
  PortRig r;
  const PortId x = r.sim.port("x");
  int copies = 0, calls = 0;
  r.pb->bind(x, Counting(&copies, &calls));
  const int after_bind = copies;
  for (int i = 0; i < 5; ++i) r.pa->send(0, r.b.id(), x, Buffer{});
  r.sim.run();
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(copies, after_bind);
}

TEST(Ports, OnePortIdBoundOnTwoNodes) {
  PortRig r;
  const PortId x = r.sim.port("x");
  int a_got = 0, b_got = 0;
  r.pa->bind(x, [&](const Datagram& d) {
    EXPECT_EQ(d.src_node, r.b.id());
    EXPECT_EQ(d.src_port, x);
    ++a_got;
  });
  r.pb->bind(x, [&](const Datagram& d) {
    EXPECT_EQ(d.src_node, r.a.id());
    EXPECT_EQ(d.dst_port, x);
    ++b_got;
  });
  r.pa->send(0, r.b.id(), x, Buffer{}, x);
  r.pb->send(0, r.a.id(), x, Buffer{}, x);
  r.pb->send(0, r.a.id(), x, Buffer{}, x);
  r.sim.run();
  EXPECT_EQ(a_got, 2);
  EXPECT_EQ(b_got, 1);
}

TEST(Ports, DeliveryToAnUnboundPortIsCounted) {
  PortRig r;
  const std::uint64_t no_port = r.no_port();
  r.pa->send(0, r.b.id(), r.sim.port("nobody"), Buffer{1});
  r.pa->send(0, r.b.id(), PortId{}, Buffer{1});
  r.sim.run();
  EXPECT_EQ(r.net.delivered(), 2u);
  EXPECT_EQ(r.no_port(), no_port + 2);
}

// Network attachment, links and partitions against a std::set model:
// random operations, then every ordered pair of real nodes sends one
// datagram and must arrive exactly when the model says it can.
TEST(Network, ReachabilityMatchesASetModel) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    constexpr int kNodes = 6;    // nodes that exist and can receive
    constexpr int kIds = 24;     // attach ids range past the node count
    Simulation sim(seed);
    Network& net = sim.add_network("lan");
    const PortId x = sim.port("x");
    std::vector<std::shared_ptr<Process>> procs;
    std::vector<int> got(kNodes, 0);
    for (int n = 0; n < kNodes; ++n) {
      Node& node = sim.add_node("n" + std::to_string(n));
      node.boot();
      procs.push_back(node.start_process("p", nullptr));
      procs.back()->bind(x, [&got, n](const Datagram&) { ++got[static_cast<std::size_t>(n)]; });
    }
    std::set<int> attached;
    std::set<std::pair<int, int>> dead;
    std::map<int, int> group;  // empty = healed
    std::mt19937 rng(seed);
    auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<std::uint32_t>(n)); };
    EXPECT_FALSE(net.attached(-1));
    EXPECT_THROW(net.attach(-1), std::invalid_argument);
    net.detach(kIds + 5);  // never attached, beyond the table
    EXPECT_FALSE(net.attached(kIds + 5));

    for (int op = 0; op < 300; ++op) {
      switch (pick(6)) {
        case 0:
        case 1: {
          // Grow from the top so ids land beyond the table's size.
          const int id = op < 20 ? kIds - 1 - pick(4) : pick(kIds);
          net.attach(id);
          attached.insert(id);
          break;
        }
        case 2: {
          const int id = pick(kIds + 8);
          net.detach(id);
          attached.erase(id);
          break;
        }
        case 3: {
          const int a = pick(kNodes), b = pick(kNodes);
          const bool up = pick(2) == 0;
          net.set_link(a, b, up);
          if (up) dead.erase(std::minmax(a, b));
          else dead.insert(std::minmax(a, b));
          break;
        }
        case 4: {
          std::vector<std::vector<int>> groups(2);
          group.clear();
          for (int n = 0; n < kNodes; ++n) {
            const int g = pick(3);  // 2 = left out of the partition spec
            if (g < 2) {
              groups[static_cast<std::size_t>(g)].push_back(n);
              group[n] = g;
            }
          }
          net.partition(groups);
          break;
        }
        default:
          if (pick(4) == 0) {
            net.heal();
            dead.clear();
            group.clear();
          }
          break;
      }
      for (int id = -1; id < kIds + 8; ++id) {
        ASSERT_EQ(net.attached(id), attached.count(id) != 0) << "id " << id << " op " << op;
      }
      if (op % 10 != 9) continue;
      for (int a = 0; a < kNodes; ++a) {
        for (int b = 0; b < kNodes; ++b) {
          if (a == b) continue;
          const bool same_group = group.empty() || (group.count(a) != 0 && group.count(b) != 0 &&
                                                    group.at(a) == group.at(b));
          const bool reach = attached.count(a) != 0 && attached.count(b) != 0 &&
                             dead.count(std::minmax(a, b)) == 0 && same_group;
          const int before = got[static_cast<std::size_t>(b)];
          EXPECT_EQ(procs[static_cast<std::size_t>(a)]->send(0, b, x, Buffer{}),
                    attached.count(a) != 0);
          sim.run();
          EXPECT_EQ(got[static_cast<std::size_t>(b)] - before, reach ? 1 : 0)
              << a << " -> " << b << " op " << op;
        }
      }
    }
  }
}

TEST(PeriodicTimer, FiresAtPeriodUntilStopped) {
  Simulation sim;
  Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("p", nullptr);
  int fires = 0;
  PeriodicTimer timer(proc->main_strand());
  timer.start(milliseconds(10), [&] {
    if (++fires == 5) timer.stop();
  });
  sim.run_for(seconds(1));
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTimer, RestartFromInsideCallback) {
  Simulation sim;
  Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("p", nullptr);
  int fast = 0, slow = 0;
  PeriodicTimer timer(proc->main_strand());
  timer.start(milliseconds(10), [&] {
    ++fast;
    timer.start(milliseconds(100), [&] { ++slow; });
  });
  sim.run_for(milliseconds(350));
  EXPECT_EQ(fast, 1);
  EXPECT_EQ(slow, 3);
}

TEST(PeriodicTimer, StopAndDestructionCancelThePendingEvent) {
  Simulation sim;
  Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("p", nullptr);
  {
    PeriodicTimer timer(proc->main_strand());
    timer.start(milliseconds(10), [] {});
    sim.run_for(milliseconds(25));
  }  // destroyed with its next fire pending
  PeriodicTimer stopped(proc->main_strand());
  stopped.start(milliseconds(10), [] {});
  stopped.stop();
  // No event is left that would call into a dead or stopped timer, so
  // draining the queue does not move the clock.
  const SimTime before = sim.now();
  sim.run();
  EXPECT_EQ(sim.now(), before);
}

TEST(Rng, DeterministicAcrossRuns) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkDecorrelates) {
  Rng root(123);
  Rng x = root.fork("x");
  Rng y = root.fork("y");
  EXPECT_NE(x.next_u64(), y.next_u64());
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / 20000, 5.0, 0.2);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Simulation, IdenticalSeedsGiveIdenticalHistories) {
  auto run = [](std::uint64_t seed) {
    Simulation sim(seed);
    Node& a = sim.add_node("a");
    Node& b = sim.add_node("b");
    Network& net = sim.add_network("lan");
    net.attach(a.id());
    net.attach(b.id());
    net.set_loss(0.5);
    a.boot();
    b.boot();
    auto pa = a.start_process("p", nullptr);
    std::vector<SimTime> arrivals;
    b.start_process("p", nullptr)->bind(sim.port("x"), [&](const Datagram&) {
      arrivals.push_back(sim.now());
    });
    for (int i = 0; i < 50; ++i) pa->send(0, b.id(), sim.port("x"), Buffer{});
    sim.run();
    return arrivals;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(DiskStore, SurvivesRebootSemantics) {
  Simulation sim;
  Node& node = sim.add_node("n");
  auto& disk = DiskStore::of(sim);
  disk.write(node.id(), "mq.q.inbox", Buffer{1, 2, 3});
  node.boot();
  node.crash();
  node.boot();
  auto read = disk.read(node.id(), "mq.q.inbox");
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, (Buffer{1, 2, 3}));
}

TEST(DiskStore, PrefixEnumeration) {
  Simulation sim;
  auto& disk = DiskStore::of(sim);
  disk.write(0, "mq.q.a", {});
  disk.write(0, "mq.q.b", {});
  disk.write(0, "mq.out", {});
  disk.write(1, "mq.q.c", {});
  auto keys = disk.keys_with_prefix(0, "mq.q.");
  EXPECT_EQ(keys.size(), 2u);
}

// ---------------------------------------------------------------------
// FaultPlan arming semantics
// ---------------------------------------------------------------------

TEST(FaultPlan, ArmIsIdempotent) {
  Simulation sim;
  sim.add_node("n");
  FaultPlan plan(sim);
  plan.crash_node(milliseconds(10), 0);
  plan.arm();
  plan.arm();  // second call must not schedule the steps again
  EXPECT_TRUE(plan.armed());
  sim.run();
  EXPECT_EQ(plan.journal().size(), 1u) << "double-arm must not double-inject";
  EXPECT_FALSE(plan.mutated_after_arm());
}

TEST(FaultPlan, StepAddedAfterArmIsFlaggedAndStillRuns) {
  Simulation sim;
  Node& n = sim.add_node("n");
  n.boot();
  FaultPlan plan(sim);
  plan.crash_node(milliseconds(10), n.id());
  plan.arm();
  // Late declaration: used to be silently unscheduled. Now it is
  // flagged as a scenario-authoring smell but still injected, so the
  // plan's declared and scheduled contents never diverge.
  plan.boot_node(milliseconds(20), n.id());
  EXPECT_TRUE(plan.mutated_after_arm());
  EXPECT_EQ(plan.size(), 2u);
  sim.run();
  EXPECT_EQ(plan.journal().size(), 2u);
  EXPECT_TRUE(n.up()) << "the post-arm boot step must have executed";
}

TEST(FaultPlan, StepsSurviveVectorReallocationAfterArm) {
  Simulation sim;
  Node& n = sim.add_node("n");
  n.boot();
  FaultPlan plan(sim);
  plan.crash_node(milliseconds(5), n.id());
  plan.arm();
  // Growing the plan reallocates its step vector; the already-scheduled
  // closures must not reference into the old storage.
  for (int i = 0; i < 64; ++i) {
    plan.boot_node(milliseconds(100 + i), n.id());
  }
  sim.run();
  EXPECT_EQ(plan.journal().size(), 65u);
  EXPECT_EQ(plan.journal().front().what, "crash node 0");
  EXPECT_TRUE(n.up());
}

TEST(FaultPlan, IntrospectionSplitsFiredFromPending) {
  Simulation sim;
  Node& n = sim.add_node("n");
  n.boot();
  FaultPlan plan(sim);
  plan.kill_process(milliseconds(10), n.id(), "app");
  plan.crash_node(seconds(10), n.id());
  plan.arm();
  EXPECT_EQ(plan.fired_count(), 0u);
  ASSERT_EQ(plan.pending().size(), 2u);

  sim.run_until(seconds(1));
  EXPECT_EQ(plan.fired_count(), 1u);
  EXPECT_TRUE(plan.step_fired(0));
  EXPECT_FALSE(plan.step_fired(1));
  EXPECT_FALSE(plan.step_fired(99)) << "out-of-range index is simply not fired";
  auto pending = plan.pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].at, seconds(10));
  EXPECT_EQ(pending[0].what, "crash node " + std::to_string(n.id()));

  sim.run_until(seconds(11));
  EXPECT_EQ(plan.fired_count(), 2u);
  EXPECT_TRUE(plan.pending().empty());
}

TEST(FaultPlan, DiskFailWindowTogglesWriteFailures) {
  Simulation sim;
  Node& n = sim.add_node("n");
  n.boot();
  FaultPlan plan(sim);
  plan.disk_fail_window(seconds(1), n.id(), /*duration=*/seconds(2));
  plan.arm();

  DiskStore& disk = DiskStore::of(sim);
  sim.run_until(milliseconds(500));
  EXPECT_TRUE(disk.write(n.id(), "k", Buffer{1}));
  sim.run_until(seconds(2));
  EXPECT_TRUE(disk.writes_failing(n.id()));
  EXPECT_FALSE(disk.write(n.id(), "k", Buffer{2}));
  sim.run_until(seconds(4));
  EXPECT_FALSE(disk.writes_failing(n.id()));
  EXPECT_TRUE(disk.write(n.id(), "k", Buffer{3}));
}

}  // namespace
}  // namespace oftt::sim
