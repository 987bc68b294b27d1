// Allocation budget of a steady-state batched notify tick (DESIGN.md
// §7 #17, "one encoder per notify frame").
//
// A device changes kItems tags every update period, and one batched HMI
// connection on another node subscribes to all of them. After warm-up,
// every byte requested from operator new over kTicks update periods is
// counted: the group tick, the frame flush, the transport and network
// hops, the decode on the client and the client sink. Every period
// carries the same work, so bytes per period is the figure.
//
// Measured for kItems = 200, GCC 12 / libstdc++:
//   per-item tree nodes, fresh vectors per batch,
//   a frame grown byte by byte                      78 660 B per tick
//   slot-indexed hub, reserved frame, reused
//   decode frame and client item vector             20 240 B per tick
// This binary links tests/support/alloc_counter.cpp, which counts every
// operator new in the process.
#include <gtest/gtest.h>

#include "common/strings.h"
#include "dcom/scm.h"
#include "opc/client.h"
#include "opc/device.h"
#include "opc/server.h"
#include "sim/simulation.h"
#include "support/alloc_counter.h"

namespace oftt::opc {
namespace {

constexpr int kItems = 200;
constexpr int kTicks = 10;
constexpr sim::SimTime kPeriod = sim::milliseconds(100);
constexpr double kBudgetBytesPerTick = 25'000;

const Clsid kClsid = Guid::from_name("CLSID_NotifyBudgetPlc");

/// Changes every one of its tags once per scan.
class ScanningDevice final : public Device {
 public:
  ScanningDevice() : Device("PLC") {
    for (int i = 0; i < kItems; ++i) {
      store().set(store().intern(cat("p", i)), OpcValue::from_real(0.0), Quality::kGood, 0);
    }
  }

  void start(sim::Strand& strand, sim::Rng rng) override {
    Device::start(strand, rng);
    timer_ = std::make_unique<sim::PeriodicTimer>(strand);
    timer_->start(kPeriod, [this, &strand] {
      ++scans_;
      const sim::SimTime now = strand.process().sim().now();
      for (int i = 0; i < kItems; ++i) {
        store().set(static_cast<TagId>(i), OpcValue::from_real(static_cast<double>(scans_)),
                    Quality::kGood, now);
      }
    });
  }

 private:
  std::unique_ptr<sim::PeriodicTimer> timer_;
  std::uint64_t scans_ = 0;
};

TEST(NotifyBudget, SteadyBatchedTickStaysWithinItsAllocationBudget) {
  sim::Simulation sim(5);
  auto& server = sim.add_node("server");
  auto& client = sim.add_node("client");
  auto& net = sim.add_network("lan");
  net.attach(server.id());
  net.attach(client.id());
  server.set_boot_script([](sim::Node& node) {
    dcom::install_scm(node);
    node.start_process("opcserver", [](sim::Process& proc) {
      install_opc_server(proc, kClsid, std::make_shared<ScanningDevice>(), "v");
    });
  });
  server.boot();
  client.boot();
  auto hmi = client.start_process("hmi", nullptr);

  OpcConnection::Config cfg;
  cfg.update_rate = kPeriod;
  cfg.batched_notifications = true;
  OpcConnection conn(*hmi, server.id(), kClsid, cfg);
  std::vector<std::string> names;
  for (int i = 0; i < kItems; ++i) names.push_back(cat("p", i));
  std::uint64_t notified = 0;
  conn.subscribe(names, [&](const std::vector<ItemState>& items) { notified += items.size(); });
  sim.run_for(sim::seconds(2));  // connect, initial announce, warm-up
  ASSERT_TRUE(conn.connected());

  const std::uint64_t notified0 = notified;
  const std::size_t allocated =
      test::bytes_allocated_by([&] { sim.run_for(kTicks * kPeriod); });

  ASSERT_EQ(notified - notified0, static_cast<std::uint64_t>(kItems) * kTicks)
      << "every change of every tick reached the sink";
  const double per_tick = static_cast<double>(allocated) / kTicks;
  RecordProperty("bytes_per_tick", std::to_string(per_tick));
  EXPECT_LE(per_tick, kBudgetBytesPerTick) << allocated << " bytes over " << kTicks << " ticks";
}

}  // namespace
}  // namespace oftt::opc
