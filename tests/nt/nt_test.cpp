// NT runtime shim tests: memory regions/cells, thread discoverability
// (static vs dynamic), the IAT CreateThread hook, the misleading
// performance counter (§3.1), events and waitable timers.
#include <gtest/gtest.h>

#include "nt/runtime.h"
#include "sim/simulation.h"

namespace oftt::nt {
namespace {

class NtTest : public ::testing::Test {
 protected:
  NtTest() {
    node_ = &sim_.add_node("n");
    node_->boot();
    proc_ = node_->start_process("app", nullptr);
    rt_ = &NtRuntime::of(*proc_);
  }
  sim::Simulation sim_;
  sim::Node* node_;
  std::shared_ptr<sim::Process> proc_;
  NtRuntime* rt_;
};

TEST_F(NtTest, RegionsAllocateZeroedAndReadWrite) {
  Region& r = rt_->memory().alloc("globals", 128);
  EXPECT_EQ(r.size(), 128u);
  EXPECT_EQ(r.read<std::uint64_t>(0), 0u);
  r.write<std::uint64_t>(8, 0xFEEDFACE);
  EXPECT_EQ(r.read<std::uint64_t>(8), 0xFEEDFACEu);
}

TEST_F(NtTest, AllocIsIdempotentByName) {
  Region& a = rt_->memory().alloc("g", 64);
  Region& b = rt_->memory().alloc("g", 64);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(rt_->memory().total_bytes(), 64u);
}

TEST_F(NtTest, CellsViewRegionBytes) {
  Region& r = rt_->memory().alloc("g", 64);
  Cell<std::int32_t> c(&r, 4);
  c.set(-77);
  EXPECT_EQ(c.get(), -77);
  EXPECT_EQ(r.read<std::int32_t>(4), -77);
}

TEST_F(NtTest, SnapshotAndRestoreRoundTrip) {
  Region& r = rt_->memory().alloc("g", 32);
  r.write<std::uint32_t>(0, 123);
  Buffer snap = r.snapshot();
  r.write<std::uint32_t>(0, 456);
  r.restore(snap);
  EXPECT_EQ(r.read<std::uint32_t>(0), 123u);
}

TEST_F(NtTest, StaticThreadsAreOpenable) {
  Task& t = rt_->create_thread_static("main", 0x401000);
  EXPECT_TRUE(t.statically_created());
  EXPECT_EQ(rt_->open_thread(t.tid()), &t);
  EXPECT_EQ(rt_->perf_counter_start_address(t.tid()), 0x401000u);
}

TEST_F(NtTest, DynamicThreadsAreNotOpenableViaDocumentedApis) {
  Task& t = rt_->CreateThread("worker", 0x402000);
  EXPECT_FALSE(t.statically_created());
  // The paper's §3.1 behaviour: handle not obtainable, perf counter
  // reports the NTDLL stub instead of the real start routine.
  EXPECT_EQ(rt_->open_thread(t.tid()), nullptr);
  EXPECT_EQ(rt_->perf_counter_start_address(t.tid()), kNtdllThreadStartStub);
  EXPECT_NE(rt_->perf_counter_start_address(t.tid()), t.start_address());
}

TEST_F(NtTest, IatHookObservesDynamicThreadCreation) {
  std::vector<std::string> seen;
  NtRuntime::CreateThreadFn original;
  original = rt_->hook_create_thread(
      [&](const std::string& name, std::uint64_t start) -> Task& {
        seen.push_back(name);
        return original(name, start);
      });
  EXPECT_TRUE(rt_->create_thread_hooked());
  rt_->CreateThread("w1", 0x1000);
  rt_->CreateThread("w2", 0x2000);
  EXPECT_EQ(seen, (std::vector<std::string>{"w1", "w2"}));
  // Statically created threads do not route through the IAT.
  rt_->create_thread_static("s1", 0x3000);
  EXPECT_EQ(seen.size(), 2u);
}

TEST_F(NtTest, EnumerateSeesAllLiveThreads) {
  rt_->create_thread_static("a", 1);
  rt_->CreateThread("b", 2);
  EXPECT_EQ(rt_->enumerate_thread_ids().size(), 2u);
}

TEST_F(NtTest, ContextCaptureUsesProvider) {
  Task& t = rt_->create_thread_static("main", 0x401000);
  int value = 42;
  t.set_context_provider([&] {
    BinaryWriter w;
    w.i32(value);
    return std::move(w).take();
  });
  int restored = 0;
  t.set_context_restorer([&](const Buffer& b) {
    BinaryReader r(b);
    restored = r.i32();
  });
  TaskContext ctx = t.capture_context();
  EXPECT_EQ(ctx.start_address, 0x401000u);
  value = 99;  // mutate after capture; the snapshot must hold 42
  t.restore_context(ctx);
  EXPECT_EQ(restored, 42);
}

TEST_F(NtTest, TaskContextSerializationRoundTrip) {
  TaskContext c;
  c.start_address = 0x1234;
  c.instruction_pointer = 0x1274;
  c.stack_pointer = 0x7ff0;
  c.stack = {9, 8, 7};
  Buffer b = c.encode();
  TaskContext d;
  ASSERT_TRUE(TaskContext::decode(b, d));
  EXPECT_EQ(d.start_address, c.start_address);
  EXPECT_EQ(d.stack, c.stack);
}

TEST_F(NtTest, NtEventWaitersFireOnSet) {
  NtEvent& ev = rt_->create_event("ready");
  int fired = 0;
  ev.wait_async([&] { ++fired; });
  EXPECT_EQ(fired, 0);
  ev.set();
  EXPECT_EQ(fired, 1);
  // Already-set event completes waits immediately.
  ev.wait_async([&] { ++fired; });
  EXPECT_EQ(fired, 2);
  ev.reset();
  EXPECT_FALSE(ev.is_set());
}

TEST_F(NtTest, WaitableTimerOneShotAndPeriodic) {
  auto timer = rt_->create_waitable_timer(proc_->main_strand());
  int fires = 0;
  timer->set(sim::milliseconds(10), 0, [&] { ++fires; });
  sim_.run_for(sim::milliseconds(100));
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(timer->armed());

  timer->set(sim::milliseconds(10), sim::milliseconds(10), [&] { ++fires; });
  sim_.run_for(sim::milliseconds(55));
  EXPECT_EQ(fires, 1 + 5);
  timer->cancel();
  sim_.run_for(sim::milliseconds(100));
  EXPECT_EQ(fires, 6);
}

TEST_F(NtTest, HungTaskStillCapturable) {
  Task& t = rt_->create_thread_static("main", 0x1);
  t.set_context_provider([] { return Buffer{1}; });
  t.hang();
  EXPECT_TRUE(t.hung());
  EXPECT_EQ(t.capture_context().stack, Buffer{1});
  t.unhang();
  EXPECT_FALSE(t.hung());
}

}  // namespace
}  // namespace oftt::nt
