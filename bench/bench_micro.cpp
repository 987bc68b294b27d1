// Experiment M1 — microbenchmarks (google-benchmark, real CPU time):
// the serialization, marshaling and checkpoint-capture primitives every
// OFTT control-plane message rides on.
#include <benchmark/benchmark.h>

#include <map>

#include "common/bytes.h"
#include "common/strings.h"
#include "core/api.h"
#include "core/checkpoint.h"
#include "core/deployment.h"
#include "core/wire.h"
#include "dcom/orpc.h"
#include "msmq/message.h"
#include "obs/metrics.h"
#include "opc/tag_store.h"
#include "opc/value.h"
#include "sim/simulation.h"

namespace {

using namespace oftt;

void BM_BinaryWriterSmallMessage(benchmark::State& state) {
  for (auto _ : state) {
    BinaryWriter w;
    w.u64(123456);
    w.str("component.name");
    w.i32(-1);
    w.guid(Guid::from_name("IID_IOPCServer"));
    benchmark::DoNotOptimize(w.data().data());
  }
}
BENCHMARK(BM_BinaryWriterSmallMessage);

void BM_BinaryReaderSmallMessage(benchmark::State& state) {
  BinaryWriter w;
  w.u64(123456);
  w.str("component.name");
  w.i32(-1);
  Buffer b = std::move(w).take();
  for (auto _ : state) {
    BinaryReader r(b);
    benchmark::DoNotOptimize(r.u64());
    benchmark::DoNotOptimize(r.str());
    benchmark::DoNotOptimize(r.i32());
  }
}
BENCHMARK(BM_BinaryReaderSmallMessage);

void BM_GuidFromName(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Guid::from_name("CLSID_SomeLongCoClassName"));
  }
}
BENCHMARK(BM_GuidFromName);

void BM_Fnv64(benchmark::State& state) {
  Buffer b(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fnv64(b));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fnv64)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_Crc32c(benchmark::State& state) {
  Buffer b(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(b));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_OrpcRequestRoundTrip(benchmark::State& state) {
  dcom::RequestPacket req;
  req.call_id = 42;
  req.oid = 7;
  req.iid = Guid::from_name("IID_IOPCGroup");
  req.method = 3;
  req.args = Buffer(128, 1);
  req.reply_node = 2;
  req.reply_port = "orpcc.app";
  for (auto _ : state) {
    Buffer b = dcom::encode_request(req);
    dcom::RequestPacket out;
    dcom::decode_request(b, out);
    benchmark::DoNotOptimize(out.call_id);
  }
}
BENCHMARK(BM_OrpcRequestRoundTrip);

void BM_OpcItemStatesMarshal(benchmark::State& state) {
  std::vector<opc::ItemState> items;
  for (int i = 0; i < state.range(0); ++i) {
    items.push_back({"Device.Tag" + std::to_string(i), opc::OpcValue::from_real(1.5 * i),
                     opc::Quality::kGood, sim::seconds(1)});
  }
  for (auto _ : state) {
    std::vector<opc::ItemState> out;
    benchmark::DoNotOptimize(codec::decode(codec::encode(items), out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OpcItemStatesMarshal)->Arg(1)->Arg(16)->Arg(256);

void BM_MsmqMessageMarshal(benchmark::State& state) {
  msmq::Message m;
  m.id = 0xABCDEF;
  m.src_node = 1;
  m.queue = "calltrack.events";
  m.label = "call";
  m.body = Buffer(static_cast<std::size_t>(state.range(0)), 7);
  m.mode = msmq::DeliveryMode::kRecoverable;
  for (auto _ : state) {
    const Buffer b = codec::encode(m);
    msmq::Message out;
    benchmark::DoNotOptimize(codec::decode(b, out));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MsmqMessageMarshal)->Arg(16)->Arg(1024);

void BM_CheckpointCaptureFull(benchmark::State& state) {
  sim::Simulation sim(1);
  sim::Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("app", nullptr);
  auto& rt = nt::NtRuntime::of(*proc);
  rt.memory().alloc("globals", static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto img = core::capture_checkpoint(rt, core::CheckpointMode::kFull, {}, 1, 1, {});
    benchmark::DoNotOptimize(img.marshal().size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointCaptureFull)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_CheckpointCaptureSelective(benchmark::State& state) {
  sim::Simulation sim(1);
  sim::Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("app", nullptr);
  auto& rt = nt::NtRuntime::of(*proc);
  rt.memory().alloc("globals", static_cast<std::size_t>(state.range(0)));
  std::vector<core::CellSpec> cells{{"globals", 0, 32}};
  for (auto _ : state) {
    auto img = core::capture_checkpoint(rt, core::CheckpointMode::kSelective, cells, 1, 1, {});
    benchmark::DoNotOptimize(img.marshal().size());
  }
}
BENCHMARK(BM_CheckpointCaptureSelective)->Arg(1 << 10)->Arg(1 << 20);

void BM_CheckpointRestore(benchmark::State& state) {
  sim::Simulation sim(1);
  sim::Node& node = sim.add_node("n");
  node.boot();
  auto src = node.start_process("src", nullptr);
  auto dst = node.start_process("dst", nullptr);
  auto& srt = nt::NtRuntime::of(*src);
  auto& drt = nt::NtRuntime::of(*dst);
  srt.memory().alloc("globals", static_cast<std::size_t>(state.range(0)));
  drt.memory().alloc("globals", static_cast<std::size_t>(state.range(0)));
  auto img = core::capture_checkpoint(srt, core::CheckpointMode::kFull, {}, 1, 1, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::restore_checkpoint(drt, img));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointRestore)->Arg(1 << 16)->Arg(1 << 20);

void BM_TagStoreIntern(benchmark::State& state) {
  // A farm-sized store built from scratch, as every app (re)start does:
  // 2^18 fresh names through the name index.
  std::vector<std::string> names;
  for (int i = 0; i < (1 << 18); ++i) names.push_back(cat("p", i));
  for (auto _ : state) {
    opc::TagStore store(32);
    for (const std::string& n : names) store.intern(n);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(names.size()));
}
BENCHMARK(BM_TagStoreIntern)->Unit(benchmark::kMillisecond);

/// Warm-passive pair app whose whole state is one region of `bytes`.
class RegionApp {
 public:
  RegionApp(sim::Process& process, std::size_t bytes) {
    auto& rt = nt::NtRuntime::of(process);
    rt.create_thread_static("main", 0x1000);
    rt.memory().alloc("globals", bytes);
    core::FtimOptions f;
    f.replication = core::ReplicationMode::kWarmPassive;
    f.full_checkpoint_interval = 1;  // every capture is a full image
    f.checkpoint_period = sim::seconds(3600);
    f.delta_stream_period = sim::seconds(3600);  // only save_now() captures
    core::OFTTInitialize(process, f);
  }
};

void BM_CheckpointPairHop(benchmark::State& state) {
  // One full image from capture on the primary to restore on the backup:
  // marshal, journal, transmit, deliver, unmarshal, journal, fold.
  const auto bytes = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim(1);
  core::PairDeploymentOptions opts;
  opts.engine.replication = core::ReplicationMode::kWarmPassive;
  opts.with_msmq = false;
  opts.with_monitor = false;
  opts.app_factory = [bytes](sim::Process& proc) { proc.attachment<RegionApp>(proc, bytes); };
  core::PairDeployment dep(sim, opts);
  sim.run_for(sim::seconds(3));
  core::Ftim& primary = *dep.ftim_on(*dep.node_by_id(dep.primary_node()));
  core::Ftim& backup = *dep.ftim_on(*dep.node_by_id(dep.backup_node()));
  for (auto _ : state) {
    const std::uint64_t before = backup.full_checkpoints_received();
    primary.save_now();
    while (backup.full_checkpoints_received() == before && sim.step()) {
    }
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointPairHop)->Arg(1 << 20)->Arg(6 << 20)->Unit(benchmark::kMicrosecond);

void BM_StatusReportEncode(benchmark::State& state) {
  core::StatusReport sr;
  sr.unit = "calltrack";
  sr.node = 1;
  sr.role = core::Role::kPrimary;
  for (int i = 0; i < 8; ++i) {
    sr.components.push_back(
        {"component" + std::to_string(i), core::ComponentState::kUp, 0, 12345});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sr.encode().size());
  }
}
BENCHMARK(BM_StatusReportEncode);

void BM_CounterStringMapLookup(benchmark::State& state) {
  // The pre-refactor hot path: every datagram built a key string and
  // walked a string-keyed map (the old Simulation::counter(std::string)
  // interface). Kept as the "before" half of the comparison.
  std::map<std::string, std::uint64_t, std::less<>> counters;
  const std::string suffix = "deliver";
  for (auto _ : state) {
    counters[cat("node.", suffix, ".count")] += 1;
  }
  benchmark::DoNotOptimize(counters);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterStringMapLookup);

void BM_CounterHandleInc(benchmark::State& state) {
  // The post-refactor hot path: the handle is resolved once at component
  // construction; per datagram it is a null-checked pointer increment.
  obs::MetricsRegistry metrics;
  obs::Counter c = metrics.counter("node.deliver.count");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterHandleInc);

void BM_SimulationEventThroughput(benchmark::State& state) {
  // How many discrete events per second the kernel itself sustains.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim(1);
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(i, [&fired] { ++fired; });
    }
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulationEventThroughput);

}  // namespace

BENCHMARK_MAIN();
