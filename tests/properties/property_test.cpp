// Property-style parameterized suites (TEST_P sweeps) over the
// system's core invariants:
//  * event-queue behaviour matches a reference model under random
//    schedule/cancel workloads;
//  * MSMQ delivers exactly-once under any loss rate;
//  * checkpoints round-trip bit-exactly for any size/mode;
//  * failover preserves the single-primary invariant across
//    detection-timing configurations.
#include <gtest/gtest.h>

#include <map>

#include "common/strings.h"
#include "core/deployment.h"
#include "msmq/queue_manager.h"
#include "sim/disk.h"
#include "sim/simulation.h"
#include "store/journal.h"
#include "support/counter_app.h"

namespace oftt {
namespace {

// ---------------------------------------------------------------------
// Event queue vs reference model
// ---------------------------------------------------------------------

class EventQueueModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModel, MatchesReferenceUnderRandomWorkload) {
  sim::Rng rng(GetParam());
  sim::Simulation sim(1);
  // Reference: map time -> fifo list of ids, with a cancelled set.
  std::multimap<sim::SimTime, int> model;
  std::set<int> cancelled;
  std::vector<sim::EventHandle> handles;
  std::vector<int> fired;
  int next_id = 0;

  for (int step = 0; step < 500; ++step) {
    double action = rng.next_double();
    if (action < 0.7) {
      sim::SimTime at = sim.now() + rng.uniform(0, 1000);
      int id = next_id++;
      handles.push_back(sim.schedule_at(at, [id, &fired] { fired.push_back(id); }));
      model.emplace(at, id);
    } else if (!handles.empty()) {
      std::size_t pick = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(handles.size()) - 1));
      sim.cancel(handles[pick]);
      cancelled.insert(static_cast<int>(pick));
    }
  }
  sim.run();

  // Expected: all scheduled, in (time, insertion) order, minus cancelled.
  std::vector<int> expected;
  for (const auto& [at, id] : model) {
    if (!cancelled.count(id)) expected.push_back(id);
  }
  // Cancellation maps handle index == id here (insertion order).
  EXPECT_EQ(fired, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModel, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// MSMQ exactly-once under loss
// ---------------------------------------------------------------------

struct LossCase {
  double loss;
  int messages;
};

class MsmqLossSweep : public ::testing::TestWithParam<LossCase> {};

TEST_P(MsmqLossSweep, ExactlyOnceDeliveryUnderLoss) {
  const LossCase& c = GetParam();
  sim::Simulation sim(static_cast<std::uint64_t>(c.loss * 1000) + 3);
  sim::Node& a = sim.add_node("a");
  sim::Node& b = sim.add_node("b");
  auto& net = sim.add_network("lan");
  net.attach(a.id());
  net.attach(b.id());
  net.set_loss(c.loss);
  a.set_boot_script([](sim::Node& n) { msmq::QueueManager::install(n); });
  b.set_boot_script([](sim::Node& n) { msmq::QueueManager::install(n); });
  a.boot();
  b.boot();
  auto sender = a.start_process("src", nullptr);
  auto receiver = b.start_process("dst", nullptr);
  msmq::QueueManager::find(a)->set_route("q", b.id());

  std::multiset<std::string> got;
  msmq::MsmqApi::of(*receiver).subscribe("q", [&](const msmq::Message& m) {
    got.insert(m.label);
  });
  for (int i = 0; i < c.messages; ++i) {
    msmq::MsmqApi::of(*sender).send("q", cat("m", i), Buffer{});
  }
  sim.run_for(sim::seconds(60));
  ASSERT_EQ(got.size(), static_cast<std::size_t>(c.messages));
  for (int i = 0; i < c.messages; ++i) {
    EXPECT_EQ(got.count(cat("m", i)), 1u) << "message " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, MsmqLossSweep,
                         ::testing::Values(LossCase{0.0, 40}, LossCase{0.1, 40},
                                           LossCase{0.3, 40}, LossCase{0.5, 30},
                                           LossCase{0.7, 20}),
                         [](const ::testing::TestParamInfo<LossCase>& info) {
                           return "loss" +
                                  std::to_string(static_cast<int>(info.param.loss * 100));
                         });

// ---------------------------------------------------------------------
// Checkpoint round-trip fidelity
// ---------------------------------------------------------------------

struct CkptCase {
  std::size_t size;
  core::CheckpointMode mode;
};

class CheckpointSweep : public ::testing::TestWithParam<CkptCase> {};

TEST_P(CheckpointSweep, RoundTripsBitExactly) {
  const CkptCase& c = GetParam();
  sim::Simulation sim(9);
  sim::Node& node = sim.add_node("n");
  node.boot();
  auto src = node.start_process("src", nullptr);
  auto dst = node.start_process("dst", nullptr);
  auto& srt = nt::NtRuntime::of(*src);
  auto& drt = nt::NtRuntime::of(*dst);
  auto& region = srt.memory().alloc("globals", c.size);
  sim::Rng rng(c.size);
  for (std::size_t i = 0; i < c.size; ++i) {
    region.data()[i] = static_cast<std::uint8_t>(rng.next_u64());
  }
  std::vector<core::CellSpec> cells;
  if (c.mode == core::CheckpointMode::kSelective) {
    for (std::uint32_t off = 0; off + 16 <= c.size && cells.size() < 8; off += 128) {
      cells.push_back({"globals", off, 16});
    }
  }
  auto img = core::capture_checkpoint(srt, c.mode, cells, 1, 1, {});
  // Through the marshaling layer, as the wire would carry it.
  core::CheckpointImage decoded;
  ASSERT_TRUE(core::CheckpointImage::unmarshal(img.marshal(), decoded));
  drt.memory().alloc("globals", c.size);
  ASSERT_EQ(core::restore_checkpoint(drt, decoded), 0);

  auto* dst_region = drt.memory().find("globals");
  if (c.mode == core::CheckpointMode::kFull) {
    EXPECT_EQ(dst_region->snapshot(), region.snapshot());
  } else {
    for (const auto& cell : cells) {
      for (std::uint32_t i = 0; i < cell.size; ++i) {
        EXPECT_EQ(dst_region->data()[cell.offset + i], region.data()[cell.offset + i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndModes, CheckpointSweep,
    ::testing::Values(CkptCase{16, core::CheckpointMode::kFull},
                      CkptCase{1024, core::CheckpointMode::kFull},
                      CkptCase{65536, core::CheckpointMode::kFull},
                      CkptCase{1 << 20, core::CheckpointMode::kFull},
                      CkptCase{1024, core::CheckpointMode::kSelective},
                      CkptCase{65536, core::CheckpointMode::kSelective}),
    [](const ::testing::TestParamInfo<CkptCase>& info) {
      return (info.param.mode == core::CheckpointMode::kFull ? "full" : "sel") +
             std::to_string(info.param.size);
    });

// ---------------------------------------------------------------------
// Single-primary invariant across detection configurations
// ---------------------------------------------------------------------

struct FailoverCase {
  sim::SimTime heartbeat;
  int timeout_multiple;
  std::uint64_t seed;
};

class FailoverSweep : public ::testing::TestWithParam<FailoverCase> {};

TEST_P(FailoverSweep, ExactlyOnePrimaryAfterCrashAndRecovery) {
  const FailoverCase& c = GetParam();
  sim::Simulation sim(c.seed);
  core::PairDeploymentOptions opts;
  opts.engine.heartbeat_period = c.heartbeat;
  opts.engine.peer_timeout = c.heartbeat * c.timeout_multiple;
  opts.engine.component_timeout = c.heartbeat * c.timeout_multiple;
  opts.app_factory = [](sim::Process& proc) {
    proc.attachment<testsupport::CounterApp>(proc);
  };
  core::PairDeployment dep(sim, opts);
  sim.run_for(sim::seconds(5));
  ASSERT_NE(dep.primary_node(), -1);

  dep.node_a().os_crash(sim::seconds(4));  // crash + rejoin
  sim.run_for(sim::seconds(15));

  int primaries = 0;
  if (dep.engine_a() && dep.engine_a()->role() == core::Role::kPrimary) ++primaries;
  if (dep.engine_b() && dep.engine_b()->role() == core::Role::kPrimary) ++primaries;
  EXPECT_EQ(primaries, 1);
  EXPECT_EQ(dep.backup_node(), dep.node_a().id());
  // The unit still works.
  auto* app = testsupport::CounterApp::find(*dep.node_by_id(dep.primary_node()));
  ASSERT_NE(app, nullptr);
  std::int64_t before = app->count();
  sim.run_for(sim::seconds(2));
  EXPECT_GT(app->count(), before);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FailoverSweep,
    ::testing::Values(FailoverCase{sim::milliseconds(20), 4, 1},
                      FailoverCase{sim::milliseconds(50), 3, 2},
                      FailoverCase{sim::milliseconds(100), 5, 3},
                      FailoverCase{sim::milliseconds(100), 5, 4},
                      FailoverCase{sim::milliseconds(200), 3, 5},
                      FailoverCase{sim::milliseconds(500), 2, 6}),
    [](const ::testing::TestParamInfo<FailoverCase>& info) {
      return "hb" + std::to_string(info.param.heartbeat / 1'000'000) + "ms_x" +
             std::to_string(info.param.timeout_multiple) + "_s" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------
// Cluster wire messages: round-trip under fuzzed contents, fail-closed
// under version skew, and graceful rejection of every truncation.
// ---------------------------------------------------------------------

std::string random_string(sim::Rng& rng, int max_len = 12) {
  static const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ._-/'\"\\";
  std::string s;
  std::int64_t n = rng.uniform(0, max_len);
  for (std::int64_t i = 0; i < n; ++i) {
    s += alphabet[rng.uniform(0, static_cast<std::int64_t>(sizeof alphabet) - 2)];
  }
  return s;
}

cluster::MembershipView random_view(sim::Rng& rng) {
  cluster::MembershipView v;
  v.version = static_cast<std::uint64_t>(rng.uniform(0, 1'000'000));
  v.incarnation = static_cast<std::uint32_t>(rng.uniform(0, 100'000));
  std::int64_t n = rng.uniform(1, 9);
  for (std::int64_t i = 0; i < n; ++i) {
    cluster::Member m;
    m.node = static_cast<int>(rng.uniform(0, 1'000));
    m.rank = static_cast<int>(i);
    m.role = static_cast<cluster::MemberRole>(rng.uniform(0, 3));
    v.members.push_back(m);
  }
  return v;
}

/// Every strict prefix of a well-formed frame must be rejected (the
/// reader fails closed on underflow), and so must a frame claiming an
/// unknown cluster wire version.
template <typename Msg>
void check_rejections(const Buffer& frame) {
  for (std::size_t len = 0; len < frame.size(); ++len) {
    Buffer prefix(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len));
    Msg out;
    EXPECT_FALSE(Msg::decode(prefix, out)) << "truncated to " << len << " bytes";
  }
  for (std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{core::kClusterWireVersion + 1},
                           std::uint8_t{0xFF}}) {
    Buffer skewed = frame;
    skewed[1] = bad;  // [0] is the kind byte, [1] the version tag
    Msg out;
    EXPECT_FALSE(Msg::decode(skewed, out))
        << "version " << int(bad) << " must fail closed";
  }
}

class ClusterWireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterWireFuzz, ViewGossipRoundTrips) {
  sim::Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    core::ViewGossip g;
    g.from_node = static_cast<int>(rng.uniform(-1, 1'000));
    g.unit = random_string(rng);
    g.view = random_view(rng);
    Buffer frame = g.encode();
    core::ViewGossip out;
    ASSERT_TRUE(core::ViewGossip::decode(frame, out));
    EXPECT_EQ(out.from_node, g.from_node);
    EXPECT_EQ(out.unit, g.unit);
    EXPECT_EQ(out.view, g.view);
    if (iter == 0) check_rejections<core::ViewGossip>(frame);
  }
}

TEST_P(ClusterWireFuzz, PromoteRequestRoundTrips) {
  sim::Rng rng(GetParam() + 1000);
  for (int iter = 0; iter < 50; ++iter) {
    core::PromoteRequest req;
    req.candidate = static_cast<int>(rng.uniform(-1, 1'000));
    req.unit = random_string(rng);
    req.incarnation = static_cast<std::uint32_t>(rng.uniform(0, 1'000'000));
    req.view_version = static_cast<std::uint64_t>(rng.uniform(0, 1'000'000'000));
    req.reason = random_string(rng, 40);
    Buffer frame = req.encode();
    core::PromoteRequest out;
    ASSERT_TRUE(core::PromoteRequest::decode(frame, out));
    EXPECT_EQ(out.candidate, req.candidate);
    EXPECT_EQ(out.unit, req.unit);
    EXPECT_EQ(out.incarnation, req.incarnation);
    EXPECT_EQ(out.view_version, req.view_version);
    EXPECT_EQ(out.reason, req.reason);
    if (iter == 0) check_rejections<core::PromoteRequest>(frame);
  }
}

TEST_P(ClusterWireFuzz, PromoteAckRoundTrips) {
  sim::Rng rng(GetParam() + 2000);
  for (int iter = 0; iter < 50; ++iter) {
    core::PromoteAck ack;
    ack.voter = static_cast<int>(rng.uniform(-1, 1'000));
    ack.candidate = static_cast<int>(rng.uniform(-1, 1'000));
    ack.incarnation = static_cast<std::uint32_t>(rng.uniform(0, 1'000'000));
    ack.granted = rng.chance(0.5);
    Buffer frame = ack.encode();
    core::PromoteAck out;
    ASSERT_TRUE(core::PromoteAck::decode(frame, out));
    EXPECT_EQ(out.voter, ack.voter);
    EXPECT_EQ(out.candidate, ack.candidate);
    EXPECT_EQ(out.incarnation, ack.incarnation);
    EXPECT_EQ(out.granted, ack.granted);
    if (iter == 0) check_rejections<core::PromoteAck>(frame);
  }
}

TEST_P(ClusterWireFuzz, StatusReportCarriesViewAcrossVersionsOfItself) {
  sim::Rng rng(GetParam() + 3000);
  for (int iter = 0; iter < 50; ++iter) {
    core::StatusReport sr;
    sr.unit = random_string(rng);
    sr.node = static_cast<int>(rng.uniform(-1, 1'000));
    sr.role = static_cast<core::Role>(rng.uniform(0, 3));
    sr.incarnation = static_cast<std::uint32_t>(rng.uniform(0, 1'000'000));
    sr.peer_visible = rng.chance(0.5);
    if (rng.chance(0.5)) sr.view = random_view(rng);  // else pair mode: empty
    Buffer frame = sr.encode();
    core::StatusReport out;
    ASSERT_TRUE(core::StatusReport::decode(frame, out));
    EXPECT_EQ(out.unit, sr.unit);
    EXPECT_EQ(out.node, sr.node);
    EXPECT_EQ(out.view, sr.view);
    EXPECT_EQ(out.view.members.empty(), sr.view.members.empty());
  }
}

TEST(ClusterWire, MembershipDecodeRejectsUnknownRole) {
  cluster::MembershipView v = cluster::MembershipView::initial({1, 2});
  Buffer frame = codec::encode(v);
  // The role byte of the first member: version u64 + incarnation u32 +
  // count u16 + node i32 + rank i32 = offset 22.
  frame[22] = 0x7F;
  cluster::MembershipView out;
  EXPECT_FALSE(codec::decode(frame, out));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterWireFuzz,
                         ::testing::Values(1, 7, 42, 1337, 9001));

// ---------------------------------------------------------------------
// Durable journal: any random sequence of appends, rotations,
// compactions, clean reopens and tail-tearing crashes always recovers a
// contiguous window of the durable history, and recover_image() always
// folds to the newest durable snapshot-plus-chain.
// ---------------------------------------------------------------------

bool same_record(const store::Record& a, const store::Record& b) {
  return a.type == b.type && a.id == b.id && a.base == b.base && a.payload == b.payload;
}

/// Reference fold, written from the spec: newest snapshot, then every
/// delta whose base continues the chain.
store::RecoveredImage reference_fold(const std::vector<store::Record>& records) {
  store::RecoveredImage img;
  std::ptrdiff_t snap = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(records.size()) - 1; i >= 0; --i) {
    if (records[static_cast<std::size_t>(i)].type == store::RecordType::kSnapshot) {
      snap = i;
      break;
    }
  }
  if (snap < 0) return img;
  img.valid = true;
  img.snapshot = records[static_cast<std::size_t>(snap)].payload;
  img.snapshot_id = records[static_cast<std::size_t>(snap)].id;
  img.last_id = img.snapshot_id;
  for (std::size_t i = static_cast<std::size_t>(snap) + 1; i < records.size(); ++i) {
    if (records[i].type != store::RecordType::kDelta) continue;
    if (records[i].base != img.last_id) continue;
    img.last_id = records[i].id;
    img.deltas.push_back(records[i]);
  }
  return img;
}

class JournalModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JournalModel, AlwaysRecoversNewestDurableWindow) {
  sim::Rng rng(GetParam());
  sim::Simulation sim(1);
  auto& disk = sim::DiskStore::of(sim);
  store::JournalOptions opts;
  opts.segment_bytes = 96;  // a couple of records per segment
  opts.auto_compact = false;
  auto journal = std::make_unique<store::Journal>(sim, 0, "prop.j", opts);

  // `history` is the durable record window the journal must recover:
  // compaction trims its front, a crash tears records off its back.
  std::vector<store::Record> history;
  std::uint64_t next_id = 1;
  std::uint64_t last_id = 0;

  // Compaction trims the FRONT of the history (rec is a suffix window);
  // a crash tears records off the BACK (rec is a prefix). `torn` picks
  // which side the model reconciles.
  auto check = [&](const char* when, bool torn) {
    std::vector<store::Record> rec = journal->recover();
    ASSERT_LE(rec.size(), history.size()) << when;
    std::size_t lo = torn ? 0 : history.size() - rec.size();
    for (std::size_t i = 0; i < rec.size(); ++i) {
      ASSERT_TRUE(same_record(rec[i], history[lo + i]))
          << when << ": record " << i << " diverged from the model";
    }
    if (torn) {
      history.resize(rec.size());
    } else {
      history.erase(history.begin(), history.begin() + static_cast<std::ptrdiff_t>(lo));
    }
    // Whatever survives, the folded image must match the reference fold.
    store::RecoveredImage img = journal->recover_image();
    store::RecoveredImage want = reference_fold(history);
    ASSERT_EQ(img.valid, want.valid) << when;
    if (want.valid) {
      EXPECT_EQ(img.snapshot_id, want.snapshot_id) << when;
      EXPECT_EQ(img.snapshot, want.snapshot) << when;
      EXPECT_EQ(img.last_id, want.last_id) << when;
      ASSERT_EQ(img.deltas.size(), want.deltas.size()) << when;
      for (std::size_t i = 0; i < img.deltas.size(); ++i) {
        EXPECT_TRUE(same_record(img.deltas[i], want.deltas[i])) << when;
      }
    }
  };

  for (int step = 0; step < 250; ++step) {
    double action = rng.next_double();
    if (action < 0.60) {
      // Append: mostly deltas chaining from the last record, some
      // snapshots and some opaque messages.
      double kind = rng.next_double();
      store::Record r;
      r.id = next_id++;
      if (kind < 0.15) {
        r.type = store::RecordType::kSnapshot;
        r.base = 0;
      } else if (kind < 0.75) {
        r.type = store::RecordType::kDelta;
        r.base = last_id;
      } else {
        r.type = store::RecordType::kMessage;
        r.base = 0;
      }
      r.payload.resize(static_cast<std::size_t>(rng.uniform(0, 48)));
      for (auto& b : r.payload) b = static_cast<std::uint8_t>(rng.next_u64());
      ASSERT_TRUE(journal->append(r.type, r.id, r.base, r.payload));
      last_id = r.id;
      history.push_back(std::move(r));
    } else if (action < 0.70) {
      journal->compact();  // model effect verified by check()
    } else if (action < 0.85) {
      // Clean reopen: a restart with an intact disk loses nothing.
      std::size_t before = history.size();
      journal = std::make_unique<store::Journal>(sim, 0, "prop.j", opts);
      ASSERT_NO_FATAL_FAILURE(check("clean reopen", /*torn=*/false));
      ASSERT_EQ(history.size(), before) << "clean reopen must not lose records";
      continue;
    } else {
      // Crash: tear random bytes off the newest segment, then reboot.
      auto keys = disk.keys_with_prefix(0, "prop.j.seg.");
      if (!keys.empty()) {
        const std::string& key = keys.back();
        Buffer seg = *disk.read(0, key);
        if (!seg.empty()) {
          std::size_t cut = static_cast<std::size_t>(
              rng.uniform(1, std::min<std::int64_t>(40, static_cast<std::int64_t>(seg.size()))));
          seg.resize(seg.size() - cut);
          disk.write(0, key, seg);
        }
      }
      journal = std::make_unique<store::Journal>(sim, 0, "prop.j", opts);
      // The torn suffix is gone; everything in front of it survives.
      ASSERT_NO_FATAL_FAILURE(check("crash reopen", /*torn=*/true));
      // Chain future deltas from what actually survived.
      last_id = history.empty() ? 0 : history.back().id;
      continue;
    }
    ASSERT_NO_FATAL_FAILURE(check("after op", /*torn=*/false));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalModel, ::testing::Values(11, 23, 47, 101, 211));

}  // namespace
}  // namespace oftt
