// Transport session properties, exercised across seeds and fault mixes:
// exactly-once in-order delivery per receiver lifetime under loss,
// duplication, latency reorder and partitions; session reset on either
// side's reboot; cancel/void semantics; queue policies and window
// backpressure. The chaos and failover suites cover the integrated
// callers — this file attacks the Endpoint directly.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "sim/simulation.h"
#include "transport/session.h"

namespace oftt::transport {
namespace {

constexpr const char* kPort = "xport";

Buffer numbered(std::uint64_t v) {
  BinaryWriter w;
  w.u64(v);
  return std::move(w).take();
}

/// Process attachment owning one Endpoint; delivered payload values are
/// appended to an external log that outlives process reboots.
class TestPeer {
 public:
  TestPeer(sim::Process& p, std::vector<std::uint64_t>* log, SessionConfig config) {
    const sim::PortId port = p.sim().port(kPort);
    p.bind(port, [this](const sim::Datagram& d) { ep_->handle(d); });
    ep_ = std::make_unique<Endpoint>(p.main_strand(), port, std::move(config));
    ep_->on_deliver([log](int, int, ByteView b) {
      BinaryReader r(b);
      log->push_back(r.u64());
    });
  }
  Endpoint& ep() { return *ep_; }

 private:
  std::unique_ptr<Endpoint> ep_;
};

struct Harness {
  explicit Harness(std::uint64_t seed) : sim(seed) {
    a = &sim.add_node("a");
    b = &sim.add_node("b");
    net = &sim.add_network("lan");
    net->attach(a->id());
    net->attach(b->id());
    a->boot();
    b->boot();
  }

  TestPeer& install(sim::Node& n, std::vector<std::uint64_t>* log,
                    SessionConfig config = {}) {
    auto proc = n.start_process("xp", nullptr);
    return proc->attachment<TestPeer>(*proc, log, std::move(config));
  }

  sim::Simulation sim;
  sim::Node* a;
  sim::Node* b;
  sim::Network* net;
};

std::vector<std::uint64_t> iota1(std::uint64_t n) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

bool strictly_increasing(const std::vector<std::uint64_t>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return false;
  }
  return true;
}

TEST(Transport, ExactlyOnceInOrderUnderLossDupAndReorderAcrossSeeds) {
  std::uint64_t total_retransmits = 0, total_rx_dups = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    Harness h(seed);
    h.net->set_loss(0.25);
    h.net->set_duplicate(0.20);
    h.net->set_latency(sim::microseconds(100), sim::milliseconds(8));
    std::vector<std::uint64_t> got;
    TestPeer& tx = h.install(*h.a, nullptr);
    TestPeer& rx = h.install(*h.b, &got);
    for (std::uint64_t i = 1; i <= 200; ++i) {
      ASSERT_TRUE(tx.ep().send(h.b->id(), numbered(i)));
    }
    h.sim.run_for(sim::seconds(30));
    EXPECT_EQ(got, iota1(200)) << "gaps, dups or reorder leaked through";
    EXPECT_EQ(tx.ep().inflight_bytes(), 0u) << "everything acked";
    total_retransmits += tx.ep().retransmits();
    total_rx_dups += rx.ep().duplicate_frames();
  }
  // With 25% loss and 20% duplication the faults must actually have
  // been exercised, not quietly absent.
  EXPECT_GT(total_retransmits, 0u);
  EXPECT_GT(total_rx_dups, 0u);
}

TEST(Transport, RefusedDeliveryIsNotAckedAndComesBackByRetransmission) {
  Harness h(3);
  std::vector<std::uint64_t> got;
  TestPeer& tx = h.install(*h.a, nullptr);
  TestPeer& rx = h.install(*h.b, nullptr);
  int refusals = 3;  // the receiver's disk refuses its first three tries
  rx.ep().on_deliver([&](int, int, ByteView b) {
    if (refusals-- > 0) {
      rx.ep().refuse();
      return;
    }
    BinaryReader r(b);
    got.push_back(r.u64());
  });
  std::uint64_t acked = 0;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(tx.ep().send(h.b->id(), numbered(i), i, [&](std::uint64_t tag) { acked = tag; }));
  }
  h.sim.run_for(sim::milliseconds(20));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(acked, 0u) << "nothing refused is acknowledged";
  h.sim.run_for(sim::seconds(5));
  EXPECT_EQ(got, iota1(5)) << "each frame delivered once, in order";
  EXPECT_EQ(acked, 5u);
  EXPECT_GT(tx.ep().retransmits(), 0u);
}

TEST(Transport, PartitionStallsThenHealDeliversEverything) {
  for (std::uint64_t seed : {7u, 8u, 9u, 10u, 11u}) {
    SCOPED_TRACE(seed);
    Harness h(seed);
    std::vector<std::uint64_t> got;
    TestPeer& tx = h.install(*h.a, nullptr);
    h.install(*h.b, &got);
    h.net->partition({{h.a->id()}, {h.b->id()}});
    for (std::uint64_t i = 1; i <= 50; ++i) {
      ASSERT_TRUE(tx.ep().send(h.b->id(), numbered(i)));
    }
    h.sim.run_for(sim::seconds(2));
    EXPECT_TRUE(got.empty()) << "partition must block delivery";
    h.net->heal();
    h.sim.run_for(sim::seconds(5));
    EXPECT_EQ(got, iota1(50)) << "retransmission must drain the backlog after heal";
  }
}

TEST(Transport, ReceiverRebootResetsSessionInOrderPerLifetime) {
  for (std::uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    SCOPED_TRACE(seed);
    Harness h(seed);
    h.net->set_loss(0.05);
    std::vector<std::uint64_t> life1, life2;
    TestPeer& tx = h.install(*h.a, nullptr);
    h.install(*h.b, &life1);
    // Paced sends so the reboot lands mid-stream.
    for (std::uint64_t i = 1; i <= 100; ++i) {
      h.sim.schedule_at(sim::milliseconds(i * 5), [&tx, &h, i] {
        tx.ep().send(h.b->id(), numbered(i));
      });
    }
    h.sim.schedule_at(sim::milliseconds(250), [&h] { h.b->crash(); });
    h.sim.schedule_at(sim::milliseconds(300), [&h, &life2] {
      h.b->boot();
      h.install(*h.b, &life2);
    });
    h.sim.run_for(sim::seconds(10));

    // Each receiver lifetime sees an in-order, duplicate-free stream.
    EXPECT_TRUE(strictly_increasing(life1));
    EXPECT_TRUE(strictly_increasing(life2));
    ASSERT_FALSE(life2.empty());
    EXPECT_EQ(life2.back(), 100u) << "stream must complete after the reset";
    // Nothing is lost across the reboot: frames unacked at the crash are
    // re-dispatched under the fresh epoch (cross-lifetime duplicates are
    // allowed — that is the application dedup layer's job).
    std::set<std::uint64_t> seen(life1.begin(), life1.end());
    seen.insert(life2.begin(), life2.end());
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_GE(tx.ep().session_resets(), 1u)
        << "sender must notice the peer's new incarnation";
  }
}

TEST(Transport, SenderRebootStartsFreshEpochReceiverFollows) {
  for (std::uint64_t seed : {31u, 32u, 33u, 34u, 35u}) {
    SCOPED_TRACE(seed);
    Harness h(seed);
    std::vector<std::uint64_t> got;
    TestPeer& rx = h.install(*h.b, &got);
    auto proc1 = h.a->start_process("xp", nullptr);
    TestPeer& tx1 = proc1->attachment<TestPeer>(*proc1, nullptr, SessionConfig{});
    for (std::uint64_t i = 1; i <= 30; ++i) {
      ASSERT_TRUE(tx1.ep().send(h.b->id(), numbered(i)));
    }
    h.sim.run_for(sim::milliseconds(100));
    // Sender process dies; its unacked frames die with it.
    proc1->kill("mid-stream crash");
    h.sim.run_for(sim::milliseconds(100));
    std::size_t from_first = got.size();
    EXPECT_EQ(got, iota1(from_first)) << "first lifetime delivered a clean prefix";

    // The reborn sender's endpoint opens a strictly newer epoch, so the
    // receiver adopts it and the old stream can never interleave.
    auto proc2 = h.a->start_process("xp2", nullptr);
    TestPeer& tx2 = proc2->attachment<TestPeer>(*proc2, nullptr, SessionConfig{});
    for (std::uint64_t i = 1; i <= 20; ++i) {
      ASSERT_TRUE(tx2.ep().send(h.b->id(), numbered(1000 + i)));
    }
    h.sim.run_for(sim::seconds(5));
    ASSERT_EQ(got.size(), from_first + 20);
    for (std::uint64_t i = 0; i < 20; ++i) {
      EXPECT_EQ(got[from_first + i], 1001 + i);
    }
    EXPECT_EQ(rx.ep().stale_frames(), 0u)
        << "nothing from the dead epoch should arrive after adoption";
  }
}

TEST(Transport, CancelVoidsInflightWithoutStallingSuccessors) {
  Harness h(42);
  std::vector<std::uint64_t> got;
  TestPeer& tx = h.install(*h.a, nullptr);
  h.install(*h.b, &got);
  h.net->partition({{h.a->id()}, {h.b->id()}});
  ASSERT_TRUE(tx.ep().send(h.b->id(), numbered(1), /*tag=*/1));
  ASSERT_TRUE(tx.ep().send(h.b->id(), numbered(2), /*tag=*/2));
  ASSERT_TRUE(tx.ep().send(h.b->id(), numbered(3), /*tag=*/3));
  h.sim.run_for(sim::milliseconds(50));
  EXPECT_EQ(tx.ep().cancel(h.b->id(), 2), 1u);
  h.net->heal();
  h.sim.run_for(sim::seconds(3));
  // The voided slot completes empty: 3 is not stalled behind it, and 2
  // is never delivered.
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(tx.ep().acked_tag(h.b->id(), kClassControl), 3u);
}

TEST(Transport, AckCallbackAndTagWatermark) {
  Harness h(43);
  std::vector<std::uint64_t> got;
  TestPeer& tx = h.install(*h.a, nullptr);
  h.install(*h.b, &got);
  std::vector<std::uint64_t> acked;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(tx.ep().send(h.b->id(), numbered(i), /*tag=*/i * 10,
                             [&acked](std::uint64_t tag) { acked.push_back(tag); }));
  }
  h.sim.run_for(sim::seconds(1));
  EXPECT_EQ(acked, (std::vector<std::uint64_t>{10, 20, 30, 40, 50}));
  EXPECT_EQ(tx.ep().acked_tag(h.b->id(), kClassControl), 50u);
  EXPECT_EQ(tx.ep().acked_tag(999, kClassControl), 0u) << "unknown peer has no watermark";
}

// An ack callback may cancel the session's last live frame. That drops
// the session while its ack is still being handled; the endpoint must
// stop touching it, and the next send opens a fresh session that keeps
// the dropped one's ack watermark.
TEST(Transport, AckCallbackCancellingTheLastLiveFrameDropsTheSession) {
  Harness h(47);
  std::vector<std::uint64_t> got, acked;
  TestPeer& tx = h.install(*h.a, nullptr);
  h.install(*h.b, &got);
  const int b = h.b->id();
  std::size_t cancelled = 0;
  auto log_ack = [&acked](std::uint64_t tag) { acked.push_back(tag); };
  ASSERT_TRUE(tx.ep().send(b, numbered(1), /*tag=*/1, [&](std::uint64_t tag) {
    log_ack(tag);
    cancelled = tx.ep().cancel(b, 2);
  }));
  ASSERT_TRUE(tx.ep().send(b, numbered(2), /*tag=*/2, log_ack));
  h.sim.run_for(sim::seconds(1));
  EXPECT_EQ(cancelled, 1u);
  EXPECT_EQ(acked, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(tx.ep().inflight_bytes(), 0u);
  EXPECT_EQ(tx.ep().acked_tag(b, kClassControl), 1u)
      << "the session is gone but its watermark survives";

  ASSERT_TRUE(tx.ep().send(b, numbered(3), /*tag=*/3, log_ack));
  h.sim.run_for(sim::seconds(1));
  // Frame 2 was delivered before its cancel: beyond recall, but unacked.
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(acked, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(tx.ep().acked_tag(b, kClassControl), 3u);
}

TEST(Transport, RejectPolicyRefusesWhenQueueFullDropOldestSheds) {
  Harness h(44);
  // A second sender node: sessions are keyed per peer node, so the two
  // policies need distinct origins.
  sim::Node* c = &h.sim.add_node("c");
  h.net->attach(c->id());
  c->boot();
  // Tiny window forces queueing; partition keeps everything parked.
  SessionConfig small;
  small.window_bytes = 8;
  small.queue_cap = 2;
  std::vector<std::uint64_t> got;
  TestPeer& tx = h.install(*h.a, nullptr, small);
  h.install(*h.b, &got);
  h.net->partition({{h.a->id()}, {h.b->id()}, {c->id()}});
  EXPECT_TRUE(tx.ep().send(h.b->id(), numbered(1)));   // inflight
  EXPECT_TRUE(tx.ep().send(h.b->id(), numbered(2)));   // queued
  EXPECT_TRUE(tx.ep().send(h.b->id(), numbered(3)));   // queued
  EXPECT_FALSE(tx.ep().send(h.b->id(), numbered(4)));  // kReject: full
  EXPECT_EQ(tx.ep().queued_frames(), 2u);

  SessionConfig shed;
  shed.window_bytes = 8;
  shed.queue_cap = 2;
  shed.queue_policy = QueuePolicy::kDropOldest;
  TestPeer& tx2 = h.install(*c, nullptr, shed);
  EXPECT_TRUE(tx2.ep().send(h.b->id(), numbered(101)));
  EXPECT_TRUE(tx2.ep().send(h.b->id(), numbered(102)));
  EXPECT_TRUE(tx2.ep().send(h.b->id(), numbered(103)));
  EXPECT_TRUE(tx2.ep().send(h.b->id(), numbered(104)));  // sheds 102
  EXPECT_EQ(tx2.ep().queue_drops(), 1u);
  h.net->heal();
  h.sim.run_for(sim::seconds(3));
  // Each origin's stream arrives in order; the shed frame never does.
  std::multiset<std::uint64_t> all(got.begin(), got.end());
  EXPECT_EQ(all, (std::multiset<std::uint64_t>{1, 2, 3, 101, 103, 104}));
}

TEST(Transport, MalformedTransportFramesCountedNotCrashed) {
  Harness h(45);
  std::vector<std::uint64_t> got;
  TestPeer& rx = h.install(*h.b, &got);
  auto proc = h.a->start_process("raw", nullptr);
  // A truncated data frame and a garbage ack, straight onto the port.
  const sim::PortId port = h.sim.port(kPort);
  proc->send(0, h.b->id(), port, Buffer{kDataFrame, 1, 2}, port);
  proc->send(0, h.b->id(), port, Buffer{kAckFrame, 0xFF}, port);
  h.sim.run_for(sim::milliseconds(50));
  EXPECT_EQ(rx.ep().malformed_frames(), 2u);
  EXPECT_TRUE(got.empty());
}

// The ack goes back to the port the data frame came from; a frame with
// no source port is acked to the endpoint's own port.
TEST(Transport, AckReturnsToTheSendersSourcePort) {
  Harness h(46);
  std::vector<std::uint64_t> got;
  h.install(*h.b, &got);
  auto raw = h.a->start_process("raw", nullptr);
  const sim::PortId port = h.sim.port(kPort);
  const sim::PortId reply = h.sim.port("raw.reply");
  int acks_on_reply = 0, acks_on_port = 0;
  auto count_acks = [](int* n) {
    return [n](const sim::Datagram& d) {
      if (!d.payload.empty() && d.payload[0] == kAckFrame) ++*n;
    };
  };
  raw->bind(reply, count_acks(&acks_on_reply));
  raw->bind(port, count_acks(&acks_on_port));
  auto data_frame = [](std::uint64_t seq) {
    BinaryWriter w;
    w.u8(kDataFrame);
    w.u64(/*epoch=*/1);
    w.u64(seq);
    w.u8(0);
    w.blob(numbered(seq));
    return std::move(w).take();
  };
  raw->send(0, h.b->id(), port, data_frame(1), reply);
  h.sim.run_for(sim::milliseconds(50));
  EXPECT_EQ(acks_on_reply, 1);
  EXPECT_EQ(acks_on_port, 0);
  raw->send(0, h.b->id(), port, data_frame(2));
  h.sim.run_for(sim::milliseconds(50));
  EXPECT_EQ(acks_on_reply, 1);
  EXPECT_EQ(acks_on_port, 1);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2}));
}

TEST(Transport, DeterministicAcrossIdenticalSeeds) {
  auto run = [](std::uint64_t seed) {
    Harness h(seed);
    h.net->set_loss(0.2);
    h.net->set_duplicate(0.1);
    std::vector<std::uint64_t> got;
    TestPeer& tx = h.install(*h.a, nullptr);
    h.install(*h.b, &got);
    for (std::uint64_t i = 1; i <= 60; ++i) tx.ep().send(h.b->id(), numbered(i));
    h.sim.run_for(sim::seconds(10));
    return std::make_pair(tx.ep().retransmits(), tx.ep().data_sent());
  };
  EXPECT_EQ(run(77), run(77)) << "same seed, same fault draws, same retransmit count";
  EXPECT_EQ(run(77).second, 60u);
}

}  // namespace
}  // namespace oftt::transport
