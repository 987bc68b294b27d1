// MSMQ tests: local delivery, store-and-forward with ACK/retry, route
// re-resolution (the diverter hook), dedup, redelivery after subscriber
// crash, dead-lettering, and the recoverable-message journal.
#include <gtest/gtest.h>

#include "msmq/queue_manager.h"
#include "sim/disk.h"
#include "sim/simulation.h"
#include "store/journal.h"

namespace oftt::msmq {
namespace {

class MsmqTest : public ::testing::Test {
 protected:
  MsmqTest() : sim_(11) {
    a_ = &sim_.add_node("a");
    b_ = &sim_.add_node("b");
    auto& net = sim_.add_network("lan");
    net.attach(a_->id());
    net.attach(b_->id());
    a_->set_boot_script([](sim::Node& n) { QueueManager::install(n); });
    b_->set_boot_script([](sim::Node& n) { QueueManager::install(n); });
    a_->boot();
    b_->boot();
  }

  QueueManager* qm(sim::Node& n) { return QueueManager::find(n); }

  sim::Simulation sim_;
  sim::Node* a_;
  sim::Node* b_;
};

TEST_F(MsmqTest, LocalQueueDeliversToSubscriber) {
  auto app = a_->start_process("app", nullptr);
  std::vector<std::string> got;
  MsmqApi::of(*app).subscribe("inbox", [&](const Message& m) { got.push_back(m.label); });
  MsmqApi::of(*app).send("inbox", "hello", Buffer{1, 2});
  sim_.run_for(sim::milliseconds(50));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hello");
}

TEST_F(MsmqTest, SubscribeAfterSendStillDelivers) {
  auto app = a_->start_process("app", nullptr);
  MsmqApi::of(*app).send("inbox", "early", Buffer{});
  sim_.run_for(sim::milliseconds(50));
  std::vector<std::string> got;
  MsmqApi::of(*app).subscribe("inbox", [&](const Message& m) { got.push_back(m.label); });
  sim_.run_for(sim::milliseconds(50));
  ASSERT_EQ(got.size(), 1u);
}

TEST_F(MsmqTest, CrossNodeTransferWithAck) {
  auto sender = a_->start_process("src", nullptr);
  auto receiver = b_->start_process("dst", nullptr);
  qm(*a_)->set_route("remote_inbox", b_->id());
  int got = 0;
  MsmqApi::of(*receiver).subscribe("remote_inbox", [&](const Message&) { ++got; });
  for (int i = 0; i < 10; ++i) MsmqApi::of(*sender).send("remote_inbox", "m", Buffer{});
  sim_.run_for(sim::milliseconds(500));
  EXPECT_EQ(got, 10);
  EXPECT_EQ(qm(*a_)->outgoing_depth(), 0u) << "all transfers acked";
}

TEST_F(MsmqTest, UnreachableDestinationRetriesUntilNodeReturns) {
  auto sender = a_->start_process("src", nullptr);
  qm(*a_)->set_route("inbox", b_->id());
  b_->crash();
  MsmqApi::of(*sender).send("inbox", "persistent", Buffer{});
  sim_.run_for(sim::seconds(2));
  EXPECT_EQ(qm(*a_)->outgoing_depth(), 1u) << "message held for retry";
  EXPECT_GT(qm(*a_)->retries(), 0u);

  b_->boot();
  auto receiver = b_->start_process("dst", nullptr);
  int got = 0;
  MsmqApi::of(*receiver).subscribe("inbox", [&](const Message&) { ++got; });
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(qm(*a_)->outgoing_depth(), 0u);
}

TEST_F(MsmqTest, RouteChangeMidRetryRedirectsDelivery) {
  // The diverter scenario: destination dies, route repointed, queued
  // messages chase the new primary.
  sim::Node* c = &sim_.add_node("c");
  sim_.network(0).attach(c->id());
  c->set_boot_script([](sim::Node& n) { QueueManager::install(n); });
  c->boot();

  auto sender = a_->start_process("src", nullptr);
  qm(*a_)->set_route("inbox", b_->id());
  b_->crash();
  for (int i = 0; i < 5; ++i) MsmqApi::of(*sender).send("inbox", "m", Buffer{});
  sim_.run_for(sim::milliseconds(500));
  EXPECT_EQ(qm(*a_)->outgoing_depth(), 5u);

  qm(*a_)->set_route("inbox", c->id());
  int got = 0;
  auto receiver = c->start_process("dst", nullptr);
  MsmqApi::of(*receiver).subscribe("inbox", [&](const Message&) { ++got; });
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(got, 5) << "non-delivery detected and retried to the new destination";
}

TEST_F(MsmqTest, LossyNetworkStillDeliversExactlyOnce) {
  sim_.network(0).set_loss(0.3);
  auto sender = a_->start_process("src", nullptr);
  auto receiver = b_->start_process("dst", nullptr);
  qm(*a_)->set_route("inbox", b_->id());
  int got = 0;
  MsmqApi::of(*receiver).subscribe("inbox", [&](const Message&) { ++got; });
  for (int i = 0; i < 50; ++i) MsmqApi::of(*sender).send("inbox", "m", Buffer{});
  sim_.run_for(sim::seconds(10));
  EXPECT_EQ(got, 50) << "retry must defeat loss, dedup must defeat retry";
}

TEST_F(MsmqTest, DuplicateTransfersAreDropped) {
  sim_.network(0).set_loss(0.5);  // many lost acks -> many retransmits
  auto sender = a_->start_process("src", nullptr);
  auto receiver = b_->start_process("dst", nullptr);
  qm(*a_)->set_route("inbox", b_->id());
  int got = 0;
  MsmqApi::of(*receiver).subscribe("inbox", [&](const Message&) { ++got; });
  for (int i = 0; i < 20; ++i) MsmqApi::of(*sender).send("inbox", "m", Buffer{});
  sim_.run_for(sim::seconds(20));
  EXPECT_EQ(got, 20);
  EXPECT_GT(qm(*b_)->duplicates_dropped(), 0u);
}

TEST_F(MsmqTest, TtlExhaustionDeadLetters) {
  auto sender = a_->start_process("src", nullptr);
  qm(*a_)->config().time_to_reach_queue = sim::milliseconds(500);
  qm(*a_)->set_route("inbox", b_->id());
  b_->crash();
  MsmqApi::of(*sender).send("inbox", "doomed", Buffer{});
  sim_.run_for(sim::seconds(2));
  EXPECT_EQ(qm(*a_)->outgoing_depth(), 0u);
  EXPECT_EQ(qm(*a_)->dead_letter_count(), 1u);
  EXPECT_GT(sim_.counter_value("msmq.dead_lettered"), 0u);
}

TEST_F(MsmqTest, SubscriberCrashCausesRedeliveryToRestartedApp) {
  auto app = a_->start_process("app", nullptr);
  int first_got = 0;
  MsmqApi::of(*app).subscribe("inbox", [&](const Message&) { ++first_got; });
  MsmqApi::of(*app).send("inbox", "m", Buffer{});
  // The delivery is in flight when the app dies: it never reaches the
  // handler, so the queue manager holds it unacked.
  app->kill("crash before processing");
  sim_.run_for(sim::milliseconds(300));
  EXPECT_EQ(first_got, 0);

  // A restarted app re-subscribes and the unacked message is redelivered.
  auto app2 = a_->start_process("app2", nullptr);
  int second_got = 0;
  MsmqApi::of(*app2).subscribe("inbox", [&](const Message&) { ++second_got; });
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(second_got, 1) << "unacked delivery must be redelivered";
}

TEST_F(MsmqTest, HungSubscriberAccumulatesUnackedThenRedelivery) {
  auto app = a_->start_process("app", nullptr);
  int got = 0;
  MsmqApi::of(*app).subscribe("inbox", [&](const Message&) { ++got; });
  app->main_strand().hang();  // app wedged: deliveries dropped, no acks
  for (int i = 0; i < 3; ++i) MsmqApi::of(*app).send("inbox", "m", Buffer{});
  sim_.run_for(sim::milliseconds(300));
  EXPECT_EQ(got, 0);

  // Hung apps cannot even send; inject via a sibling process instead.
  auto helper = a_->start_process("helper", nullptr);
  MsmqApi::of(*helper).send("inbox", "m", Buffer{});
  sim_.run_for(sim::milliseconds(300));
  EXPECT_EQ(got, 0);
  EXPECT_GE(qm(*a_)->local_depth("inbox"), 1u);

  app->main_strand().unhang();
  sim_.run_for(sim::seconds(1));
  EXPECT_GE(got, 1) << "redelivery reaches the recovered app";
}

TEST_F(MsmqTest, RecoverableMessagesSurviveNodeReboot) {
  auto sender = a_->start_process("src", nullptr);
  qm(*a_)->set_route("inbox", b_->id());
  b_->crash();  // destination down: messages park in outgoing store
  for (int i = 0; i < 3; ++i) {
    MsmqApi::of(*sender).send("inbox", "durable", Buffer{}, DeliveryMode::kRecoverable);
  }
  sim_.run_for(sim::milliseconds(300));
  ASSERT_EQ(qm(*a_)->outgoing_depth(), 3u);

  // Sender node power-cycles; the recoverable outgoing store must
  // reload from disk and delivery must complete once B returns.
  a_->crash();
  a_->boot();
  qm(*a_)->set_route("inbox", b_->id());
  EXPECT_EQ(qm(*a_)->outgoing_depth(), 3u) << "restored from disk";

  b_->boot();
  auto receiver = b_->start_process("dst", nullptr);
  int got = 0;
  MsmqApi::of(*receiver).subscribe("inbox", [&](const Message&) { ++got; });
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(got, 3);
}

TEST_F(MsmqTest, ExpressMessagesDoNotSurviveReboot) {
  auto sender = a_->start_process("src", nullptr);
  qm(*a_)->set_route("inbox", b_->id());
  b_->crash();
  MsmqApi::of(*sender).send("inbox", "volatile", Buffer{}, DeliveryMode::kExpress);
  sim_.run_for(sim::milliseconds(300));
  ASSERT_EQ(qm(*a_)->outgoing_depth(), 1u);
  a_->crash();
  a_->boot();
  EXPECT_EQ(qm(*a_)->outgoing_depth(), 0u) << "express messages are memory-only";
}

TEST_F(MsmqTest, MessageIdsUniqueAcrossReboot) {
  // Boot-generation bits keep post-reboot ids from colliding with
  // pre-reboot ids (which may still be in peers' dedup sets).
  auto app = a_->start_process("app", nullptr);
  auto receiver = b_->start_process("dst", nullptr);
  qm(*a_)->set_route("inbox", b_->id());
  int got = 0;
  MsmqApi::of(*receiver).subscribe("inbox", [&](const Message&) { ++got; });
  MsmqApi::of(*app).send("inbox", "pre", Buffer{});
  sim_.run_for(sim::milliseconds(300));
  a_->crash();
  a_->boot();
  auto app2 = a_->start_process("app", nullptr);
  qm(*a_)->set_route("inbox", b_->id());
  MsmqApi::of(*app2).send("inbox", "post", Buffer{});
  sim_.run_for(sim::milliseconds(500));
  EXPECT_EQ(got, 2) << "post-reboot message must not be treated as a duplicate";
}

TEST_F(MsmqTest, EnqueueTheDiskRefusedIsJournaledOnceTheDiskRecovers) {
  auto app = a_->start_process("app", nullptr);
  auto& disk = sim::DiskStore::of(sim_);
  disk.fail_writes(a_->id(), true);
  MsmqApi::of(*app).send("inbox", "refused", Buffer{});
  sim_.run_for(sim::milliseconds(50));
  disk.fail_writes(a_->id(), false);
  // The next enqueue is journaled, and the operation after it snapshots
  // the live set, the refused message included.
  MsmqApi::of(*app).send("inbox", "taken", Buffer{});
  MsmqApi::of(*app).send("other", "next", Buffer{});
  sim_.run_for(sim::milliseconds(50));
  a_->crash();
  a_->boot();
  EXPECT_EQ(qm(*a_)->local_depth("inbox"), 2u);
}

TEST_F(MsmqTest, MessageIdsUniqueAcrossQmRestart) {
  // The id sequence resumes from the journal, so a QM restarted within
  // one boot (same boot generation) does not reuse ids the peer has seen.
  auto app = a_->start_process("app", nullptr);
  auto receiver = b_->start_process("dst", nullptr);
  qm(*a_)->set_route("inbox", b_->id());
  int got = 0;
  MsmqApi::of(*receiver).subscribe("inbox", [&](const Message&) { ++got; });
  MsmqApi::of(*app).send("inbox", "pre", Buffer{});
  sim_.run_for(sim::milliseconds(300));
  a_->restart_process("msmq");
  qm(*a_)->set_route("inbox", b_->id());
  MsmqApi::of(*app).send("inbox", "post", Buffer{});
  sim_.run_for(sim::milliseconds(500));
  EXPECT_EQ(got, 2) << "post-restart message must not be treated as a duplicate";
}

TEST_F(MsmqTest, SendWithAnUnknownDeliveryModeIsCountedAndDropped) {
  auto app = a_->start_process("app", nullptr);
  SendPacket p;
  p.msg.queue = "inbox";
  p.msg.label = "bogus";
  Buffer frame = p.encode();
  // The mode byte sits just before the trailing i64 enqueued_at.
  ASSERT_EQ(frame[frame.size() - 9], static_cast<std::uint8_t>(DeliveryMode::kExpress));
  frame[frame.size() - 9] = 2;
  const std::uint64_t bad_before = sim_.counter_value("msmq.bad_packet");
  app->send(0, a_->id(), sim_.port(kMsmqPort), std::move(frame), sim_.port("mqr.app"));
  sim_.run_for(sim::milliseconds(50));
  EXPECT_EQ(sim_.counter_value("msmq.bad_packet"), bad_before + 1);
  EXPECT_EQ(qm(*a_)->local_depth("inbox"), 0u) << "nothing enqueued";
}

TEST_F(MsmqTest, TornJournalTailRestoresTheMessagesBeforeIt) {
  auto app = a_->start_process("app", nullptr);
  for (int i = 0; i < 3; ++i) {
    MsmqApi::of(*app).send("inbox", "durable", Buffer{1, 2, 3}, DeliveryMode::kRecoverable);
  }
  sim_.run_for(sim::milliseconds(50));
  ASSERT_EQ(qm(*a_)->local_depth("inbox"), 3u);

  // Power-cycle with the tail of the third enqueue record cut off.
  a_->crash();
  auto& disk = sim::DiskStore::of(sim_);
  const auto segments =
      disk.keys_with_prefix(a_->id(), std::string(QueueManager::kJournal) + ".seg.");
  ASSERT_EQ(segments.size(), 1u);
  auto segment = disk.read(a_->id(), segments.front());
  ASSERT_TRUE(segment.has_value());
  segment->resize(segment->size() - 3);
  disk.write(a_->id(), segments.front(), *segment);
  a_->boot();
  EXPECT_EQ(qm(*a_)->local_depth("inbox"), 2u) << "the two intact messages come back";
}

TEST_F(MsmqTest, JournalReplayRestoresTheExactLiveSetAfterASnapshot) {
  auto app = a_->start_process("app", nullptr);
  std::vector<std::string> got;
  MsmqApi::of(*app).subscribe("work", [&](const Message& m) { got.push_back(m.label); });
  // Three unread 30 KiB messages: more than a journal segment, so the
  // next operation snapshots the live set and compaction retires the
  // segments before it.
  for (int i = 0; i < 3; ++i) {
    MsmqApi::of(*app).send("keep", "k" + std::to_string(i), Buffer(30 * 1024, 7));
  }
  sim_.run_for(sim::milliseconds(50));
  // Two messages enqueued, delivered and acked after the snapshot.
  MsmqApi::of(*app).send("work", "w0", Buffer{});
  MsmqApi::of(*app).send("work", "w1", Buffer{});
  sim_.run_for(sim::milliseconds(50));
  ASSERT_EQ(got, (std::vector<std::string>{"w0", "w1"}));
  EXPECT_FALSE(sim::DiskStore::of(sim_).read(
      a_->id(), std::string(QueueManager::kJournal) + ".seg.00000000"))
      << "the segment before the snapshot is retired";
  // More after it: a local enqueue and an outgoing transfer to a dead node.
  b_->crash();
  qm(*a_)->set_route("far", b_->id());
  MsmqApi::of(*app).send("keep", "k3", Buffer{});
  MsmqApi::of(*app).send("far", "o0", Buffer{});
  MsmqApi::of(*app).send("keep", "x", Buffer{}, DeliveryMode::kExpress);
  sim_.run_for(sim::milliseconds(50));

  a_->crash();
  const store::Journal journal(sim_, a_->id(), QueueManager::kJournal);
  const QueueManager::JournalImage img = QueueManager::replay(journal);
  std::vector<std::string> local;
  for (const auto& [key, m] : img.local) local.push_back(key.first + "/" + m.label);
  EXPECT_EQ(local, (std::vector<std::string>{"keep/k0", "keep/k1", "keep/k2", "keep/k3"}));
  ASSERT_EQ(img.outgoing.size(), 1u);
  EXPECT_EQ(img.outgoing.begin()->second.label, "o0");
  a_->boot();
  EXPECT_EQ(qm(*a_)->local_depth("keep"), 4u);
  EXPECT_EQ(qm(*a_)->local_depth("work"), 0u);
  EXPECT_EQ(qm(*a_)->outgoing_depth(), 1u);
}

TEST_F(MsmqTest, MessageMarshalRoundTrip) {
  Message m;
  m.id = 0x00010000000000ABull;
  m.src_node = 3;
  m.queue = "inbox";
  m.label = "label";
  m.body = {1, 2, 3};
  m.mode = DeliveryMode::kRecoverable;
  m.enqueued_at = sim::seconds(5);
  Buffer b = codec::encode(m);
  Message out;
  ASSERT_TRUE(codec::decode(b, out));
  EXPECT_EQ(out.id, m.id);
  EXPECT_EQ(out.queue, "inbox");
  EXPECT_EQ(out.body, m.body);
  EXPECT_EQ(out.mode, DeliveryMode::kRecoverable);
}

}  // namespace
}  // namespace oftt::msmq
