// Durable store unit tests: CRC-framed journal round-trips, segment
// rotation, snapshot compaction, torn-tail and bit-flip handling, and
// the full-disk failure modes of sim::DiskStore.
#include <gtest/gtest.h>

#include "sim/disk.h"
#include "sim/simulation.h"
#include "store/journal.h"

namespace oftt::store {
namespace {

Buffer payload(std::size_t n, std::uint8_t seed) {
  Buffer b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(seed + i);
  return b;
}

class JournalTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
  sim::DiskStore& disk() { return sim::DiskStore::of(sim_); }
};

TEST_F(JournalTest, RoundTripsRecordsInOrder) {
  Journal j(sim_, 0, "t.j");
  ASSERT_TRUE(j.append(RecordType::kSnapshot, 1, 0, payload(32, 1)));
  ASSERT_TRUE(j.append(RecordType::kDelta, 2, 1, payload(8, 2)));
  ASSERT_TRUE(j.append(RecordType::kMessage, 3, 0, payload(0, 0)));

  auto records = j.recover();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, RecordType::kSnapshot);
  EXPECT_EQ(records[0].id, 1u);
  EXPECT_EQ(records[0].payload, payload(32, 1));
  EXPECT_EQ(records[1].type, RecordType::kDelta);
  EXPECT_EQ(records[1].base, 1u);
  EXPECT_EQ(records[2].payload.size(), 0u);
}

TEST_F(JournalTest, SurvivesReopen) {
  {
    Journal j(sim_, 0, "t.j");
    j.append(RecordType::kSnapshot, 1, 0, payload(16, 1));
    j.append(RecordType::kDelta, 2, 1, payload(4, 2));
  }
  Journal reopened(sim_, 0, "t.j");
  auto records = reopened.recover();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].id, 2u);
  // Appends continue after the existing tail.
  ASSERT_TRUE(reopened.append(RecordType::kDelta, 3, 2, payload(4, 3)));
  EXPECT_EQ(reopened.recover().size(), 3u);
}

TEST_F(JournalTest, RotatesSegmentsPastSizeLimit) {
  JournalOptions opts;
  opts.segment_bytes = 128;
  opts.auto_compact = false;
  Journal j(sim_, 0, "t.j", opts);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(j.append(RecordType::kDelta, i, i - 1, payload(64, static_cast<std::uint8_t>(i))));
  }
  EXPECT_GT(j.segment_count(), 1u);
  // A freshly rotated active segment stays memory-only until its first
  // append, so disk may lag the in-memory count by exactly one.
  EXPECT_GE(disk().keys_with_prefix(0, "t.j.seg.").size(), j.segment_count() - 1);
  EXPECT_LE(disk().keys_with_prefix(0, "t.j.seg.").size(), j.segment_count());
  auto records = j.recover();
  ASSERT_EQ(records.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(records[i].id, i + 1);
}

TEST_F(JournalTest, SnapshotCompactionRetiresShadowedSegments) {
  JournalOptions opts;
  opts.segment_bytes = 128;
  Journal j(sim_, 0, "t.j", opts);
  for (std::uint64_t i = 1; i <= 8; ++i) {
    j.append(RecordType::kDelta, i, i - 1, payload(64, 0));
  }
  std::size_t before = disk().used_bytes(0);
  ASSERT_GT(j.segment_count(), 2u);
  // A snapshot shadows everything before it: older segments retire.
  ASSERT_TRUE(j.append(RecordType::kSnapshot, 9, 0, payload(64, 0)));
  EXPECT_GT(j.bytes_reclaimed(), 0u);
  EXPECT_GE(j.compactions(), 1u);
  EXPECT_LT(disk().used_bytes(0), before);
  // The snapshot and nothing older is what recovery sees.
  auto records = j.recover();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().type, RecordType::kSnapshot);
  EXPECT_EQ(records.front().id, 9u);
}

TEST_F(JournalTest, RecoverImageFoldsNewestSnapshotPlusChain) {
  JournalOptions opts;
  opts.auto_compact = false;
  Journal j(sim_, 0, "t.j", opts);
  j.append(RecordType::kSnapshot, 1, 0, payload(16, 1));
  j.append(RecordType::kDelta, 2, 1, payload(4, 2));
  j.append(RecordType::kSnapshot, 3, 0, payload(16, 3));  // newest snapshot wins
  j.append(RecordType::kMessage, 99, 0, payload(4, 9));   // ignored by the fold
  j.append(RecordType::kDelta, 4, 3, payload(4, 4));
  j.append(RecordType::kDelta, 5, 4, payload(4, 5));
  j.append(RecordType::kDelta, 9, 8, payload(4, 9));      // chain break: base 8 never existed

  RecoveredImage img = j.recover_image();
  ASSERT_TRUE(img.valid);
  EXPECT_EQ(img.snapshot_id, 3u);
  EXPECT_EQ(img.snapshot, payload(16, 3));
  ASSERT_EQ(img.deltas.size(), 2u);
  EXPECT_EQ(img.deltas[0].id, 4u);
  EXPECT_EQ(img.deltas[1].id, 5u);
  EXPECT_EQ(img.last_id, 5u);
}

TEST_F(JournalTest, RecoverImageInvalidWithoutSnapshot) {
  Journal j(sim_, 0, "t.j");
  j.append(RecordType::kDelta, 2, 1, payload(4, 2));
  EXPECT_FALSE(j.recover_image().valid);
}

TEST_F(JournalTest, CallerSuppliedPayloadCrcFramesIdenticallyOrFailsClosed) {
  Journal plain(sim_, 0, "plain.j");
  Journal given(sim_, 0, "given.j");
  Journal wrong(sim_, 0, "wrong.j");
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const Buffer p = payload(40 * i, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(plain.append(RecordType::kDelta, i, i - 1, p));
    ASSERT_TRUE(given.append(RecordType::kDelta, i, i - 1, p, crc32c(p)));
    ASSERT_TRUE(wrong.append(RecordType::kDelta, i, i - 1, p, i == 2 ? crc32c(p) ^ 1u : crc32c(p)));
  }
  EXPECT_EQ(*disk().read(0, "given.j.seg.00000000"), *disk().read(0, "plain.j.seg.00000000"));
  // A CRC that does not match the payload ends the scan at that record.
  auto records = wrong.recover();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, 1u);
}

TEST_F(JournalTest, TornTailTruncatedOnReopen) {
  std::string key;
  {
    Journal j(sim_, 0, "t.j");
    j.append(RecordType::kSnapshot, 1, 0, payload(16, 1));
    j.append(RecordType::kDelta, 2, 1, payload(16, 2));
    j.append(RecordType::kDelta, 3, 2, payload(16, 3));
    key = disk().keys_with_prefix(0, "t.j.seg.").front();
  }
  // Crash signature: the last record's bytes only partially reached the
  // disk.
  Buffer seg = *disk().read(0, key);
  seg.resize(seg.size() - 7);
  disk().write(0, key, seg);

  Journal reopened(sim_, 0, "t.j");
  auto records = reopened.recover();
  ASSERT_EQ(records.size(), 2u) << "torn tail record must be dropped";
  EXPECT_EQ(records.back().id, 2u);
  // New appends land on the truncated (trustworthy) boundary.
  ASSERT_TRUE(reopened.append(RecordType::kDelta, 3, 2, payload(16, 3)));
  records = reopened.recover();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.back().id, 3u);
}

TEST_F(JournalTest, BitFlipEndsScanAtCorruptRecord) {
  Journal j(sim_, 0, "t.j");
  j.append(RecordType::kSnapshot, 1, 0, payload(16, 1));
  j.append(RecordType::kDelta, 2, 1, payload(16, 2));
  j.append(RecordType::kDelta, 3, 2, payload(16, 3));
  std::string key = disk().keys_with_prefix(0, "t.j.seg.").front();
  Buffer seg = *disk().read(0, key);
  // Flip one payload bit inside the SECOND record. Each frame is 12
  // bytes of preamble + 17 bytes of record header + 16 bytes payload.
  seg[45 + 40] ^= 0x01;
  disk().write(0, key, seg);

  auto records = Journal(sim_, 0, "t.j").recover();
  ASSERT_EQ(records.size(), 1u) << "CRC must catch the flip and end the scan";
  EXPECT_EQ(records[0].id, 1u);
}

TEST_F(JournalTest, FailedDiskRefusesAppendsThenRecovers) {
  Journal j(sim_, 0, "t.j");
  ASSERT_TRUE(j.append(RecordType::kSnapshot, 1, 0, payload(16, 1)));
  disk().fail_writes(0, true);
  EXPECT_FALSE(j.append(RecordType::kDelta, 2, 1, payload(16, 2)));
  EXPECT_EQ(j.append_failures(), 1u);
  // Durable content is unaffected by the refused append.
  EXPECT_EQ(j.recover().size(), 1u);
  disk().fail_writes(0, false);
  EXPECT_TRUE(j.append(RecordType::kDelta, 2, 1, payload(16, 2)));
  EXPECT_EQ(j.recover().size(), 2u);
}

TEST_F(JournalTest, CapacityCapFailsWritesLikeAFullDisk) {
  disk().set_capacity(0, 256);
  Journal j(sim_, 0, "t.j");
  bool saw_failure = false;
  for (std::uint64_t i = 1; i <= 32 && !saw_failure; ++i) {
    saw_failure = !j.append(RecordType::kDelta, i, i - 1, payload(32, 0));
  }
  EXPECT_TRUE(saw_failure);
  EXPECT_LE(disk().used_bytes(0), 256u);
  // The records that did land are all intact.
  auto records = j.recover();
  EXPECT_GT(records.size(), 0u);
}

TEST_F(JournalTest, MaxSegmentsDropsOldest) {
  JournalOptions opts;
  opts.segment_bytes = 128;
  opts.auto_compact = false;
  opts.max_segments = 2;
  Journal j(sim_, 0, "t.j", opts);
  for (std::uint64_t i = 1; i <= 12; ++i) {
    j.append(RecordType::kMessage, i, 0, payload(64, 0));
  }
  EXPECT_LE(j.segment_count(), 2u);
  EXPECT_LE(disk().keys_with_prefix(0, "t.j.seg.").size(), 2u);
  auto records = j.recover();
  ASSERT_FALSE(records.empty());
  EXPECT_GT(records.front().id, 1u) << "oldest messages must have been dropped";
  EXPECT_EQ(records.back().id, 12u) << "newest messages must survive";
}

TEST_F(JournalTest, WipeRemovesEverything) {
  Journal j(sim_, 0, "t.j");
  j.append(RecordType::kSnapshot, 1, 0, payload(16, 1));
  j.wipe();
  EXPECT_EQ(j.segment_count(), 0u);
  EXPECT_TRUE(disk().keys_with_prefix(0, "t.j.seg.").empty());
  EXPECT_TRUE(j.recover().empty());
  // The journal is usable again after a wipe.
  ASSERT_TRUE(j.append(RecordType::kSnapshot, 5, 0, payload(16, 5)));
  EXPECT_EQ(j.recover().size(), 1u);
}

TEST_F(JournalTest, JournalsOnDifferentNodesAreIndependent) {
  Journal a(sim_, 0, "t.j");
  Journal b(sim_, 1, "t.j");
  a.append(RecordType::kSnapshot, 1, 0, payload(16, 1));
  EXPECT_TRUE(b.recover().empty());
  EXPECT_EQ(a.recover().size(), 1u);
}

// --- DiskStore accounting / failure modes (no journal involved) ---

TEST(DiskStoreTest, UsedBytesTracksWritesOverwritesAndErases) {
  sim::Simulation sim;
  auto& disk = sim::DiskStore::of(sim);
  EXPECT_TRUE(disk.write(0, "a", Buffer(100)));
  EXPECT_TRUE(disk.write(0, "b", Buffer(50)));
  EXPECT_EQ(disk.used_bytes(0), 150u);
  EXPECT_TRUE(disk.write(0, "a", Buffer(10)));  // overwrite shrinks
  EXPECT_EQ(disk.used_bytes(0), 60u);
  disk.erase(0, "b");
  EXPECT_EQ(disk.used_bytes(0), 10u);
  disk.erase(0, "missing");  // no-op
  EXPECT_EQ(disk.used_bytes(0), 10u);
}

TEST(DiskStoreTest, ErasePrefixReclaimsOnlyMatchingKeys) {
  sim::Simulation sim;
  auto& disk = sim::DiskStore::of(sim);
  disk.write(0, "j.seg.00000000", Buffer(40));
  disk.write(0, "j.seg.00000001", Buffer(60));
  disk.write(0, "j.other", Buffer(5));
  disk.write(1, "j.seg.00000000", Buffer(7));  // other node untouched
  EXPECT_EQ(disk.erase_prefix(0, "j.seg."), 100u);
  EXPECT_EQ(disk.used_bytes(0), 5u);
  EXPECT_TRUE(disk.read(0, "j.other").has_value());
  EXPECT_TRUE(disk.read(1, "j.seg.00000000").has_value());
}

TEST(DiskStoreTest, CapacityRejectsWritesButKeepsExistingValue) {
  sim::Simulation sim;
  auto& disk = sim::DiskStore::of(sim);
  disk.set_capacity(0, 100);
  EXPECT_TRUE(disk.write(0, "k", Buffer(80)));
  // Growing past the cap fails and the old value survives intact.
  EXPECT_FALSE(disk.write(0, "k", Buffer(120)));
  EXPECT_EQ(disk.read(0, "k")->size(), 80u);
  EXPECT_FALSE(disk.write(0, "k2", Buffer(30)));
  // Shrinking within the cap is fine.
  EXPECT_TRUE(disk.write(0, "k", Buffer(100)));
  EXPECT_EQ(disk.used_bytes(0), 100u);
}

TEST(DiskStoreTest, WriteAtAppendsAfterTheKeptPrefix) {
  sim::Simulation sim;
  auto& disk = sim::DiskStore::of(sim);
  EXPECT_TRUE(disk.write_at(0, "k", 0, payload(10, 0)));  // missing key reads as empty
  EXPECT_TRUE(disk.write_at(0, "k", 10, payload(5, 10)));
  EXPECT_EQ(*disk.read(0, "k"), payload(15, 0));
  EXPECT_EQ(disk.used_bytes(0), 15u);
  // `at` past the end would leave a hole: refused, nothing changes.
  EXPECT_FALSE(disk.write_at(0, "k", 16, payload(1, 0)));
  EXPECT_FALSE(disk.write_at(0, "other", 1, payload(1, 0)));
  EXPECT_EQ(*disk.read(0, "k"), payload(15, 0));
  EXPECT_FALSE(disk.read(0, "other").has_value());
  EXPECT_EQ(disk.used_bytes(0), 15u);
}

TEST(DiskStoreTest, WriteAtPastATornTailTruncatesIt) {
  sim::Simulation sim;
  auto& disk = sim::DiskStore::of(sim);
  ASSERT_TRUE(disk.write(0, "k", payload(20, 0)));
  // Bytes 12..19 are a torn record; the next append lands at 12.
  EXPECT_TRUE(disk.write_at(0, "k", 12, payload(3, 100)));
  Buffer want = payload(12, 0);
  Buffer tail = payload(3, 100);
  want.insert(want.end(), tail.begin(), tail.end());
  EXPECT_EQ(*disk.read(0, "k"), want);
  EXPECT_EQ(disk.used_bytes(0), 15u);
}

TEST(DiskStoreTest, WriteAtGathersPartsAndViewReadsInPlace) {
  sim::Simulation sim;
  auto& disk = sim::DiskStore::of(sim);
  const Buffer head = payload(4, 0);
  const Buffer body = payload(6, 4);
  EXPECT_TRUE(disk.write_at(0, "k", 0, {ByteView(head), ByteView(body)}));
  EXPECT_EQ(*disk.read(0, "k"), payload(10, 0));
  EXPECT_EQ(disk.used_bytes(0), 10u);
  const std::optional<ByteView> view = disk.view(0, "k");
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(Buffer(view->begin(), view->end()), payload(10, 0));
  EXPECT_EQ(disk.view(0, "k")->data(), view->data()) << "views alias the stored value";
  EXPECT_FALSE(disk.view(0, "missing").has_value());
  EXPECT_FALSE(disk.view(1, "k").has_value()) << "keys are per node";
}

TEST_F(JournalTest, ScanVisitsTheRecordsRecoverCopies) {
  JournalOptions opts;
  opts.segment_bytes = 64;  // a few records per segment
  Journal j(sim_, 0, "t.j", opts);
  for (std::uint64_t i = 1; i <= 12; ++i) {
    ASSERT_TRUE(j.append(i % 4 == 1 ? RecordType::kSnapshot : RecordType::kDelta, i, i - 1,
                         payload(10 + i, static_cast<std::uint8_t>(i))));
  }
  const std::vector<Record> copies = j.recover();
  std::vector<RecordView> views;
  j.scan([&views](const RecordView& r) { views.push_back(r); });
  ASSERT_EQ(views.size(), copies.size());
  ASSERT_FALSE(views.empty());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].type, copies[i].type);
    EXPECT_EQ(views[i].id, copies[i].id);
    EXPECT_EQ(views[i].base, copies[i].base);
    EXPECT_EQ(Buffer(views[i].payload.begin(), views[i].payload.end()), copies[i].payload);
  }
}

TEST(DiskStoreTest, RefusedWriteAtLeavesValueAndAccountingUnchanged) {
  sim::Simulation sim;
  auto& disk = sim::DiskStore::of(sim);
  disk.set_capacity(0, 100);
  ASSERT_TRUE(disk.write(0, "k", payload(80, 0)));
  // Full disk: truncating 10 bytes and appending 31 would need 101.
  EXPECT_FALSE(disk.write_at(0, "k", 70, payload(31, 0)));
  EXPECT_EQ(*disk.read(0, "k"), payload(80, 0));
  EXPECT_EQ(disk.used_bytes(0), 80u);
  // Exactly at the cap is fine.
  EXPECT_TRUE(disk.write_at(0, "k", 70, payload(30, 70)));
  EXPECT_EQ(*disk.read(0, "k"), payload(100, 0));
  EXPECT_EQ(disk.used_bytes(0), 100u);
  // Failed disk: even a shrinking write is refused.
  disk.fail_writes(0, true);
  EXPECT_FALSE(disk.write_at(0, "k", 50, payload(1, 0)));
  EXPECT_FALSE(disk.write_at(0, "new", 0, payload(1, 0)));
  EXPECT_EQ(*disk.read(0, "k"), payload(100, 0));
  EXPECT_FALSE(disk.read(0, "new").has_value());
  EXPECT_EQ(disk.used_bytes(0), 100u);
}

// The journal appends through write_at; rotation, snapshot compaction
// and max_segments drops must keep the node's used_bytes equal to what
// actually sits on disk.
TEST_F(JournalTest, DiskAccountingHoldsAcrossRotateCompactAndDrops) {
  auto on_disk = [&](int node) {
    std::size_t n = 0;
    for (const std::string& key : disk().keys_with_prefix(node, "")) n += disk().read(node, key)->size();
    return n;
  };
  JournalOptions compacting;
  compacting.segment_bytes = 128;
  Journal snaps(sim_, 0, "snap.j", compacting);
  JournalOptions capped;
  capped.segment_bytes = 128;
  capped.auto_compact = false;
  capped.max_segments = 2;
  Journal msgs(sim_, 0, "msg.j", capped);
  for (std::uint64_t i = 1; i <= 24; ++i) {
    const RecordType type = i % 5 == 1 ? RecordType::kSnapshot : RecordType::kDelta;
    ASSERT_TRUE(snaps.append(type, i, i - 1, payload(20 + 7 * (i % 4), 0)));
    ASSERT_TRUE(msgs.append(RecordType::kMessage, i, 0, payload(40, 0)));
    ASSERT_EQ(disk().used_bytes(0), on_disk(0)) << "after record " << i;
  }
  EXPECT_GT(snaps.compactions(), 0u);
  EXPECT_GT(msgs.bytes_reclaimed(), 0u);
  EXPECT_LE(msgs.segment_count(), 2u);
  // Recovery sees the newest snapshot and the chain on top of it.
  RecoveredImage img = snaps.recover_image();
  ASSERT_TRUE(img.valid);
  EXPECT_EQ(img.snapshot_id, 21u);
  EXPECT_EQ(img.last_id, 24u);
  snaps.wipe();
  EXPECT_EQ(disk().used_bytes(0), on_disk(0));
}

}  // namespace
}  // namespace oftt::store
