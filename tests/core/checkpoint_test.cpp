// Checkpoint capture/restore tests, including the §3.1 thread-
// discoverability behaviour (IAT hook vs documented APIs) and the
// full-vs-selective (OFTTSelSave) modes.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "core/checkpoint.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace oftt::core {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() {
    node_ = &sim_.add_node("n");
    node_->boot();
    src_proc_ = node_->start_process("src", nullptr);
    dst_proc_ = node_->start_process("dst", nullptr);
    src_ = &nt::NtRuntime::of(*src_proc_);
    dst_ = &nt::NtRuntime::of(*dst_proc_);
  }

  sim::Simulation sim_;
  sim::Node* node_;
  std::shared_ptr<sim::Process> src_proc_, dst_proc_;
  nt::NtRuntime* src_;
  nt::NtRuntime* dst_;
};

TEST_F(CheckpointTest, FullModeWalksAllRegions) {
  src_->memory().alloc("globals", 64).write<std::uint64_t>(0, 111);
  src_->memory().alloc("heap", 128).write<std::uint64_t>(8, 222);

  CheckpointImage img = capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, {});
  EXPECT_EQ(img.regions.size(), 2u);

  // Restore into a different process's address space.
  EXPECT_EQ(restore_checkpoint(*dst_, img), 0);
  EXPECT_EQ(dst_->memory().find("globals")->read<std::uint64_t>(0), 111u);
  EXPECT_EQ(dst_->memory().find("heap")->read<std::uint64_t>(8), 222u);
}

TEST_F(CheckpointTest, SelectiveModeCarriesOnlyDesignatedCells) {
  auto& g = src_->memory().alloc("globals", 256);
  g.write<std::uint64_t>(0, 1);
  g.write<std::uint64_t>(64, 2);

  std::vector<CellSpec> cells{{"globals", 64, 8}};
  CheckpointImage img = capture_checkpoint(*src_, CheckpointMode::kSelective, cells, 1, 1, {});
  EXPECT_TRUE(img.regions.empty());
  ASSERT_EQ(img.cells.size(), 1u);
  EXPECT_EQ(img.cells[0].bytes.size(), 8u);

  auto& dg = dst_->memory().alloc("globals", 256);
  dg.write<std::uint64_t>(0, 999);
  restore_checkpoint(*dst_, img);
  EXPECT_EQ(dg.read<std::uint64_t>(64), 2u);
  EXPECT_EQ(dg.read<std::uint64_t>(0), 999u) << "non-designated state untouched";
}

TEST_F(CheckpointTest, SelectiveIsSmallerThanFull) {
  src_->memory().alloc("globals", 1 << 20);  // 1 MiB of app state
  std::vector<CellSpec> cells{{"globals", 0, 16}};
  auto full = capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, {});
  auto sel = capture_checkpoint(*src_, CheckpointMode::kSelective, cells, 1, 1, {});
  EXPECT_GT(full.marshal().size(), (1u << 20));
  EXPECT_LT(sel.marshal().size(), 256u);
}

TEST_F(CheckpointTest, MarshalRoundTripWithChecksum) {
  src_->memory().alloc("g", 32).write<std::uint32_t>(0, 0xAB);
  auto& task = src_->create_thread_static("main", 0x401000);
  task.set_context_provider([] { return Buffer{5, 6}; });

  CheckpointImage img =
      capture_checkpoint(*src_, CheckpointMode::kFull, {}, 9, 3, {&task});
  img.taken_at = sim::seconds(1);
  Buffer blob = img.marshal();

  CheckpointImage out;
  ASSERT_TRUE(CheckpointImage::unmarshal(blob, out));
  EXPECT_EQ(out.seq, 9u);
  EXPECT_EQ(out.incarnation, 3u);
  EXPECT_EQ(out.regions.at("g").size(), 32u);
  EXPECT_EQ(out.task_contexts.size(), 1u);
}

TEST_F(CheckpointTest, CorruptedImageRejected) {
  src_->memory().alloc("g", 32);
  Buffer blob = capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, {}).marshal();
  blob[blob.size() / 2] ^= 0xFF;
  CheckpointImage out;
  EXPECT_FALSE(CheckpointImage::unmarshal(blob, out));
  EXPECT_FALSE(CheckpointImage::unmarshal(Buffer{1, 2, 3}, out));
}

TEST_F(CheckpointTest, TaskContextRestoredThroughRestorer) {
  auto& task = src_->create_thread_static("worker", 0x5000);
  int live_value = 7;
  task.set_context_provider([&] {
    BinaryWriter w;
    w.i32(live_value);
    return std::move(w).take();
  });
  CheckpointImage img = capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, {&task});

  auto& dtask = dst_->create_thread_static("worker", 0x5000);
  int restored = 0;
  dtask.set_context_restorer([&](const Buffer& b) {
    BinaryReader r(b);
    restored = r.i32();
  });
  restore_checkpoint(*dst_, img);
  EXPECT_EQ(restored, 7);
}

TEST_F(CheckpointTest, MissingTaskOnRestoreCountsAnomaly) {
  auto& task = src_->create_thread_static("worker", 0x5000);
  task.set_context_provider([] { return Buffer{}; });
  CheckpointImage img = capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, {&task});
  // dst has no "worker" task.
  EXPECT_EQ(restore_checkpoint(*dst_, img), 1);
}

TEST_F(CheckpointTest, RegionSizeMismatchClampsAndCounts) {
  src_->memory().alloc("g", 64);
  CheckpointImage img = capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, {});
  dst_->memory().alloc("g", 32);  // smaller on restore side
  EXPECT_EQ(restore_checkpoint(*dst_, img), 1);
}

TEST_F(CheckpointTest, SelectiveCellOutOfRangeSkipped) {
  src_->memory().alloc("g", 16);
  std::vector<CellSpec> cells{{"g", 12, 8}};  // runs past the end
  CheckpointImage img =
      capture_checkpoint(*src_, CheckpointMode::kSelective, cells, 1, 1, {});
  EXPECT_TRUE(img.cells.empty()) << "invalid designation must not capture garbage";
}

// --- delta checkpoints (dirty-region tracking driven) ---

TEST_F(CheckpointTest, DeltaCarriesOnlyDirtyRanges) {
  auto& g = src_->memory().alloc("globals", 256);
  g.write<std::uint64_t>(0, 1);
  g.write<std::uint64_t>(128, 2);
  src_->memory().clear_all_dirty();  // a full checkpoint was just taken

  g.write<std::uint64_t>(128, 3);  // the only mutation since

  CheckpointImage delta = capture_delta_checkpoint(*src_, 2, 1, 1, {});
  EXPECT_EQ(delta.mode, CheckpointMode::kDelta);
  EXPECT_EQ(delta.base_seq, 1u);
  EXPECT_TRUE(delta.regions.empty()) << "no whole-region blobs for a range write";
  ASSERT_EQ(delta.cells.size(), 1u);
  EXPECT_EQ(delta.cells[0].offset, 128u);
  EXPECT_EQ(delta.cells[0].bytes.size(), 8u);
}

TEST_F(CheckpointTest, DeltaSkipsCleanRegionsAndShipsNewRegionsWhole) {
  src_->memory().alloc("old", 64);
  src_->memory().clear_all_dirty();
  src_->memory().alloc("fresh", 32).write<std::uint8_t>(0, 7);

  CheckpointImage delta = capture_delta_checkpoint(*src_, 2, 1, 1, {});
  EXPECT_EQ(delta.regions.count("old"), 0u) << "untouched region must not ship";
  ASSERT_EQ(delta.regions.count("fresh"), 1u) << "new region is all-dirty: ships whole";
  EXPECT_EQ(delta.regions.at("fresh").size(), 32u);
}

TEST_F(CheckpointTest, DeltaFarSmallerThanFullForSparseWrites) {
  auto& g = src_->memory().alloc("globals", 1 << 20);  // 1 MiB of app state
  src_->memory().clear_all_dirty();
  g.write<std::uint64_t>(512, 42);

  auto full = capture_checkpoint(*src_, CheckpointMode::kFull, {}, 2, 1, {});
  auto delta = capture_delta_checkpoint(*src_, 2, 1, 1, {});
  EXPECT_GT(full.marshal().size(), (1u << 20));
  EXPECT_LT(delta.marshal().size(), 256u);
}

TEST_F(CheckpointTest, ApplyDeltaMergesIntoBaseAndRestoresCorrectly) {
  auto& g = src_->memory().alloc("globals", 256);
  g.write<std::uint64_t>(0, 10);
  g.write<std::uint64_t>(64, 20);
  CheckpointImage base = capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, {});
  src_->memory().clear_all_dirty();

  g.write<std::uint64_t>(64, 21);
  CheckpointImage delta = capture_delta_checkpoint(*src_, 2, 1, 1, {});
  const DeltaApplyResult res = apply_delta(base, delta);
  EXPECT_TRUE(res.applied());
  EXPECT_EQ(res.anomalies, 0);
  EXPECT_EQ(base.seq, 2u);

  restore_checkpoint(*dst_, base);
  EXPECT_EQ(dst_->memory().find("globals")->read<std::uint64_t>(0), 10u);
  EXPECT_EQ(dst_->memory().find("globals")->read<std::uint64_t>(64), 21u);
}

TEST_F(CheckpointTest, ApplyDeltaCountsCellsOutsideBase) {
  CheckpointImage base;
  base.seq = 1;
  base.regions["g"] = Buffer(16);
  CheckpointImage delta;
  delta.seq = 2;
  delta.mode = CheckpointMode::kDelta;
  delta.base_seq = 1;
  SelectiveCell missing{"nope", 0, Buffer(4)};
  SelectiveCell overrun{"g", 12, Buffer(8)};
  delta.cells = {missing, overrun};
  const DeltaApplyResult res = apply_delta(base, delta);
  EXPECT_TRUE(res.applied());
  EXPECT_EQ(res.anomalies, 2);
  EXPECT_EQ(base.seq, 2u) << "merge still advances despite the anomalies";
}

// --- unmarshal hardening: hostile buffers must be rejected cheaply ---

namespace fuzz {
/// A checksum-valid image header followed by a declared element count —
/// the checksum passes, so only the count validation stands between the
/// parser and a multi-gigabyte allocation loop.
Buffer image_with_declared_region_count(std::uint32_t count) {
  BinaryWriter w;
  w.u64(1);                                              // seq
  w.u64(0);                                              // base_seq
  w.u64(0);                                              // decision_seq
  w.u32(1);                                              // incarnation
  w.u8(static_cast<std::uint8_t>(CheckpointMode::kFull));  // mode
  w.i64(0);                                              // taken_at
  w.u32(count);                                          // nregions
  w.u64(crc32c(w.data()));
  return std::move(w).take();
}
}  // namespace fuzz

TEST_F(CheckpointTest, UnmarshalRejectsHugeDeclaredCounts) {
  CheckpointImage out;
  EXPECT_FALSE(CheckpointImage::unmarshal(fuzz::image_with_declared_region_count(0xFFFFFFFF), out));
  EXPECT_FALSE(CheckpointImage::unmarshal(fuzz::image_with_declared_region_count(1u << 20), out));
  // A count of zero for every section is a legitimate (empty) image.
  BinaryWriter w;
  w.u64(1);
  w.u64(0);
  w.u64(0);  // decision_seq
  w.u32(1);
  w.u8(static_cast<std::uint8_t>(CheckpointMode::kFull));
  w.i64(0);
  w.u32(0);  // regions
  w.u32(0);  // cells
  w.u32(0);  // task contexts
  w.u64(crc32c(w.data()));
  EXPECT_TRUE(CheckpointImage::unmarshal(std::move(w).take(), out));
}

TEST_F(CheckpointTest, UnmarshalRejectsTrailerWithHighBitsSet) {
  src_->memory().alloc("g", 64).write<std::uint32_t>(0, 0xAB);
  Buffer blob = capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, {}).marshal();
  CheckpointImage out;
  ASSERT_TRUE(CheckpointImage::unmarshal(blob, out));
  EXPECT_EQ(out.checksum, crc32c(blob.data(), blob.size() - 8));
  EXPECT_EQ(CheckpointImage::crc32c_of_marshalled(blob), crc32c(blob));
  // The low word still holds the valid CRC-32C; any set bit in the high
  // word makes the trailer foreign.
  for (std::size_t byte = 4; byte < 8; ++byte) {
    Buffer forged = blob;
    forged[forged.size() - 8 + byte] = 0x01;
    EXPECT_FALSE(CheckpointImage::unmarshal(forged, out)) << "high trailer byte " << byte;
  }
}

TEST_F(CheckpointTest, UnmarshalSurvivesTruncationSweep) {
  src_->memory().alloc("g", 64).write<std::uint32_t>(0, 0xAB);
  auto& task = src_->create_thread_static("main", 0x401000);
  task.set_context_provider([] { return Buffer{1, 2, 3}; });
  Buffer blob =
      capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, {&task}).marshal();

  // Every strict prefix must be rejected — never parsed into a
  // half-filled image, never crashed on.
  for (std::size_t len = 0; len < blob.size(); ++len) {
    CheckpointImage out;
    EXPECT_FALSE(CheckpointImage::unmarshal(Buffer(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len)), out))
        << "prefix of " << len << " bytes must not unmarshal";
  }
  CheckpointImage out;
  EXPECT_TRUE(CheckpointImage::unmarshal(blob, out));
}

/// A marshalled image's body put through `damage`, then re-sealed with
/// a valid CRC-32C trailer: only the body decoder can refuse it.
template <class Damage>
Buffer resealed(const CheckpointImage& img, Damage damage) {
  Buffer body = img.marshal();
  body.resize(body.size() - CheckpointImage::kTrailerBytes);
  damage(body);
  BinaryWriter w;
  w.raw(body.data(), body.size());
  w.u64(crc32c(body));
  return std::move(w).take();
}

TEST_F(CheckpointTest, UnmarshalRejectsAChecksumValidImageWithAnUnknownMode) {
  src_->memory().alloc("g", 16).write<std::uint32_t>(0, 0xAB);
  const CheckpointImage img = capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, {});
  CheckpointImage out;
  ASSERT_TRUE(CheckpointImage::unmarshal(resealed(img, [](Buffer&) {}), out));
  // seq, base_seq, decision_seq, incarnation, then the mode byte.
  constexpr std::size_t kModeAt = 8 + 8 + 8 + 4;
  ASSERT_EQ(resealed(img, [](Buffer&) {})[kModeAt], static_cast<std::uint8_t>(CheckpointMode::kFull));
  EXPECT_FALSE(CheckpointImage::unmarshal(resealed(img, [](Buffer& b) { b[kModeAt] = 3; }), out));
}

TEST_F(CheckpointTest, UnmarshalRejectsAChecksumValidImageWithATrailingBodyByte) {
  src_->memory().alloc("g", 16).write<std::uint32_t>(0, 0xAB);
  const CheckpointImage img = capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, {});
  CheckpointImage out;
  EXPECT_FALSE(CheckpointImage::unmarshal(resealed(img, [](Buffer& b) { b.push_back(0); }), out));
}

TEST_F(CheckpointTest, UnmarshalSurvivesRandomGarbage) {
  sim::Rng rng(0xC0FFEE);
  for (int round = 0; round < 200; ++round) {
    Buffer junk(static_cast<std::size_t>(rng.uniform(0, 512)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    CheckpointImage out;
    // A random trailer passes only if its high 32 bits are zero and its
    // low word is the CRC-32C of the rest: odds of 2^-64 per buffer. The
    // parser must simply say no.
    EXPECT_FALSE(CheckpointImage::unmarshal(junk, out));
  }
}

// The §3.1 reproduction at the checkpoint level: without the IAT hook a
// dynamically created thread's context is absent from the image.
TEST_F(CheckpointTest, DynamicThreadContextMissingWithoutIatHook) {
  auto& static_task = src_->create_thread_static("main", 0x1);
  auto& dyn_task = src_->CreateThread("worker", 0x2);
  static_task.set_context_provider([] { return Buffer{1}; });
  dyn_task.set_context_provider([] { return Buffer{2}; });

  // What an unhooked FTIM can discover: documented APIs only.
  std::vector<nt::Task*> discoverable;
  for (auto tid : src_->enumerate_thread_ids()) {
    if (nt::Task* t = src_->open_thread(tid)) discoverable.push_back(t);
  }
  CheckpointImage img =
      capture_checkpoint(*src_, CheckpointMode::kFull, {}, 1, 1, discoverable);
  EXPECT_EQ(img.task_contexts.count("main"), 1u);
  EXPECT_EQ(img.task_contexts.count("worker"), 0u)
      << "dynamic thread invisible without the IAT hook (paper §3.1)";
}

}  // namespace
}  // namespace oftt::core
