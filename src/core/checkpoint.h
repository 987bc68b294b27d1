// CheckpointImage: what one FTIM ships to its peer.
//
// Full mode is the "memory walkthrough": every MemorySpace region plus
// the contexts of every *discoverable* task (statically created threads
// via GetThreadContext, dynamically created ones only if the FTIM's IAT
// hook saw them — §3.1). Selective mode carries only the cells the
// application designated with OFTTSelSave (refs [10,11]: user-directed
// checkpointing cuts the cost).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "nt/runtime.h"
#include "sim/time.h"

namespace oftt::core {

enum class CheckpointMode : std::uint8_t {
  kFull = 0,
  kSelective = 1,
  /// Only what changed since checkpoint `base_seq`: regions that were
  /// wholly rewritten travel as region blobs, precise dirty byte ranges
  /// travel as cells. Applies only on top of an image whose seq ==
  /// base_seq (same incarnation); otherwise the receiver must demand a
  /// full resync.
  kDelta = 2,
};
constexpr bool wire_valid(CheckpointMode m) { return m <= CheckpointMode::kDelta; }

struct SelectiveCell {
  std::string region;
  std::uint32_t offset = 0;
  Buffer bytes;
  template <class V> void fields(V& v) { v(region); v(offset); v(bytes); }
};

struct CheckpointImage {
  std::uint64_t seq = 0;
  /// For kDelta: the seq this delta applies on top of. 0 otherwise.
  std::uint64_t base_seq = 0;
  /// Semi-active: the newest decision-log seq already folded into this
  /// image. A follower that has applied decisions past this watermark
  /// must not let the image stomp its fresher runtime. 0 elsewhere.
  std::uint64_t decision_seq = 0;
  std::uint32_t incarnation = 0;
  CheckpointMode mode = CheckpointMode::kFull;
  sim::SimTime taken_at = 0;
  std::map<std::string, Buffer> regions;           // full mode
  std::vector<SelectiveCell> cells;                // selective mode
  std::map<std::string, Buffer> task_contexts;     // encoded TaskContext by task name
  std::uint64_t checksum = 0;                      // CRC-32C trailer, zero-extended to u64

  /// The image's layout. The CRC-32C trailer is not a field: it covers
  /// the encoded fields, so marshal() appends it after them.
  template <class V> void fields(V& v) {
    v(seq); v(base_seq); v(decision_seq); v(incarnation); v(mode); v(taken_at);
    v(regions); v(cells); v(task_contexts);
  }

  static constexpr std::size_t kTrailerBytes = 8;

  std::size_t payload_bytes() const;

  Buffer marshal() const;
  /// Append the marshalled image to `w` (a checkpoint frame being
  /// built around it); the trailer covers only the image's own bytes.
  void marshal(BinaryWriter& w) const;
  /// Exact size marshal() produces, so a writer can be sized once.
  std::size_t marshalled_size() const { return codec::encoded_size(*this) + kTrailerBytes; }
  /// Returns false on a checksum mismatch, a trailer whose high 32 bits
  /// are set, or a body that does not decode whole (truncation, an
  /// unknown mode, a count larger than the bytes behind it, trailing
  /// bytes).
  static bool unmarshal(ByteView buf, CheckpointImage& out);
  /// crc32c() of a whole marshalled image, trailer included, derived
  /// from the trailer without reading the body. Only meaningful for
  /// bytes that marshal() produced or unmarshal() accepted.
  static std::uint32_t crc32c_of_marshalled(ByteView buf);
};

/// Registered selective-save designation (OFTTSelSave).
struct CellSpec {
  std::string region;
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
};

/// Capture a checkpoint from a process's NT runtime.
CheckpointImage capture_checkpoint(nt::NtRuntime& rt, CheckpointMode mode,
                                   const std::vector<CellSpec>& cells, std::uint64_t seq,
                                   std::uint32_t incarnation,
                                   const std::vector<nt::Task*>& discoverable_tasks);

/// Capture a delta checkpoint: regions whose dirty tracking collapsed
/// to "everything" ship as whole-region blobs, precise dirty ranges
/// ship as cells, task contexts always ship (they are tiny and change
/// every quantum). Does NOT clear dirty state — the caller clears it
/// once the delta is durable.
CheckpointImage capture_delta_checkpoint(nt::NtRuntime& rt, std::uint64_t seq,
                                         std::uint64_t base_seq, std::uint32_t incarnation,
                                         const std::vector<nt::Task*>& discoverable_tasks);

enum class DeltaApply : std::uint8_t {
  kApplied = 0,
  /// The delta does not chain on this base (wrong mode, stale or future
  /// base_seq, incarnation mismatch). The base was left untouched; the
  /// receiver must demand a full resync.
  kNeedFull = 1,
};

struct DeltaApplyResult {
  DeltaApply status = DeltaApply::kApplied;
  /// Cells that missed their region or overran it (kApplied only).
  int anomalies = 0;
  bool applied() const { return status == DeltaApply::kApplied; }
};

/// Merge a delta into the base image it chains on. The chain is
/// verified here — delta.mode == kDelta, delta.base_seq == base.seq,
/// matching incarnation — and a mismatch returns kNeedFull with the
/// base untouched instead of silently merging stale bytes. On success
/// the base advances to the delta's seq.
DeltaApplyResult apply_delta(CheckpointImage& base, const CheckpointImage& delta);

/// Apply an image to a process's NT runtime (the backup side of a
/// switchover). Unknown regions are created; size mismatches are
/// clamped and counted in the return value (0 = clean restore).
int restore_checkpoint(nt::NtRuntime& rt, const CheckpointImage& image);

}  // namespace oftt::core
