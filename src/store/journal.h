// Durable state store: a log-structured write-ahead journal on the
// node's simulated disk (sim::DiskStore).
//
// The paper's recovery manager restarts failed applications and leans
// on MSMQ *recoverable* messages surviving node death — but the OFTT
// checkpoints themselves previously existed only in the peer FTIM's
// memory (plus one loose disk key), so a rebooted node came back empty
// and had to re-fetch everything over the wire. The journal gives every
// node a cheap local recovery tier below the expensive global one
// (replay your own disk before resyncing from the primary), following
// the escalation idea of the DIR Net line of work.
//
// Format: the journal is a sequence of fixed-name segments
// ("<prefix>.seg.<%08u>") on the DiskStore. Each segment holds
// CRC-framed, length-prefixed records:
//
//   [u32 magic][u32 frame_len][u32 crc][u8 type][u64 id][u64 base][payload]
//    \------------- header -------------/\------ crc covers this ------/
//
//   frame_len = bytes after the crc field (type..payload)
//   crc      = CRC-32C (Castagnoli, common/bytes.h) over type..payload
//   type     = kSnapshot | kDelta | kMessage
//   id       = record sequence id (checkpoint seq / message ordinal)
//   base     = for kDelta: the id this delta applies on top of
//
// Write path: append() builds the record header on the stack and
// gathers header and payload with DiskStore::write_at at the active
// segment's valid length — the moral equivalent of a positioned
// write+fsync of the tail. The payload is copied once, into the
// segment. The journal keeps no in-memory copy of the segment; a torn tail
// left by a crash sits past the valid length, so the next append
// overwrites it. When the active segment exceeds
// segment_bytes the journal rotates to a fresh one. Appending a
// kSnapshot retires every strictly older segment — they are wholly
// shadowed by the newer snapshot — via compact().
//
// Read path: scan() walks the segments in place, in order, and visits
// every intact record as a view into its segment; recover() copies them
// out. A corrupt or torn record ends the scan of its segment (frame
// boundaries after it are untrustworthy); a torn tail in the *last*
// segment is the expected crash signature and simply truncates the
// recovered suffix. recover_image() additionally folds the records into
// "newest snapshot + the delta chain on top of it", which is what a
// cold-restarting FTIM replays.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "obs/metrics.h"

namespace oftt::sim {
class Simulation;
}

namespace oftt::store {

enum class RecordType : std::uint8_t {
  kSnapshot = 1,  // self-contained image; shadows everything before it
  kDelta = 2,     // applies on top of record `base`
  kMessage = 3,   // journaled in-flight message (diverter retry state)
  kDecision = 4,  // semi-active decision-log entry (id = decision seq)
  kPolicy = 5,    // active replication policy (payload = mode byte)
};

struct Record {
  RecordType type = RecordType::kSnapshot;
  std::uint64_t id = 0;
  std::uint64_t base = 0;
  Buffer payload;
};

/// A record read in place: `payload` points into its segment on disk.
struct RecordView {
  RecordType type = RecordType::kSnapshot;
  std::uint64_t id = 0;
  std::uint64_t base = 0;
  ByteView payload;
};

struct JournalOptions {
  /// Rotate the active segment once it exceeds this many bytes.
  std::size_t segment_bytes = 64 * 1024;
  /// Retire segments older than the newest snapshot automatically on
  /// every snapshot append.
  bool auto_compact = true;
  /// For snapshot-free journals (pure message logs): keep at most this
  /// many segments, dropping the oldest. 0 = unbounded.
  std::size_t max_segments = 0;
};

/// What recover_image() reconstructs: the newest durable snapshot plus
/// the consecutive delta suffix on top of it, in apply order.
struct RecoveredImage {
  Buffer snapshot;
  std::uint64_t snapshot_id = 0;
  std::vector<Record> deltas;  // base-chained, ascending ids
  /// id of the newest record in the chain (snapshot_id if no deltas).
  std::uint64_t last_id = 0;
  bool valid = false;  // false: no intact snapshot found
};

class Journal {
 public:
  /// Opens (and scans) the journal stored under `prefix` on `node`'s
  /// disk. Existing segments are inventoried so appends continue where
  /// the previous incarnation stopped.
  Journal(sim::Simulation& sim, int node, std::string prefix,
          JournalOptions options = JournalOptions());

  /// Append one record; returns false when the disk refused the write
  /// (full/failed disk) — the record is then NOT durable, the segment
  /// on disk is unchanged, and a later retry re-frames cleanly.
  bool append(RecordType type, std::uint64_t id, std::uint64_t base, ByteView payload);
  /// Same, for a payload whose crc32c() the caller already holds (a
  /// checkpoint image carries its own): the frame CRC is combined from
  /// it instead of re-reading the payload. A wrong `payload_crc` makes
  /// the record fail its check on recovery; it never passes bad bytes.
  bool append(RecordType type, std::uint64_t id, std::uint64_t base, ByteView payload,
              std::uint32_t payload_crc);

  /// Retire every segment strictly older than the one holding the
  /// newest snapshot record; returns bytes reclaimed.
  std::size_t compact();

  /// Visit every intact record in log order, in place. The payload
  /// views stay valid until the journal is next appended to, compacted
  /// or wiped.
  void scan(const std::function<void(const RecordView&)>& fn) const;

  /// Scan all segments and return a copy of every intact record in log
  /// order.
  std::vector<Record> recover() const;

  /// Fold recover() into newest-snapshot + chained delta suffix.
  RecoveredImage recover_image() const;

  /// Destroy the journal on disk (all segments).
  void wipe();

  // --- introspection ---
  std::size_t segment_count() const { return segments_.size(); }
  std::uint64_t records_appended() const { return records_appended_; }
  std::uint64_t bytes_appended() const { return bytes_appended_; }
  std::uint64_t append_failures() const { return append_failures_; }
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t bytes_reclaimed() const { return bytes_reclaimed_; }
  const std::string& prefix() const { return prefix_; }

 private:
  struct Segment {
    std::uint32_t index = 0;
    std::size_t bytes = 0;  // valid length: the offset the next append writes at
    bool has_snapshot = false;
    std::uint64_t max_snapshot_id = 0;
  };

  std::string segment_key(std::uint32_t index) const;
  Segment& active_segment();
  void rotate();
  void drop_oldest_over_cap();
  /// Parse one segment's bytes; visits intact records (when `fn` is
  /// set) and stops at the first corrupt/torn frame. Returns the number
  /// of valid bytes — the trustworthy prefix appends may continue after.
  static std::size_t scan_segment(ByteView bytes,
                                  const std::function<void(const RecordView&)>* fn);

  sim::Simulation* sim_;
  int node_;
  std::string prefix_;
  JournalOptions options_;
  std::vector<Segment> segments_;  // ascending index order

  std::uint64_t records_appended_ = 0;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t append_failures_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t bytes_reclaimed_ = 0;

  // Shared metric cells across all journals in a simulation.
  obs::Counter ctr_bytes_written_;
  obs::Counter ctr_records_;
  obs::Counter ctr_append_failures_;
  obs::Counter ctr_reclaimed_;
  obs::Gauge segments_gauge_;
};

}  // namespace oftt::store
