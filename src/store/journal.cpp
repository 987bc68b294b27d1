#include "store/journal.h"

#include <algorithm>
#include <cstdio>

#include "obs/telemetry.h"
#include "sim/disk.h"
#include "sim/simulation.h"

namespace oftt::store {
namespace {

constexpr std::uint32_t kMagic = 0x4A54464Fu;  // "OFTJ"
// Fixed bytes before the payload inside the crc-covered body.
constexpr std::size_t kBodyHeader = 1 + 8 + 8;  // type + id + base
// Frame preamble outside the crc: magic + frame_len + crc.
constexpr std::size_t kPreamble = 4 + 4 + 4;

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

Journal::Journal(sim::Simulation& sim, int node, std::string prefix, JournalOptions options)
    : sim_(&sim),
      node_(node),
      prefix_(std::move(prefix)),
      options_(options),
      ctr_bytes_written_(sim.telemetry().metrics().counter("store.journal_bytes_written")),
      ctr_records_(sim.telemetry().metrics().counter("store.journal_records")),
      ctr_append_failures_(
          sim.telemetry().metrics().counter("store.journal_append_failures")),
      ctr_reclaimed_(sim.telemetry().metrics().counter("store.journal_reclaimed_bytes")),
      segments_gauge_(sim.telemetry().metrics().gauge("store.journal_segments")) {
  auto& disk = sim::DiskStore::of(sim);
  std::vector<std::uint32_t> indices;
  const std::string seg_prefix = prefix_ + ".seg.";
  for (const std::string& key : disk.keys_with_prefix(node_, seg_prefix)) {
    indices.push_back(
        static_cast<std::uint32_t>(std::strtoul(key.c_str() + seg_prefix.size(), nullptr, 10)));
  }
  std::sort(indices.begin(), indices.end());
  for (std::uint32_t index : indices) {
    auto bytes = disk.read(node_, segment_key(index));
    if (!bytes) continue;
    Segment seg;
    seg.index = index;
    std::vector<Record> records;
    seg.bytes = scan_segment(*bytes, &records);
    for (const Record& r : records) {
      if (r.type == RecordType::kSnapshot) {
        seg.has_snapshot = true;
        seg.max_snapshot_id = std::max(seg.max_snapshot_id, r.id);
      }
    }
    segments_.push_back(seg);
  }
  segments_gauge_.add(static_cast<std::int64_t>(segments_.size()));
}

std::string Journal::segment_key(std::uint32_t index) const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08u", index);
  return prefix_ + ".seg." + buf;
}

Journal::Segment& Journal::active_segment() {
  if (segments_.empty()) {
    segments_.push_back(Segment{});
    segments_gauge_.add(1);
  }
  return segments_.back();
}

bool Journal::append(RecordType type, std::uint64_t id, std::uint64_t base,
                     const Buffer& payload) {
  return append(type, id, base, payload, crc32c(payload));
}

bool Journal::append(RecordType type, std::uint64_t id, std::uint64_t base,
                     const Buffer& payload, std::uint32_t payload_crc) {
  Segment& seg = active_segment();

  // Frame in one buffer: preamble, record header and payload, then
  // patch the CRC over type..payload into its slot, combined from the
  // header's CRC and the payload's.
  const std::size_t body_len = kBodyHeader + payload.size();
  BinaryWriter w;
  w.u32(kMagic);
  w.u32(static_cast<std::uint32_t>(body_len));
  w.u32(0);  // crc, patched below
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(id);
  w.u64(base);
  w.raw(payload.data(), payload.size());
  Buffer frame = std::move(w).take();
  const std::uint32_t crc =
      crc32c_combine(crc32c(frame.data() + kPreamble, kBodyHeader), payload_crc, payload.size());
  for (std::size_t i = 0; i < 4; ++i) frame[8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));

  // Append at the segment's valid length: a torn tail left by a crash is
  // overwritten, so the new frame lands on a trustworthy boundary.
  if (!sim::DiskStore::of(*sim_).write_at(node_, segment_key(seg.index), seg.bytes, frame)) {
    // The disk refused (full / failed) and kept the segment as it was.
    ++append_failures_;
    ctr_append_failures_.inc();
    return false;
  }
  seg.bytes += frame.size();
  const std::size_t active_bytes = seg.bytes;  // compact() may move `seg`
  if (type == RecordType::kSnapshot) {
    seg.has_snapshot = true;
    seg.max_snapshot_id = std::max(seg.max_snapshot_id, id);
  }
  ++records_appended_;
  bytes_appended_ += frame.size();
  ctr_records_.inc();
  ctr_bytes_written_.inc(frame.size());

  if (type == RecordType::kSnapshot && options_.auto_compact) compact();
  if (active_bytes >= options_.segment_bytes) rotate();
  drop_oldest_over_cap();
  return true;
}

void Journal::rotate() {
  std::uint32_t next = segments_.empty() ? 0 : segments_.back().index + 1;
  segments_.push_back(Segment{next});
  segments_gauge_.add(1);
}

void Journal::drop_oldest_over_cap() {
  if (options_.max_segments == 0) return;
  auto& disk = sim::DiskStore::of(*sim_);
  while (segments_.size() > options_.max_segments) {
    bytes_reclaimed_ += segments_.front().bytes;
    ctr_reclaimed_.inc(segments_.front().bytes);
    disk.erase(node_, segment_key(segments_.front().index));
    segments_.erase(segments_.begin());
    segments_gauge_.add(-1);
  }
}

std::size_t Journal::compact() {
  // Newest segment holding a snapshot: everything strictly older is
  // wholly shadowed (recovery starts at the newest snapshot).
  std::ptrdiff_t keep_from = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(segments_.size()) - 1; i >= 0; --i) {
    if (segments_[static_cast<std::size_t>(i)].has_snapshot) {
      keep_from = i;
      break;
    }
  }
  if (keep_from <= 0) return 0;
  auto& disk = sim::DiskStore::of(*sim_);
  std::size_t reclaimed = 0;
  for (std::ptrdiff_t i = 0; i < keep_from; ++i) {
    reclaimed += segments_[static_cast<std::size_t>(i)].bytes;
    disk.erase(node_, segment_key(segments_[static_cast<std::size_t>(i)].index));
  }
  segments_.erase(segments_.begin(), segments_.begin() + keep_from);
  segments_gauge_.add(-static_cast<std::int64_t>(keep_from));
  if (reclaimed > 0) {
    ++compactions_;
    bytes_reclaimed_ += reclaimed;
    ctr_reclaimed_.inc(reclaimed);
  }
  return reclaimed;
}

std::size_t Journal::scan_segment(const Buffer& bytes, std::vector<Record>* out) {
  std::size_t pos = 0;
  while (bytes.size() - pos >= kPreamble) {
    const std::uint8_t* p = bytes.data() + pos;
    if (read_u32(p) != kMagic) break;
    const std::uint32_t frame_len = read_u32(p + 4);
    const std::uint32_t crc = read_u32(p + 8);
    if (frame_len < kBodyHeader || frame_len > bytes.size() - pos - kPreamble) break;
    const std::uint8_t* body = p + kPreamble;
    if (crc32c(body, frame_len) != crc) break;
    Record r;
    r.type = static_cast<RecordType>(body[0]);
    r.id = read_u64(body + 1);
    r.base = read_u64(body + 9);
    r.payload.assign(body + kBodyHeader, body + frame_len);
    if (out) out->push_back(std::move(r));
    pos += kPreamble + frame_len;
  }
  return pos;
}

void Journal::wipe() {
  sim::DiskStore::of(*sim_).erase_prefix(node_, prefix_ + ".seg.");
  segments_gauge_.add(-static_cast<std::int64_t>(segments_.size()));
  segments_.clear();
}

std::vector<Record> Journal::recover() const {
  std::vector<Record> out;
  auto& disk = sim::DiskStore::of(*sim_);
  for (const Segment& seg : segments_) {
    auto bytes = disk.read(node_, segment_key(seg.index));
    if (!bytes) continue;
    scan_segment(*bytes, &out);
  }
  return out;
}

RecoveredImage Journal::recover_image() const {
  RecoveredImage img;
  std::vector<Record> records = recover();
  std::ptrdiff_t snap_at = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(records.size()) - 1; i >= 0; --i) {
    if (records[static_cast<std::size_t>(i)].type == RecordType::kSnapshot) {
      snap_at = i;
      break;
    }
  }
  if (snap_at < 0) return img;
  Record& snap = records[static_cast<std::size_t>(snap_at)];
  img.valid = true;
  img.snapshot = std::move(snap.payload);
  img.snapshot_id = snap.id;
  img.last_id = snap.id;
  for (std::size_t i = static_cast<std::size_t>(snap_at) + 1; i < records.size(); ++i) {
    Record& r = records[i];
    if (r.type != RecordType::kDelta) continue;
    if (r.base != img.last_id) continue;  // chain break: later deltas unusable
    img.last_id = r.id;
    img.deltas.push_back(std::move(r));
  }
  return img;
}

}  // namespace oftt::store
