#include "store/journal.h"

#include <algorithm>
#include <array>
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

template <class T>
std::uint8_t* put_le(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  return p;
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
    auto bytes = disk.view(node_, segment_key(index));
    if (!bytes) continue;
    Segment seg;
    seg.index = index;
    const std::function<void(const RecordView&)> note = [&seg](const RecordView& r) {
      if (r.type == RecordType::kSnapshot) {
        seg.has_snapshot = true;
        seg.max_snapshot_id = std::max(seg.max_snapshot_id, r.id);
      }
    };
    seg.bytes = scan_segment(*bytes, &note);
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

bool Journal::append(RecordType type, std::uint64_t id, std::uint64_t base, ByteView payload) {
  return append(type, id, base, payload, crc32c(payload));
}

bool Journal::append(RecordType type, std::uint64_t id, std::uint64_t base, ByteView payload,
                     std::uint32_t payload_crc) {
  Segment& seg = active_segment();

  // Header on the stack: preamble and record header, the CRC over
  // type..payload combined from the header's CRC and the payload's.
  std::array<std::uint8_t, kPreamble + kBodyHeader> header;
  std::uint8_t* body = header.data() + kPreamble;
  put_le(put_le(put_le(body, static_cast<std::uint8_t>(type)), id), base);
  const std::uint32_t crc =
      crc32c_combine(crc32c(body, kBodyHeader), payload_crc, payload.size());
  std::uint8_t* p = put_le(header.data(), kMagic);
  p = put_le(p, static_cast<std::uint32_t>(kBodyHeader + payload.size()));
  put_le(p, crc);
  const std::size_t frame_bytes = header.size() + payload.size();

  // Append at the segment's valid length: a torn tail left by a crash is
  // overwritten, so the new frame lands on a trustworthy boundary.
  if (!sim::DiskStore::of(*sim_).write_at(node_, segment_key(seg.index), seg.bytes,
                                          {ByteView(header), payload})) {
    // The disk refused (full / failed) and kept the segment as it was.
    ++append_failures_;
    ctr_append_failures_.inc();
    return false;
  }
  seg.bytes += frame_bytes;
  const std::size_t active_bytes = seg.bytes;  // compact() may move `seg`
  if (type == RecordType::kSnapshot) {
    seg.has_snapshot = true;
    seg.max_snapshot_id = std::max(seg.max_snapshot_id, id);
  }
  ++records_appended_;
  bytes_appended_ += frame_bytes;
  ctr_records_.inc();
  ctr_bytes_written_.inc(frame_bytes);

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

std::size_t Journal::scan_segment(ByteView bytes,
                                  const std::function<void(const RecordView&)>* fn) {
  std::size_t pos = 0;
  while (bytes.size() - pos >= kPreamble) {
    const std::uint8_t* p = bytes.data() + pos;
    if (read_u32(p) != kMagic) break;
    const std::uint32_t frame_len = read_u32(p + 4);
    const std::uint32_t crc = read_u32(p + 8);
    if (frame_len < kBodyHeader || frame_len > bytes.size() - pos - kPreamble) break;
    const std::uint8_t* body = p + kPreamble;
    if (crc32c(body, frame_len) != crc) break;
    if (fn) {
      (*fn)(RecordView{static_cast<RecordType>(body[0]), read_u64(body + 1), read_u64(body + 9),
                       ByteView(body + kBodyHeader, frame_len - kBodyHeader)});
    }
    pos += kPreamble + frame_len;
  }
  return pos;
}

void Journal::wipe() {
  sim::DiskStore::of(*sim_).erase_prefix(node_, prefix_ + ".seg.");
  segments_gauge_.add(-static_cast<std::int64_t>(segments_.size()));
  segments_.clear();
}

void Journal::scan(const std::function<void(const RecordView&)>& fn) const {
  auto& disk = sim::DiskStore::of(*sim_);
  for (const Segment& seg : segments_) {
    if (auto bytes = disk.view(node_, segment_key(seg.index))) scan_segment(*bytes, &fn);
  }
}

std::vector<Record> Journal::recover() const {
  std::vector<Record> out;
  scan([&out](const RecordView& r) {
    out.push_back(Record{r.type, r.id, r.base, Buffer(r.payload.begin(), r.payload.end())});
  });
  return out;
}

RecoveredImage Journal::recover_image() const {
  RecoveredImage img;
  // Fold over views; only the records of the chain are copied out.
  std::vector<RecordView> records;
  scan([&records](const RecordView& r) { records.push_back(r); });
  std::ptrdiff_t snap_at = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(records.size()) - 1; i >= 0; --i) {
    if (records[static_cast<std::size_t>(i)].type == RecordType::kSnapshot) {
      snap_at = i;
      break;
    }
  }
  if (snap_at < 0) return img;
  const RecordView& snap = records[static_cast<std::size_t>(snap_at)];
  img.valid = true;
  img.snapshot.assign(snap.payload.begin(), snap.payload.end());
  img.snapshot_id = snap.id;
  img.last_id = snap.id;
  for (std::size_t i = static_cast<std::size_t>(snap_at) + 1; i < records.size(); ++i) {
    const RecordView& r = records[i];
    if (r.type != RecordType::kDelta) continue;
    if (r.base != img.last_id) continue;  // chain break: later deltas unusable
    img.last_id = r.id;
    img.deltas.push_back(Record{r.type, r.id, r.base, Buffer(r.payload.begin(), r.payload.end())});
  }
  return img;
}

}  // namespace oftt::store
