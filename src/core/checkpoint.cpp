#include "core/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace oftt::core {

std::size_t CheckpointImage::payload_bytes() const {
  std::size_t n = 0;
  for (const auto& [name, bytes] : regions) n += name.size() + bytes.size();
  for (const auto& c : cells) n += c.region.size() + c.bytes.size();
  for (const auto& [name, ctx] : task_contexts) n += name.size() + ctx.size();
  return n;
}

Buffer CheckpointImage::marshal() const {
  BinaryWriter w;
  w.reserve(marshalled_size());
  marshal(w);
  return std::move(w).take();
}

void CheckpointImage::marshal(BinaryWriter& w) const {
  const std::size_t start = w.size();
  codec::write(w, *this);
  // CRC-32C over the image serialized so far, zero-extended to the
  // 8-byte trailer.
  w.u64(crc32c(w.data().data() + start, w.size() - start));
}

bool CheckpointImage::unmarshal(ByteView buf, CheckpointImage& out) {
  if (buf.size() < kTrailerBytes) return false;
  // Validate the trailing checksum first. The trailer is a CRC-32C
  // zero-extended to 8 bytes; nonzero high bits mean a foreign or
  // damaged trailer, never a valid one.
  const ByteView body = buf.first(buf.size() - kTrailerBytes);
  const std::uint64_t stored = BinaryReader(buf.last(kTrailerBytes)).u64();
  if (stored > 0xFFFFFFFFu || crc32c(body) != stored) return false;
  // A checksum-valid body still decodes fail-closed: every count is
  // bounded by the bytes behind it before anything is allocated.
  if (!codec::decode(body, out)) return false;
  out.checksum = stored;
  return true;
}

std::uint32_t CheckpointImage::crc32c_of_marshalled(ByteView buf) {
  const ByteView trailer = buf.last(kTrailerBytes);
  const auto body_crc = static_cast<std::uint32_t>(BinaryReader(trailer).u64());
  return crc32c_combine(body_crc, crc32c(trailer), kTrailerBytes);
}

CheckpointImage capture_checkpoint(nt::NtRuntime& rt, CheckpointMode mode,
                                   const std::vector<CellSpec>& cells, std::uint64_t seq,
                                   std::uint32_t incarnation,
                                   const std::vector<nt::Task*>& discoverable_tasks) {
  CheckpointImage img;
  img.seq = seq;
  img.incarnation = incarnation;
  img.mode = mode;
  img.taken_at = 0;
  if (mode == CheckpointMode::kFull) {
    // Memory walkthrough: snapshot every region.
    for (const auto& [name, region] : rt.memory().regions()) {
      img.regions[name] = region->snapshot();
    }
  } else {
    for (const auto& spec : cells) {
      // Const view: capturing must not disturb the dirty tracking.
      const nt::Region* region = rt.memory().find(spec.region);
      if (region == nullptr || spec.offset + spec.size > region->size()) continue;
      SelectiveCell c;
      c.region = spec.region;
      c.offset = spec.offset;
      c.bytes.assign(region->data() + spec.offset, region->data() + spec.offset + spec.size);
      img.cells.push_back(std::move(c));
    }
  }
  for (nt::Task* task : discoverable_tasks) {
    img.task_contexts[task->name()] = task->capture_context().encode();
  }
  return img;
}

CheckpointImage capture_delta_checkpoint(nt::NtRuntime& rt, std::uint64_t seq,
                                         std::uint64_t base_seq, std::uint32_t incarnation,
                                         const std::vector<nt::Task*>& discoverable_tasks) {
  CheckpointImage img;
  img.seq = seq;
  img.base_seq = base_seq;
  img.incarnation = incarnation;
  img.mode = CheckpointMode::kDelta;
  img.taken_at = 0;
  for (const auto& [name, region_ptr] : rt.memory().regions()) {
    // Const view: capturing must not disturb the dirty tracking (the
    // non-const data() overload marks the whole region dirty).
    const nt::Region& region = *region_ptr;
    if (!region.dirty()) continue;
    if (region.dirty_all()) {
      img.regions[name] = region.snapshot();
      continue;
    }
    const std::uint8_t* base = region.data();
    for (const nt::Region::Range& range : region.dirty_ranges()) {
      SelectiveCell c;
      c.region = name;
      c.offset = static_cast<std::uint32_t>(range.begin);
      c.bytes.assign(base + range.begin, base + range.end);
      img.cells.push_back(std::move(c));
    }
  }
  for (nt::Task* task : discoverable_tasks) {
    img.task_contexts[task->name()] = task->capture_context().encode();
  }
  return img;
}

DeltaApplyResult apply_delta(CheckpointImage& base, const CheckpointImage& delta) {
  DeltaApplyResult result;
  // Verify the chain before touching the base: a delta that does not
  // apply on exactly this image would merge stale bytes into regions it
  // was never diffed against, and the corruption would ride every later
  // delta. The caller gets an explicit need-full signal instead.
  if (delta.mode != CheckpointMode::kDelta || delta.incarnation != base.incarnation ||
      delta.base_seq != base.seq) {
    OFTT_LOG_WARN("oftt/ckpt", "delta ", delta.seq, " (base ", delta.base_seq, " inc ",
                  delta.incarnation, ") does not chain on image ", base.seq, " inc ",
                  base.incarnation, "; full resync needed");
    result.status = DeltaApply::kNeedFull;
    return result;
  }
  for (const auto& [name, bytes] : delta.regions) base.regions[name] = bytes;
  for (const auto& c : delta.cells) {
    auto it = base.regions.find(c.region);
    if (it == base.regions.end() || c.offset + c.bytes.size() > it->second.size()) {
      ++result.anomalies;
      continue;
    }
    std::memcpy(it->second.data() + c.offset, c.bytes.data(), c.bytes.size());
  }
  for (const auto& [name, ctx] : delta.task_contexts) base.task_contexts[name] = ctx;
  base.seq = delta.seq;
  base.incarnation = delta.incarnation;
  base.taken_at = delta.taken_at;
  if (delta.decision_seq > base.decision_seq) base.decision_seq = delta.decision_seq;
  if (result.anomalies > 0) {
    OFTT_LOG_WARN("oftt/ckpt", "delta ", delta.seq, " applied with ", result.anomalies,
                  " anomalies");
  }
  return result;
}

int restore_checkpoint(nt::NtRuntime& rt, const CheckpointImage& image) {
  int anomalies = 0;
  for (const auto& [name, bytes] : image.regions) {
    // An existing region keeps its size (alloc asserts a match); a
    // mismatch is clamped and counted below.
    nt::Region* existing = rt.memory().find(name);
    nt::Region& region = existing != nullptr
                             ? *existing
                             : rt.memory().alloc(name, bytes.size() == 0 ? 1 : bytes.size());
    if (region.size() == bytes.size()) {
      region.restore(bytes);
    } else {
      std::size_t n = std::min<std::size_t>(region.size(), bytes.size());
      std::memcpy(region.data(), bytes.data(), n);
      ++anomalies;
    }
  }
  for (const auto& c : image.cells) {
    nt::Region* region = rt.memory().find(c.region);
    if (region == nullptr || c.offset + c.bytes.size() > region->size()) {
      ++anomalies;
      continue;
    }
    std::memcpy(region->data() + c.offset, c.bytes.data(), c.bytes.size());
  }
  for (const auto& [name, ctx_bytes] : image.task_contexts) {
    nt::Task* task = rt.find_task_by_name(name);
    if (task == nullptr) {
      ++anomalies;
      continue;
    }
    nt::TaskContext ctx;
    if (!nt::TaskContext::decode(ctx_bytes, ctx)) {
      ++anomalies;
      continue;
    }
    task->restore_context(ctx);
  }
  if (anomalies > 0) {
    OFTT_LOG_WARN("oftt/ckpt", "restore completed with ", anomalies, " anomalies");
  }
  return anomalies;
}

}  // namespace oftt::core
