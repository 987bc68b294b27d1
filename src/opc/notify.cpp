#include "opc/notify.h"

#include "common/logging.h"
#include "common/strings.h"
#include "obs/event_bus.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace oftt::opc {

namespace {

constexpr const char* kNotifyPort = "opc.notify";

}  // namespace

Buffer encode_notify_frame(std::vector<SubBatch> batches) {
  return NotifyFrame{{}, std::move(batches)}.encode();
}

bool decode_notify_frame(ByteView payload, std::vector<SubBatch>* out) {
  NotifyFrame f;
  const bool ok = NotifyFrame::decode(payload, f);
  *out = ok ? std::move(f.batches) : std::vector<SubBatch>{};
  return ok;
}

transport::SessionConfig NotifyPlane::default_config() {
  transport::SessionConfig sc;
  sc.networks = {0};
  // Notification frames are high-rate and latest-wins; a deep queue
  // only adds staleness. Reject on overflow and surface the drop.
  sc.queue_cap = 256;
  sc.queue_policy = transport::QueuePolicy::kReject;
  return sc;
}

NotifyPlane::NotifyPlane(sim::Process& process, transport::SessionConfig config)
    : process_(&process),
      started_at_(process.sim().now()),
      ctr_notifications_(
          process.sim().telemetry().metrics().counter("oftt.opc.notifications")),
      ctr_bytes_(process.sim().telemetry().metrics().counter("oftt.opc.coalesced_bytes")),
      ctr_frames_(process.sim().telemetry().metrics().counter("oftt.opc.frames")),
      ctr_drops_(process.sim().telemetry().metrics().counter("oftt.opc.batch_drops")),
      rate_notifications_(
          process.sim().telemetry().metrics().gauge("oftt.opc.notifications_per_s")),
      rate_bytes_(
          process.sim().telemetry().metrics().gauge("oftt.opc.coalesced_bytes_per_s")),
      hist_latency_(process.sim().telemetry().metrics().histogram(
          "oftt.opc.update_to_notify_ns",
          {100'000, 300'000, 1'000'000, 3'000'000, 10'000'000, 30'000'000, 100'000'000,
           300'000'000, 1'000'000'000})) {
  const sim::PortId port = process.sim().port(kNotifyPort);
  process_->bind(port, [this](const sim::Datagram& d) {
    if (ep_ && ep_->handle(d)) return;
    // Nothing but transport frames rides this port.
  });
  ep_ = std::make_unique<transport::Endpoint>(process.main_strand(), port, std::move(config));
  ep_->on_deliver(
      [this](int src, int, ByteView payload) { on_frame(src, payload); });
}

NotifyPlane& NotifyPlane::of(sim::Process& process) {
  return process.attachment<NotifyPlane>(process);
}

NotifyPlane::Outbox& NotifyPlane::outbox(int client_node) {
  auto it = outboxes_.find(client_node);
  if (it == outboxes_.end()) {
    it = outboxes_.emplace(client_node, Outbox{}).first;
    it->second.pending_gauge = process_->sim().telemetry().metrics().gauge(
        cat("oftt.opc.pending_batches.n", client_node));
  }
  return it->second;
}

void NotifyPlane::enqueue(int client_node, std::uint32_t sub_id,
                          std::vector<NotifyItem> items) {
  if (items.empty()) return;
  Outbox& box = outbox(client_node);
  auto& batches = box.frame.batches;
  batches.push_back(SubBatch{sub_id, std::move(items)});
  box.pending_gauge.set(static_cast<std::int64_t>(batches.size()));
  if (!box.flush_scheduled) {
    box.flush_scheduled = true;
    // Flush at t+0: every batch enqueued during this sim timestamp —
    // all groups of this client that ticked this instant — joins the
    // same frame.
    process_->main_strand().schedule_after(0, [this, client_node] { flush(client_node); });
  }
}

void NotifyPlane::flush(int client_node) {
  Outbox& box = outbox(client_node);
  box.flush_scheduled = false;
  auto& batches = box.frame.batches;
  if (batches.empty()) return;

  std::uint64_t items = 0;
  for (const SubBatch& b : batches) items += b.items.size();
  const std::size_t nbatches = batches.size();
  Buffer frame = codec::encode(box.frame);
  batches.clear();
  box.pending_gauge.set(0);
  std::size_t frame_bytes = frame.size();
  if (!ep_->send(client_node, std::move(frame), /*tag=*/0, nullptr,
                 transport::kClassNotify)) {
    ++frames_rejected_;
    batches_dropped_ += nbatches;
    ctr_drops_.inc(nbatches);
    obs::Event e;
    e.kind = obs::EventKind::kOpcBatchDrop;
    e.node = process_->node().id();
    e.component = process_->name();
    e.detail = cat("notify queue full towards node ", client_node);
    e.a = static_cast<std::uint64_t>(client_node);
    e.b = batches_dropped_;
    process_->sim().telemetry().bus().publish(e);
    return;
  }
  ++frames_sent_;
  notifications_sent_ += items;
  ctr_frames_.inc();
  ctr_notifications_.inc(items);
  ctr_bytes_.inc(frame_bytes);
  sim::SimTime elapsed = process_->sim().now() - started_at_;
  if (elapsed > 0) {
    double secs = sim::to_seconds(elapsed);
    rate_notifications_.set(
        static_cast<std::int64_t>(static_cast<double>(ctr_notifications_.value()) / secs));
    rate_bytes_.set(
        static_cast<std::int64_t>(static_cast<double>(ctr_bytes_.value()) / secs));
  }
}

void NotifyPlane::on_frame(int src_node, ByteView payload) {
  (void)src_node;
  // Fail closed: no sink sees any batch of a frame that does not decode.
  if (!NotifyFrame::decode(payload, rx_frame_)) {
    OFTT_LOG_WARN("opc/notify", process_->name(), ": malformed notify frame dropped");
    return;
  }
  ++frames_received_;
  sim::SimTime now = process_->sim().now();
  for (const SubBatch& b : rx_frame_.batches) {
    notifications_received_ += b.items.size();
    // A batch's items mostly share one timestamp (one scan changed
    // them), so each run of equal latencies is recorded once.
    std::int64_t run_latency = 0;
    std::uint64_t run_length = 0;
    for (const NotifyItem& item : b.items) {
      if (item.timestamp < 0 || item.timestamp > now) continue;
      const std::int64_t latency = now - item.timestamp;
      if (latency != run_latency) {
        hist_latency_.record(run_latency, run_length);
        run_latency = latency;
        run_length = 0;
      }
      ++run_length;
    }
    hist_latency_.record(run_latency, run_length);
    auto sink = sinks_.find(b.sub_id);
    if (sink != sinks_.end() && sink->second) sink->second(b);
  }
}

}  // namespace oftt::opc
