#include "dcom/server.h"

#include "common/logging.h"
#include "common/strings.h"
#include "dcom/scm.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace oftt::dcom {
namespace {
constexpr int kPingGracePeriods = 3;  // missed pings before an export is reclaimed
}  // namespace

OrpcServer::OrpcServer(sim::Process& process)
    : process_(&process),
      port_name_(cat("orpc.", process.name())),
      port_(process.sim().port(port_name_)),
      ctr_bad_packet_(process.sim().telemetry().metrics().counter("orpc.bad_packet")),
      ctr_gc_reclaimed_(process.sim().telemetry().metrics().counter("orpc.gc_reclaimed")),
      gc_timer_(process.main_strand()) {
  process_->bind(port_, [this](const sim::Datagram& d) { on_datagram(d); });
  gc_timer_.start(kPingPeriod, [this] { gc_sweep(); });
}

ObjectRef OrpcServer::export_object(com::ComPtr<com::IUnknown> object, const Iid& iid,
                                    bool pinned) {
  const StubFactory* factory = InterfaceRegistry::instance().find_stub(iid);
  if (factory == nullptr) {
    OFTT_LOG_ERROR("dcom", process_->name(), ": no proxy/stub registered for ",
                   iid.to_string(), " — cannot marshal");
    return ObjectRef{};
  }
  return export_with_dispatch(object, iid, (*factory)(object, *this), pinned);
}

ObjectRef OrpcServer::export_with_dispatch(com::ComPtr<com::IUnknown> keepalive, const Iid& iid,
                                           StubDispatch dispatch, bool pinned) {
  std::uint64_t oid = next_oid_++;
  exports_[oid] = Export{std::move(keepalive), iid, std::move(dispatch),
                         process_->sim().now(), pinned};
  ObjectRef ref;
  ref.node = process_->node().id();
  ref.port = port_name_;
  ref.oid = oid;
  ref.iid = iid;
  return ref;
}

void OrpcServer::register_server_class(const Clsid& clsid, const std::string& name) {
  Directory::of(process_->sim())
      .register_class(process_->node().id(), clsid,
                      Directory::Entry{process_->name(), port_, name});
}

void OrpcServer::on_datagram(const sim::Datagram& d) {
  switch (packet_kind(d.payload)) {
    case static_cast<std::uint8_t>(PacketKind::kRequest): handle_request(d); break;
    case static_cast<std::uint8_t>(PacketKind::kActivate): handle_activate(d); break;
    case static_cast<std::uint8_t>(PacketKind::kPing): {
      PingPacket ping;
      if (decode_ping(d.payload, ping)) handle_ping(ping);
      break;
    }
    default: ctr_bad_packet_.inc(); break;
  }
}

void OrpcServer::handle_request(const sim::Datagram& d) {
  RequestPacket req;
  if (!decode_request(d.payload, req)) {
    ctr_bad_packet_.inc();
    return;
  }
  ResponsePacket resp;
  resp.call_id = req.call_id;
  auto it = exports_.find(req.oid);
  if (it == exports_.end()) {
    // Stale reference — the object was reclaimed or the process restarted.
    resp.hr = RPC_E_DISCONNECTED;
  } else {
    BinaryReader args(req.args);
    BinaryWriter result;
    resp.hr = it->second.dispatch(req.method, args, result);
    resp.result = std::move(result).take();
    it->second.last_ping = process_->sim().now();
  }
  send_response(req.reply_node, req.reply_port, std::move(resp));
}

void OrpcServer::handle_activate(const sim::Datagram& d) {
  ActivatePacket act;
  if (!decode_activate(d.payload, act)) return;
  ResponsePacket resp;
  resp.call_id = act.call_id;

  com::ComRuntime& com = com::ComRuntime::of(*process_);
  com::ComPtr<com::IUnknown> obj;
  HRESULT hr = com.create_instance(act.clsid, com::IUnknown::iid(), obj.put_void());
  if (FAILED(hr)) {
    resp.hr = hr;
  } else {
    ObjectRef ref = export_object(obj, act.iid);
    if (!ref.valid()) {
      resp.hr = REGDB_E_CLASSNOTREG;  // missing proxy/stub installation
    } else {
      resp.hr = S_OK;
      resp.result = codec::encode(ref);
    }
  }
  send_response(act.reply_node, act.reply_port, std::move(resp));
}

void OrpcServer::handle_ping(const PingPacket& ping) {
  sim::SimTime now = process_->sim().now();
  for (auto oid : ping.oids) {
    auto it = exports_.find(oid);
    if (it != exports_.end()) it->second.last_ping = now;
  }
}

void OrpcServer::gc_sweep() {
  sim::SimTime now = process_->sim().now();
  sim::SimTime limit = kPingPeriod * kPingGracePeriods;
  for (auto it = exports_.begin(); it != exports_.end();) {
    if (!it->second.pinned && now - it->second.last_ping > limit) {
      OFTT_LOG_DEBUG("dcom", process_->name(), ": GC reclaimed oid ", it->first);
      ctr_gc_reclaimed_.inc();
      it = exports_.erase(it);
    } else {
      ++it;
    }
  }
}

void OrpcServer::send_response(int node, const std::string& reply_port, ResponsePacket resp) {
  if (node < 0) return;
  int net = sim::pick_network(process_->sim(), process_->node().id(), node);
  if (net < 0) return;
  // The reply port arrives in the request itself: it is resolved once,
  // here, and only when a response is owed.
  process_->send(net, node, process_->sim().port(reply_port), encode_response(resp), port_);
}

}  // namespace oftt::dcom
