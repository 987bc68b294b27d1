#include "dcom/client.h"

#include "common/logging.h"
#include "common/strings.h"
#include "dcom/scm.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace oftt::dcom {

OrpcClient::OrpcClient(sim::Process& process)
    : process_(&process),
      reply_port_name_(cat("orpcc.", process.name())),
      reply_port_(process.sim().port(reply_port_name_)),
      scm_port_(process.sim().port(kScmPort)),
      ctr_activate_timeout_(
          process.sim().telemetry().metrics().counter("orpc.activate_timeout")),
      ctr_bad_packet_(process.sim().telemetry().metrics().counter("orpc.bad_packet")),
      ctr_late_response_(process.sim().telemetry().metrics().counter("orpc.late_response")),
      ctr_call_timeout_(process.sim().telemetry().metrics().counter("orpc.call_timeout")),
      ping_timer_(process.main_strand()) {
  process_->bind(reply_port_, [this](const sim::Datagram& d) { on_datagram(d); });
  ping_timer_.start(kPingPeriod, [this] { ping_sweep(); });
}

OrpcClient::~OrpcClient() {
  for (ProxyBase* proxy : live_proxies_) proxy->client_ = nullptr;
}

bool OrpcClient::send_to(int node, sim::PortId port, Buffer payload) {
  int net = sim::pick_network(process_->sim(), process_->node().id(), node);
  if (net < 0) return false;
  return process_->send(net, node, port, std::move(payload), reply_port_);
}

void OrpcClient::invoke(const ObjectRef& ref, sim::PortId port, std::uint16_t method,
                        Buffer args, ResultHandler handler, sim::SimTime timeout) {
  if (!ref.valid()) {
    if (handler) {
      Buffer empty;
      BinaryReader r(empty);
      handler(E_INVALIDARG, r);
    }
    return;
  }
  RequestPacket req;
  req.call_id = next_call_id_++;
  req.oid = ref.oid;
  req.iid = ref.iid;
  req.method = method;
  req.args = std::move(args);
  if (handler) {
    req.reply_node = process_->node().id();
    req.reply_port = reply_port_name_;
  }
  bool sent = send_to(ref.node, port, encode_request(req));
  if (!handler) return;

  if (!sent) {
    // Local refusal (no common network): fail fast like a dead wire.
    Buffer empty;
    BinaryReader r(empty);
    handler(RPC_E_DISCONNECTED, r);
    return;
  }
  sim::SimTime to = timeout >= 0 ? timeout : config_.call_timeout;
  std::uint64_t id = req.call_id;
  PendingCall pending;
  pending.handler = std::move(handler);
  pending.timeout =
      process_->main_strand().schedule_after(to, [this, id] { fail_call(id, RPC_E_TIMEOUT); });
  calls_.emplace(id, std::move(pending));
}

void OrpcClient::activate(int node, const Clsid& clsid, const Iid& iid, ActivateHandler handler,
                          sim::SimTime timeout) {
  ActivatePacket act;
  act.call_id = next_call_id_++;
  act.clsid = clsid;
  act.iid = iid;
  act.reply_node = process_->node().id();
  act.reply_port = reply_port_name_;
  bool sent = send_to(node, scm_port_, encode_activate(act));
  if (!handler) return;
  if (!sent) {
    handler(RPC_E_DISCONNECTED, ObjectRef{});
    return;
  }
  sim::SimTime to = timeout >= 0 ? timeout : config_.call_timeout;
  std::uint64_t id = act.call_id;
  PendingActivation pending;
  pending.handler = std::move(handler);
  pending.timeout = process_->main_strand().schedule_after(to, [this, id] {
    auto it = activations_.find(id);
    if (it == activations_.end()) return;
    auto h = std::move(it->second.handler);
    activations_.erase(it);
    ctr_activate_timeout_.inc();
    h(RPC_E_TIMEOUT, ObjectRef{});
  });
  activations_.emplace(id, std::move(pending));
}

com::ComPtr<com::IUnknown> OrpcClient::unmarshal(const ObjectRef& ref) {
  if (!ref.valid()) return {};
  const ProxyFactory* factory = InterfaceRegistry::instance().find_proxy(ref.iid);
  if (factory == nullptr) {
    OFTT_LOG_ERROR("dcom", process_->name(), ": no proxy registered for ", ref.iid.to_string());
    return {};
  }
  return (*factory)(*this, ref);
}

void OrpcClient::on_datagram(const sim::Datagram& d) {
  ResponsePacket resp;
  if (!decode_response(d.payload, resp)) {
    ctr_bad_packet_.inc();
    return;
  }
  if (auto it = calls_.find(resp.call_id); it != calls_.end()) {
    auto pending = std::move(it->second);
    process_->sim().cancel(pending.timeout);
    calls_.erase(it);
    BinaryReader r(resp.result);
    pending.handler(resp.hr, r);
    return;
  }
  if (auto it = activations_.find(resp.call_id); it != activations_.end()) {
    auto pending = std::move(it->second);
    process_->sim().cancel(pending.timeout);
    activations_.erase(it);
    ObjectRef ref;
    if (SUCCEEDED(resp.hr)) {
      if (!codec::decode(resp.result, ref)) resp.hr = E_UNEXPECTED;
    }
    pending.handler(resp.hr, ref);
    return;
  }
  // Late response after timeout: drop.
  ctr_late_response_.inc();
}

void OrpcClient::fail_call(std::uint64_t call_id, HRESULT hr) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  auto handler = std::move(it->second.handler);
  calls_.erase(it);
  ctr_call_timeout_.inc();
  Buffer empty;
  BinaryReader r(empty);
  handler(hr, r);
}

sim::PortId OrpcClient::add_ping_ref(const ObjectRef& ref) {
  auto [it, added] = ping_refs_.try_emplace({ref.node, ref.port});
  if (added) it->second.port = process_->sim().port(ref.port);
  it->second.oids[ref.oid]++;
  return it->second.port;
}

void OrpcClient::release_ping_ref(const ObjectRef& ref) {
  auto it = ping_refs_.find({ref.node, ref.port});
  if (it == ping_refs_.end()) return;
  auto& oids = it->second.oids;
  auto oid_it = oids.find(ref.oid);
  if (oid_it == oids.end()) return;
  if (--oid_it->second <= 0) oids.erase(oid_it);
  if (oids.empty()) ping_refs_.erase(it);
}

void OrpcClient::ping_sweep() {
  for (const auto& [dest, pd] : ping_refs_) {
    PingPacket ping;
    ping.oids.reserve(pd.oids.size());
    for (const auto& [oid, _] : pd.oids) ping.oids.push_back(oid);
    send_to(dest.first, pd.port, encode_ping(ping));
  }
}

}  // namespace oftt::dcom
