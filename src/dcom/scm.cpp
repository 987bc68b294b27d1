#include "dcom/scm.h"

#include "common/logging.h"
#include "dcom/orpc.h"
#include "dcom/server.h"

namespace oftt::dcom {
namespace {

/// The SCM service object living inside the "scm" process.
class ScmService {
 public:
  explicit ScmService(sim::Process& process)
      : process_(&process), port_(process.sim().port(kScmPort)) {
    process_->bind(port_, [this](const sim::Datagram& d) { on_datagram(d); });
  }

 private:
  void on_datagram(const sim::Datagram& d) {
    ActivatePacket act;
    if (!decode_activate(d.payload, act)) return;
    sim::Node& node = process_->node();
    const Directory::Entry* entry = Directory::of(node.sim()).find(node.id(), act.clsid);
    if (entry == nullptr) {
      respond(act, REGDB_E_CLASSNOTREG);
      return;
    }
    auto server = node.find_process(entry->process);
    if (!server || !server->alive()) {
      // Launch the local server, as CoCreateInstance would.
      server = node.restart_process(entry->process);
      if (!server || !server->alive()) {
        respond(act, CO_E_SERVER_EXEC_FAILURE);
        return;
      }
      OFTT_LOG_INFO("dcom/scm", node.name(), ": launched local server '", entry->process,
                    "' for activation");
    }
    // Forward the activation to the server's ORPC endpoint; it responds
    // to the original requester directly.
    int net = sim::pick_network(node.sim(), node.id(), node.id());
    if (net < 0) return;
    process_->send(net, node.id(), entry->orpc_port, encode_activate(act), port_);
  }

  void respond(const ActivatePacket& act, HRESULT hr) {
    if (act.reply_node < 0) return;
    ResponsePacket resp;
    resp.call_id = act.call_id;
    resp.hr = hr;
    int net = sim::pick_network(process_->sim(), process_->node().id(), act.reply_node);
    if (net < 0) return;
    // The reply port arrives in this packet, so it is resolved here.
    process_->send(net, act.reply_node, process_->sim().port(act.reply_port),
                   encode_response(resp), port_);
  }

  sim::Process* process_;
  sim::PortId port_;
};

}  // namespace

std::shared_ptr<sim::Process> install_scm(sim::Node& node) {
  return node.start_process("scm", [](sim::Process& proc) {
    proc.add_component(std::make_shared<ScmService>(proc));
  });
}

}  // namespace oftt::dcom
