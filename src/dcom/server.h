// OrpcServer: the exporting side of the DCOM simulation. One per
// process (attachment); owns the export table, dispatches REQUESTs to
// stubs, answers ACTIVATE, and garbage-collects exports whose clients
// stopped pinging (the DCOM pinger).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "com/runtime.h"
#include "dcom/orpc.h"
#include "dcom/registry.h"
#include "obs/metrics.h"
#include "sim/timer.h"

namespace oftt::dcom {

class OrpcServer {
 public:
  explicit OrpcServer(sim::Process& process);

  static OrpcServer& of(sim::Process& process) {
    return process.attachment<OrpcServer>(process);
  }

  sim::Process& process() { return *process_; }

  /// Export a live object under `iid` using the registered stub factory.
  /// Returns an invalid ref if no proxy/stub is installed for the iid —
  /// the paper's "forgot to install the proxy/stub DLL" failure.
  ObjectRef export_object(com::ComPtr<com::IUnknown> object, const Iid& iid,
                          bool pinned = false);

  /// Export with an explicit dispatcher (used by tests and generated code).
  ObjectRef export_with_dispatch(com::ComPtr<com::IUnknown> keepalive, const Iid& iid,
                                 StubDispatch dispatch, bool pinned = false);

  bool exported(std::uint64_t oid) const { return exports_.count(oid) != 0; }
  std::size_t export_count() const { return exports_.size(); }

  /// Make this process's coclass remotely activatable (registers into
  /// the simulation-wide directory; see scm.h).
  void register_server_class(const Clsid& clsid, const std::string& name = "");

 private:
  void on_datagram(const sim::Datagram& d);
  void handle_request(const sim::Datagram& d);
  void handle_activate(const sim::Datagram& d);
  void handle_ping(const PingPacket& ping);
  void gc_sweep();
  void send_response(int node, const std::string& reply_port, ResponsePacket resp);

  struct Export {
    com::ComPtr<com::IUnknown> keepalive;
    Iid iid;
    StubDispatch dispatch;
    sim::SimTime last_ping = 0;
    bool pinned = false;
  };

  sim::Process* process_;
  std::string port_name_;  // marshalled into every ObjectRef
  sim::PortId port_;
  std::uint64_t next_oid_ = 1;
  std::map<std::uint64_t, Export> exports_;
  // Pre-resolved metric handles (dispatch + GC paths).
  obs::Counter ctr_bad_packet_;
  obs::Counter ctr_gc_reclaimed_;
  sim::PeriodicTimer gc_timer_;
};

}  // namespace oftt::dcom
