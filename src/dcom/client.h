// OrpcClient: the importing side — issues REQUESTs with timeouts,
// matches RESPONSEs, runs the DCOM pinger for every proxy this process
// holds, and performs remote activation through the peer node's SCM.
//
// Calls are asynchronous (completion handler), because the whole world
// is event-driven; DCOM's synchronous-looking failure modes (a call
// that never returns until a long RPC timeout — §3.3) appear here as
// RPC_E_TIMEOUT completions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "com/unknown.h"
#include "dcom/orpc.h"
#include "dcom/registry.h"
#include "obs/metrics.h"
#include "sim/timer.h"

namespace oftt::dcom {

struct OrpcClientConfig {
  sim::SimTime call_timeout = sim::seconds(1);
};

class ProxyBase;

class OrpcClient {
 public:
  /// hr + marshaled out-values (valid only when SUCCEEDED(hr)).
  using ResultHandler = std::function<void(HRESULT, BinaryReader&)>;
  using ActivateHandler = std::function<void(HRESULT, const ObjectRef&)>;

  explicit OrpcClient(sim::Process& process);

  static OrpcClient& of(sim::Process& process) {
    return process.attachment<OrpcClient>(process);
  }

  sim::Process& process() { return *process_; }
  OrpcClientConfig& config() { return config_; }

  /// Invoke method on a remote object; `port` is ref.port as returned
  /// by add_ping_ref. `handler` may be null (fire-and-forget: no
  /// response matching, no timeout reporting).
  void invoke(const ObjectRef& ref, sim::PortId port, std::uint16_t method, Buffer args,
              ResultHandler handler, sim::SimTime timeout = -1);

  /// Remote CoCreateInstance: ask `node`'s SCM to activate clsid and
  /// hand back an ObjectRef for iid.
  void activate(int node, const Clsid& clsid, const Iid& iid, ActivateHandler handler,
                sim::SimTime timeout = -1);

  /// Build a typed proxy from a marshaled reference (registered
  /// ProxyFactory). Null if no proxy/stub is installed for ref.iid.
  com::ComPtr<com::IUnknown> unmarshal(const ObjectRef& ref);

  ~OrpcClient();

  /// Pinger bookkeeping (ProxyBase calls these). add_ping_ref returns
  /// ref.port's id, resolved when the destination is first stored.
  sim::PortId add_ping_ref(const ObjectRef& ref);
  void release_ping_ref(const ObjectRef& ref);

  // Proxy lifetime tracking: process teardown destroys attachments in
  // unspecified order, so the client orphans surviving proxies rather
  // than letting them dangle into it.
  void attach_proxy(ProxyBase* proxy) { live_proxies_.insert(proxy); }
  void detach_proxy(ProxyBase* proxy) { live_proxies_.erase(proxy); }

  std::size_t outstanding_calls() const { return calls_.size(); }

 private:
  void on_datagram(const sim::Datagram& d);
  void ping_sweep();
  void fail_call(std::uint64_t call_id, HRESULT hr);
  bool send_to(int node, sim::PortId port, Buffer payload);

  struct PendingCall {
    ResultHandler handler;
    sim::EventHandle timeout;
  };
  struct PendingActivation {
    ActivateHandler handler;
    sim::EventHandle timeout;
  };

  sim::Process* process_;
  std::string reply_port_name_;  // carried in requests and activations
  sim::PortId reply_port_;
  sim::PortId scm_port_;
  OrpcClientConfig config_;
  std::uint64_t next_call_id_ = 1;
  std::map<std::uint64_t, PendingCall> calls_;
  std::map<std::uint64_t, PendingActivation> activations_;
  struct PingDest {
    sim::PortId port;
    std::map<std::uint64_t, int> oids;  // oid -> refcount held by live proxies
  };
  std::map<std::pair<int, std::string>, PingDest> ping_refs_;  // by (node, port)
  std::set<ProxyBase*> live_proxies_;
  // Pre-resolved metric handles for the call completion paths.
  obs::Counter ctr_activate_timeout_;
  obs::Counter ctr_bad_packet_;
  obs::Counter ctr_late_response_;
  obs::Counter ctr_call_timeout_;
  sim::PeriodicTimer ping_timer_;
};

/// Base class for hand-written typed proxies. Holds the client, the
/// reference, and keeps the remote object alive via the pinger. A proxy
/// that outlives its client (process teardown) is "orphaned": calls on
/// it complete with RPC_E_DISCONNECTED.
class ProxyBase {
 public:
  const ObjectRef& ref() const { return ref_; }

 protected:
  ProxyBase(OrpcClient& client, ObjectRef ref)
      : client_(&client), ref_(std::move(ref)), port_(client_->add_ping_ref(ref_)) {
    client_->attach_proxy(this);
  }
  virtual ~ProxyBase() {
    if (client_ != nullptr) {
      client_->release_ping_ref(ref_);
      client_->detach_proxy(this);
    }
  }

  void invoke(std::uint16_t method, Buffer args, OrpcClient::ResultHandler handler,
              sim::SimTime timeout = -1) {
    if (client_ == nullptr) {
      if (handler) {
        Buffer empty;
        BinaryReader r(empty);
        handler(RPC_E_DISCONNECTED, r);
      }
      return;
    }
    client_->invoke(ref_, port_, method, std::move(args), std::move(handler), timeout);
  }

  OrpcClient& client() { return *client_; }

 private:
  friend class OrpcClient;
  OrpcClient* client_;
  ObjectRef ref_;
  sim::PortId port_;  // ref_.port
};

}  // namespace oftt::dcom
