// SessionSpeaker: a process attachment that speaks the reliable session
// protocol (transport::Endpoint) on one port. Ingress tests use it to
// open sessions from nodes that should not be heard.
#pragma once

#include <memory>

#include "sim/process.h"
#include "transport/session.h"

namespace oftt::testsupport {

struct SessionSpeaker {
  SessionSpeaker(sim::Process& p, sim::PortId port) {
    transport::SessionConfig cfg;
    cfg.networks = {0};
    p.bind(port, [this](const sim::Datagram& d) { ep->handle(d); });
    ep = std::make_unique<transport::Endpoint>(p.main_strand(), port, cfg);
  }
  std::unique_ptr<transport::Endpoint> ep;
};

}  // namespace oftt::testsupport
