// Test client that sends hand-numbered requests straight to every replica of
// a group and ignores replies, so a test controls exactly which (origin, seq)
// reaches the group and when: gaps, resends and replays included.
#pragma once

#include <string>

#include "bft/message.hpp"
#include "bft/replica.hpp"
#include "sim/actor.hpp"
#include "sim/simulation.hpp"

namespace byzcast::testing {

class RawClient final : public sim::Actor {
 public:
  RawClient(sim::Simulation& sim, bft::GroupInfo group, std::string name)
      : Actor(sim, std::move(name)), group_(std::move(group)) {}

  /// Sends this client's request number `seq` (op "<name>-<seq>") to all
  /// replicas; the same seq always carries the same op.
  void send_seq(std::uint64_t seq) {
    bft::Request req;
    req.group = group_.id;
    req.origin = id();
    req.seq = seq;
    req.op = to_bytes(name() + "-" + std::to_string(seq));
    const Bytes encoded = bft::encode_request(req);
    for (const ProcessId replica : group_.replicas()) send(replica, encoded);
  }

 protected:
  void on_message(const sim::WireMessage&) override {}

 private:
  bft::GroupInfo group_;
};

}  // namespace byzcast::testing
