#include "routing/protocol.hpp"

#include "obs/perf_stats.hpp"
#include "util/require.hpp"

namespace wmsn::routing {

RoutingProtocol::RoutingProtocol(net::SensorNetwork& network,
                                 net::NodeId self,
                                 const NetworkKnowledge& knowledge)
    : network_(network), self_(self), knowledge_(knowledge) {}

bool RoutingProtocol::isGateway() const {
  return network_.node(self_).isGateway();
}

net::Packet RoutingProtocol::makePacket(net::PacketKind kind,
                                        net::NodeId hopDst,
                                        Bytes payload) const {
  net::Packet pkt;
  pkt.kind = kind;
  pkt.origin = self_;
  pkt.hopSrc = self_;
  pkt.hopDst = hopDst;
  pkt.finalDst = net::kNoNode;
  pkt.payload = std::move(payload);
  return pkt;
}

void RoutingProtocol::sendBroadcast(net::Packet packet) {
  packet.hopDst = net::kBroadcastId;
  network_.sendFrom(self_, std::move(packet));
}

void RoutingProtocol::sendUnicast(net::NodeId nextHop, net::Packet packet) {
  packet.hopDst = nextHop;
  network_.sendFrom(self_, std::move(packet));
}

void RoutingProtocol::sendBroadcastJittered(net::Packet packet) {
  const sim::Time maxJitter = network_.floodJitter();
  if (maxJitter.us <= 0) {
    sendBroadcast(std::move(packet));
    return;
  }
  WMSN_PERF(kRngDraws);
  const sim::Time jitter = sim::Time::microseconds(
      network_.node(self_).rng().uniformInt(0, maxJitter.us));
  scheduleAfter(jitter, [this, packet = std::move(packet)]() mutable {
    sendBroadcast(std::move(packet));
  });
}

std::uint64_t RoutingProtocol::registerGenerated() {
  const std::uint64_t uid = network_.nextPacketUid();
  network_.stats().onGenerated(uid, self_, now());
  WMSN_TRACE(network_.tracer(), obs::TraceSpanKind::kOriginate, now().us, uid,
             self_);
  return uid;
}

void RoutingProtocol::reportDelivered(std::uint64_t uid, net::NodeId origin,
                                      std::uint32_t hops) {
  const bool first = network_.stats().onDelivered(uid, origin, self_, hops,
                                                  now());
  // Only the FIRST gateway delivery closes the reading's async trace —
  // duplicates (multipath, retransmission races) would emit unbalanced
  // Chrome-trace end events.
  if (first)
    WMSN_TRACE(network_.tracer(), obs::TraceSpanKind::kDeliver, now().us, uid,
               self_, origin, obs::TraceDropReason::kNone, hops);
}

ProtocolStack::ProtocolStack(net::SensorNetwork& network,
                             NetworkKnowledge knowledge,
                             const Factory& factory)
    : network_(network), knowledge_(std::move(knowledge)) {
  protocols_.reserve(network.size());
  for (net::NodeId id = 0; id < network.size(); ++id) {
    protocols_.push_back(factory(network, id, knowledge_));
    WMSN_REQUIRE(protocols_.back() != nullptr);
    network.node(id).setReceiveHandler(
        [this, id](const net::Packet& pkt, net::NodeId from) {
          // A malformed (hostile or corrupted) payload raises
          // PreconditionError from the decoder — the node drops the frame
          // instead of crashing.
          try {
            protocols_[id]->onReceive(pkt, from);
          } catch (const PreconditionError&) {
          }
        });
  }
}

RoutingProtocol& ProtocolStack::at(net::NodeId id) {
  WMSN_REQUIRE(id < protocols_.size());
  return *protocols_[id];
}

void ProtocolStack::startAll() {
  for (auto& p : protocols_) p->start();
}

void ProtocolStack::beginRound(std::uint32_t round) {
  // Active-set sweep: battery-dead and fault-crashed nodes are skipped
  // outright, not stepped-then-filtered — a corpse contributes zero
  // node-steps and zero RNG draws. Sleeping nodes still step (§4.4
  // duty-cycled sensing). The set is sorted ascending, so surviving nodes
  // run in exactly the order the all-nodes loop gave them.
  const auto& active = network_.activeNodeIds();
  WMSN_PERF(kNodeSteps, active.size());
  for (const net::NodeId id : active) protocols_[id]->onRoundStart(round);
}

void ProtocolStack::topologyChangedAll() {
  for (auto& p : protocols_) p->onTopologyChanged();
}

void ProtocolStack::replace(net::NodeId id,
                            std::unique_ptr<RoutingProtocol> protocol) {
  WMSN_REQUIRE(id < protocols_.size());
  WMSN_REQUIRE(protocol != nullptr);
  protocols_[id] = std::move(protocol);
}

}  // namespace wmsn::routing
