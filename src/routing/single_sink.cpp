#include "routing/single_sink.hpp"

#include "routing/messages.hpp"
#include "util/require.hpp"

namespace wmsn::routing {

SingleSinkRouting::SingleSinkRouting(net::SensorNetwork& network,
                                     net::NodeId self,
                                     const NetworkKnowledge& knowledge)
    : RoutingProtocol(network, self, knowledge) {
  WMSN_REQUIRE_MSG(!knowledge.gatewayIds.empty(),
                   "single-sink baseline needs a sink");
}

bool SingleSinkRouting::isTheSink() const {
  return self() == knowledge().gatewayIds.front();
}

void SingleSinkRouting::start() {
  if (isTheSink()) beacon();
}

void SingleSinkRouting::onRoundStart(std::uint32_t /*round*/) {
  // Stale gradient entries must not survive the re-beacon: a node that lost
  // its parent would otherwise forward into a void forever.
  if (!isTheSink()) return;
  ++epoch_;
  beacon();
}

void SingleSinkRouting::beacon() {
  CostBeaconMsg msg;
  msg.sink = static_cast<std::uint16_t>(self());
  msg.cost = 0;
  msg.epoch = epoch_;
  cost_ = 0;
  sendBroadcast(makePacket(net::PacketKind::kCostBeacon, net::kBroadcastId,
                           msg.encode()));
}

void SingleSinkRouting::onReceive(const net::Packet& packet,
                                  net::NodeId from) {
  switch (packet.kind) {
    case net::PacketKind::kCostBeacon: {
      if (isTheSink()) return;
      const CostBeaconMsg msg = CostBeaconMsg::decode(packet.payload);
      const std::uint16_t myCost = static_cast<std::uint16_t>(msg.cost + 1);
      const bool newEpoch = msg.epoch > epoch_;
      if (newEpoch) {
        epoch_ = msg.epoch;
        cost_.reset();
        parent_.reset();
      }
      if (!cost_ || myCost < *cost_) {
        cost_ = myCost;
        parent_ = from;
        CostBeaconMsg rebroadcast = msg;
        rebroadcast.cost = myCost;
        sendBroadcastJittered(makePacket(net::PacketKind::kCostBeacon,
                                         net::kBroadcastId,
                                         rebroadcast.encode()));
      }
      return;
    }
    case net::PacketKind::kData: {
      if (isTheSink()) {
        if (deliveredSeen_.insert(packet.uid).second)
          reportDelivered(packet.uid, packet.origin, packet.hops + 1u);
        return;
      }
      if (!parent_) return;  // no gradient — drop
      net::Packet copy = packet;
      copy.hops = static_cast<std::uint8_t>(packet.hops + 1);
      sendUnicast(*parent_, std::move(copy));
      return;
    }
    default:
      return;
  }
}

void SingleSinkRouting::originate(Bytes appPayload) {
  if (isGateway()) return;
  const std::uint64_t uid = registerGenerated();
  if (!parent_) return;  // never heard a beacon: partitioned from the sink

  DataMsg msg;
  msg.source = static_cast<std::uint16_t>(self());
  msg.gateway = static_cast<std::uint16_t>(knowledge().gatewayIds.front());
  msg.dataSeq = ++seq_;
  msg.reading = std::move(appPayload);

  net::Packet pkt;
  pkt.kind = net::PacketKind::kData;
  pkt.origin = self();
  pkt.finalDst = knowledge().gatewayIds.front();
  pkt.seq = seq_;
  pkt.uid = uid;
  pkt.payload = msg.encode();
  sendUnicast(*parent_, std::move(pkt));
}

}  // namespace wmsn::routing
