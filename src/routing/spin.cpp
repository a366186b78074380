#include "routing/spin.hpp"

namespace wmsn::routing {

SpinRouting::SpinRouting(net::SensorNetwork& network, net::NodeId self,
                         const NetworkKnowledge& knowledge, SpinParams params)
    : RoutingProtocol(network, self, knowledge), params_(params) {}

void SpinRouting::advertise(std::uint64_t uid, std::uint8_t hops) {
  SpinDescriptorMsg descriptor;
  descriptor.uid = uid;
  descriptor.hops = hops;
  net::Packet adv = makePacket(net::PacketKind::kAdv, net::kBroadcastId,
                               descriptor.encode());
  sendBroadcastJittered(std::move(adv));
}

void SpinRouting::originate(Bytes appPayload) {
  if (isGateway()) return;
  (void)appPayload;  // regenerated from the cache at send time
  const std::uint64_t uid = registerGenerated();
  ++seq_;
  cache_.emplace(uid, 0);
  advertise(uid, 0);
}

void SpinRouting::onReceive(const net::Packet& packet, net::NodeId from) {
  switch (packet.kind) {
    case net::PacketKind::kAdv: {
      const auto adv = SpinDescriptorMsg::decode(packet.payload);
      if (cache_.contains(adv.uid)) return;            // already have it
      if (!requested_.insert(adv.uid).second) return;  // already asked someone
      if (!isGateway() && adv.hops + 1u >= params_.maxHops) return;
      // The REQ names the advertised descriptor.
      sendUnicast(from, makePacket(net::PacketKind::kReq, from, adv.encode()));
      return;
    }
    case net::PacketKind::kReq: {
      const auto [uid, hops] = SpinDescriptorMsg::decode(packet.payload);
      const auto it = cache_.find(uid);
      if (it == cache_.end()) return;  // we no longer (or never) had it
      DataMsg msg;
      msg.source = static_cast<std::uint16_t>(self());
      msg.gateway = kAllGateways;
      msg.dataSeq = ++seq_;
      msg.reading = Bytes(knowledge().readingBytes, 0x5b);
      net::Packet data =
          makePacket(net::PacketKind::kData, from, msg.encode());
      data.uid = uid;
      data.hops = it->second;
      sendUnicast(from, std::move(data));
      return;
    }
    case net::PacketKind::kData: {
      const std::uint64_t uid = packet.uid;
      const std::uint8_t hops = static_cast<std::uint8_t>(packet.hops + 1);
      if (!cache_.emplace(uid, hops).second) return;  // duplicate
      if (isGateway()) {
        const DataMsg msg = DataMsg::decode(packet.payload);
        reportDelivered(uid, msg.source, hops);
        return;
      }
      // Holding fresh data: negotiate it onward.
      advertise(uid, hops);
      return;
    }
    default:
      return;
  }
}

}  // namespace wmsn::routing
