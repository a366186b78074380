#include "routing/diffusion.hpp"

#include "util/require.hpp"

namespace wmsn::routing {

namespace {

/// Data-mode markers carried in DataMsg::place.
constexpr std::uint16_t kExploratory = 0xfffd;
constexpr std::uint16_t kReinforced = 0xfffc;

}  // namespace

DiffusionRouting::DiffusionRouting(net::SensorNetwork& network,
                                   net::NodeId self,
                                   const NetworkKnowledge& knowledge,
                                   DiffusionParams params)
    : RoutingProtocol(network, self, knowledge), params_(params) {
  WMSN_REQUIRE_MSG(!knowledge.gatewayIds.empty(),
                   "directed diffusion needs a sink");
}

void DiffusionRouting::start() {
  if (isSink()) floodInterest();
}

void DiffusionRouting::onRoundStart(std::uint32_t /*round*/) {
  if (!isSink()) {
    // A fresh interest epoch invalidates gradients and reinforcements —
    // the paradigm's soft-state refresh.
    gradients_.clear();
    bestGradientHops_ = 0xffff;
    exploratoryFrom_.clear();
    reinforcedNext_.reset();
    return;
  }
  reinforcedOrigins_.clear();
  floodInterest();
}

void DiffusionRouting::onTopologyChanged() {
  // Recovery from a crash (the active-set scheduler skipped the soft-state
  // refresh while this node was down): gradients learned before the crash
  // point at a topology that no longer exists. Drop them; the next interest
  // epoch rebuilds.
  if (isSink()) return;
  gradients_.clear();
  bestGradientHops_ = 0xffff;
  exploratoryFrom_.clear();
  reinforcedNext_.reset();
}

void DiffusionRouting::floodInterest() {
  ++epoch_;
  CostBeaconMsg msg;
  msg.sink = static_cast<std::uint16_t>(self());
  msg.cost = 0;
  msg.epoch = epoch_;
  sendBroadcast(makePacket(net::PacketKind::kInterest, net::kBroadcastId,
                           msg.encode()));
}

void DiffusionRouting::originate(Bytes appPayload) {
  if (isGateway()) return;
  (void)appPayload;
  const std::uint64_t uid = registerGenerated();
  ++seq_;
  if (reinforcedNext_)
    sendReinforced(uid);
  else
    sendExploratory(uid);
}

void DiffusionRouting::sendExploratory(std::uint64_t uid) {
  if (gradients_.empty()) return;  // no interest heard — nobody is asking
  DataMsg msg;
  msg.source = static_cast<std::uint16_t>(self());
  msg.gateway = static_cast<std::uint16_t>(knowledge().gatewayIds.front());
  msg.place = kExploratory;
  msg.dataSeq = seq_;
  msg.reading = Bytes(knowledge().readingBytes, 0xdd);
  net::Packet pkt =
      makePacket(net::PacketKind::kData, net::kBroadcastId, msg.encode());
  pkt.uid = uid;
  seenExploratory_.insert(uid);
  sendBroadcast(std::move(pkt));
}

void DiffusionRouting::sendReinforced(std::uint64_t uid) {
  DataMsg msg;
  msg.source = static_cast<std::uint16_t>(self());
  msg.gateway = static_cast<std::uint16_t>(knowledge().gatewayIds.front());
  msg.place = kReinforced;
  msg.dataSeq = seq_;
  msg.reading = Bytes(knowledge().readingBytes, 0xdd);
  net::Packet pkt =
      makePacket(net::PacketKind::kData, *reinforcedNext_, msg.encode());
  pkt.uid = uid;
  sendUnicast(*reinforcedNext_, std::move(pkt));
}

void DiffusionRouting::onReceive(const net::Packet& packet, net::NodeId from) {
  switch (packet.kind) {
    case net::PacketKind::kInterest: {
      if (isSink()) return;
      const CostBeaconMsg msg = CostBeaconMsg::decode(packet.payload);
      if (msg.epoch > epoch_) {
        epoch_ = msg.epoch;
        gradients_.clear();
        bestGradientHops_ = 0xffff;
      } else if (msg.epoch < epoch_) {
        return;  // stale interest
      }
      // Every neighbour the interest arrives from is a gradient.
      const std::uint16_t cost = static_cast<std::uint16_t>(msg.cost + 1);
      gradients_[from] = cost;
      if (cost < bestGradientHops_) {
        bestGradientHops_ = cost;
        CostBeaconMsg rebroadcast = msg;
        rebroadcast.cost = cost;
        sendBroadcastJittered(makePacket(net::PacketKind::kInterest,
                                         net::kBroadcastId,
                                         rebroadcast.encode()));
      }
      return;
    }
    case net::PacketKind::kData: {
      const DataMsg msg = DataMsg::decode(packet.payload);
      if (msg.place == kExploratory) {
        if (!seenExploratory_.insert(packet.uid).second) return;
        // Remember the reverse path for the reinforcement walk.
        exploratoryFrom_.emplace(msg.source, from);
        if (isSink()) {
          reportDelivered(packet.uid, msg.source, packet.hops + 1u);
          // Reinforce the first-arriving (lowest-latency) path once.
          if (reinforcedOrigins_.insert(msg.source).second) {
            ReinforceMsg reinforce;
            reinforce.origin = msg.source;
            sendUnicast(from, makePacket(net::PacketKind::kReinforce, from,
                                         reinforce.encode()));
          }
          return;
        }
        if (isGateway()) return;  // other gateways stay out of this paradigm
        if (packet.hops + 1u >= params_.maxHops) return;
        if (gradients_.empty()) return;  // no path toward the sink
        net::Packet copy = packet;
        copy.hops = static_cast<std::uint8_t>(packet.hops + 1);
        sendBroadcastJittered(std::move(copy));
        return;
      }
      if (msg.place == kReinforced) {
        if (isSink()) {
          reportDelivered(packet.uid, msg.source, packet.hops + 1u);
          return;
        }
        if (isGateway()) return;
        net::Packet copy = packet;
        copy.hops = static_cast<std::uint8_t>(packet.hops + 1);
        if (reinforcedNext_) {
          sendUnicast(*reinforcedNext_, std::move(copy));
        } else if (!gradients_.empty()) {
          // Reinforcement lapsed here — degrade to exploratory flooding.
          DataMsg downgraded = msg;
          downgraded.place = kExploratory;
          copy.payload = downgraded.encode();
          copy.hopDst = net::kBroadcastId;
          seenExploratory_.insert(copy.uid);
          sendBroadcast(std::move(copy));
        }
        return;
      }
      return;
    }
    case net::PacketKind::kReinforce: {
      if (isGateway()) return;
      const auto reinforce = ReinforceMsg::decode(packet.payload);
      // Data flows back toward whoever reinforced us.
      reinforcedNext_ = from;
      if (reinforce.origin == self()) return;  // the walk reached the source
      const auto upstream = exploratoryFrom_.find(reinforce.origin);
      if (upstream == exploratoryFrom_.end()) return;  // path evaporated
      sendUnicast(upstream->second,
                  makePacket(net::PacketKind::kReinforce, upstream->second,
                             reinforce.encode()));
      return;
    }
    default:
      return;
  }
}

}  // namespace wmsn::routing
