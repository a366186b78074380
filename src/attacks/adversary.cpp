#include "attacks/adversary.hpp"

#include "attacks/attacks.hpp"
#include "attacks/wormhole.hpp"
#include "util/require.hpp"

namespace wmsn::attacks {

const char* toString(AttackKind kind) {
  switch (kind) {
    case AttackKind::kNone: return "none";
    case AttackKind::kReplay: return "replay";
    case AttackKind::kSpoofMove: return "spoofed-routing-info";
    case AttackKind::kSelectiveForward: return "selective-forwarding";
    case AttackKind::kSinkhole: return "sinkhole";
    case AttackKind::kHelloFlood: return "hello-flood";
    case AttackKind::kSybil: return "sybil";
    case AttackKind::kWormhole: return "wormhole";
    case AttackKind::kAckSpoof: return "ack-spoofing";
  }
  return "unknown";
}

namespace {

/// Attacks whose device model is a mains-powered laptop rather than a
/// captured mote (Karlof–Wagner's outsider-class adversary).
bool laptopClass(AttackKind kind) {
  return kind == AttackKind::kHelloFlood || kind == AttackKind::kWormhole ||
         kind == AttackKind::kReplay;
}

bool needsPromiscuous(AttackKind kind) {
  return kind == AttackKind::kReplay || kind == AttackKind::kWormhole ||
         kind == AttackKind::kAckSpoof;
}

template <class Base, class... BaseArgs>
std::unique_ptr<routing::RoutingProtocol> makeOne(
    const AttackPlan& plan, std::shared_ptr<WormholeTunnel> tunnel,
    BaseArgs&&... baseArgs) {
  switch (plan.kind) {
    case AttackKind::kReplay:
      return std::make_unique<ReplayAttacker<Base>>(
          plan.replayDelay, plan.replayCopies,
          std::forward<BaseArgs>(baseArgs)...);
    case AttackKind::kSpoofMove:
      return std::make_unique<MoveSpoofer<Base>>(
          std::forward<BaseArgs>(baseArgs)...);
    case AttackKind::kSelectiveForward:
      return std::make_unique<SelectiveForwarder<Base>>(
          plan.dropProbability, std::forward<BaseArgs>(baseArgs)...);
    case AttackKind::kSinkhole:
      return std::make_unique<SinkholeAttacker<Base>>(
          std::forward<BaseArgs>(baseArgs)...);
    case AttackKind::kHelloFlood:
      return std::make_unique<HelloFlooder<Base>>(
          std::forward<BaseArgs>(baseArgs)...);
    case AttackKind::kSybil:
      return std::make_unique<SybilAttacker<Base>>(
          plan.fakeIdentities, std::forward<BaseArgs>(baseArgs)...);
    case AttackKind::kWormhole:
      return std::make_unique<WormholeEndpoint<Base>>(
          std::move(tunnel), std::forward<BaseArgs>(baseArgs)...);
    case AttackKind::kAckSpoof:
      return std::make_unique<AckSpoofAttacker<Base>>(
          std::forward<BaseArgs>(baseArgs)...);
    case AttackKind::kNone:
      break;
  }
  throw PreconditionError("no attacker for AttackKind::kNone");
}

}  // namespace

void installAttack(routing::ProtocolStack& stack, net::SensorNetwork& network,
                   const AttackPlan& plan, VictimProtocol victim,
                   const routing::MlrParams& mlrParams) {
  if (plan.kind == AttackKind::kNone || plan.attackers.empty()) return;
  if (plan.kind == AttackKind::kWormhole)
    WMSN_REQUIRE_MSG(plan.attackers.size() == 2,
                     "a wormhole needs exactly two endpoints");

  std::shared_ptr<WormholeTunnel> tunnel;
  if (plan.kind == AttackKind::kWormhole)
    tunnel = std::make_shared<WormholeTunnel>(
        network, plan.attackers[0], plan.attackers[1], plan.tunnelDropsData);

  for (net::NodeId id : plan.attackers) {
    WMSN_REQUIRE_MSG(!network.node(id).isGateway(),
                     "gateways are trusted (§6.2); compromise sensors");

    std::unique_ptr<routing::RoutingProtocol> attacker;
    if (victim == VictimProtocol::kMlr) {
      attacker = makeOne<routing::MlrRouting>(
          plan, tunnel, network, id, stack.knowledge(), mlrParams);
    } else {
      auto keyring =
          dynamic_cast<routing::SecMlrRouting&>(stack.at(id)).keyring();
      attacker = makeOne<routing::SecMlrRouting>(
          plan, tunnel, network, id, stack.knowledge(), std::move(keyring),
          mlrParams);
    }
    stack.replace(id, std::move(attacker));

    if (needsPromiscuous(plan.kind))
      network.medium().setPromiscuous(id, true);
    if (laptopClass(plan.kind))
      network.node(id).battery() = net::Battery::infinite();
  }
}

AttackerStats collectAttackerStats(routing::ProtocolStack& stack,
                                   const AttackPlan& plan) {
  AttackerStats total;
  for (net::NodeId id : plan.attackers) {
    if (auto* introspect =
            dynamic_cast<const AttackerIntrospection*>(&stack.at(id)))
      total += introspect->attackerStats();
  }
  // Wormhole endpoints share one tunnel stats object — avoid double count.
  if (plan.kind == AttackKind::kWormhole && plan.attackers.size() == 2) {
    total = AttackerStats{};
    if (auto* introspect =
            dynamic_cast<const AttackerIntrospection*>(&stack.at(
                plan.attackers[0])))
      total = introspect->attackerStats();
  }
  return total;
}

}  // namespace wmsn::attacks
