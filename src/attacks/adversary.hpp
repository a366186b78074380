#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "routing/mlr.hpp"
#include "routing/secmlr.hpp"

namespace wmsn::attacks {

/// The Karlof–Wagner attack catalogue the paper cites (§2.3, §6):
/// "spoofed, altered, or replayed routing information, selective forwarding,
/// sinkhole, sybil, wormholes, hello flood attacks, acknowledgment spoofing".
enum class AttackKind : std::uint8_t {
  kNone,
  kReplay,            ///< re-inject captured data/control frames
  kSpoofMove,         ///< forge gateway place notifications
  kSelectiveForward,  ///< grey hole: route honestly, drop data w.p. p
  kSinkhole,          ///< advertise hop-count 0, attract and drop traffic
  kHelloFlood,        ///< laptop-class long-range bogus advertisements
  kSybil,             ///< fabricate multiple fake gateway identities
  kWormhole,          ///< out-of-band tunnel between two endpoints
  kAckSpoof,          ///< forge link-layer ACKs for a dead next hop
};

const char* toString(AttackKind kind);

/// Which honest protocol the compromised nodes masquerade as.
enum class VictimProtocol : std::uint8_t { kMlr, kSecMlr };

struct AttackPlan {
  AttackKind kind = AttackKind::kNone;
  std::vector<net::NodeId> attackers;
  double dropProbability = 1.0;      ///< selective forwarding / sinkhole
  std::uint32_t fakeIdentities = 3;  ///< sybil
  sim::Time replayDelay = sim::Time::seconds(1.0);
  std::size_t replayCopies = 4;
  /// Wormhole: attackers[0] and attackers[1] are the endpoints.
  bool tunnelDropsData = true;
};

/// Counters every attacker exposes so benches can report attacker activity
/// alongside victim-side damage.
struct AttackerStats {
  std::uint64_t framesDropped = 0;
  std::uint64_t framesForged = 0;
  std::uint64_t framesReplayed = 0;
  std::uint64_t framesTunnelled = 0;

  AttackerStats& operator+=(const AttackerStats& other) {
    framesDropped += other.framesDropped;
    framesForged += other.framesForged;
    framesReplayed += other.framesReplayed;
    framesTunnelled += other.framesTunnelled;
    return *this;
  }
};

class AttackerIntrospection {
 public:
  virtual ~AttackerIntrospection() = default;
  virtual AttackerStats attackerStats() const = 0;
};

/// Replaces the protocol instances of `plan.attackers` in `stack` with
/// compromised stacks implementing `plan.kind` against `victim`-protocol
/// networks. Attacker radios are switched to promiscuous mode and — for the
/// laptop-class attacks (hello flood, wormhole, replay) — their batteries are
/// upgraded to mains power, per the standard outsider-device threat model.
///
/// `mlrParams` must match the honest nodes' configuration so the insiders
/// blend in. A SecMLR insider keeps the captured node's keyring: capture
/// hands the attacker every key the node was flashed with. It shares the
/// scenario's flood ledger too, starting with none of the node's marks.
void installAttack(routing::ProtocolStack& stack, net::SensorNetwork& network,
                   const AttackPlan& plan, VictimProtocol victim,
                   const routing::MlrParams& mlrParams);

/// Sums attacker counters over the installed attackers.
AttackerStats collectAttackerStats(routing::ProtocolStack& stack,
                                   const AttackPlan& plan);

}  // namespace wmsn::attacks
