#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "routing/messages.hpp"
#include "routing/protocol.hpp"
#include "util/flat_map.hpp"

namespace wmsn::routing {

struct MlrParams {
  /// Ablation (OVERHEAD experiment): clear tables at every round boundary,
  /// as a conventional table-driven protocol would, instead of accumulating
  /// entries "round by round" (§5.3).
  bool rebuildEveryRound = false;

  /// Hop-by-hop acknowledgements with retransmission; failed links
  /// invalidate table entries (enables self-healing and gives the ACK-spoof
  /// attack its target).
  bool reliableForwarding = false;

  std::uint32_t maxRetransmits = 2;
  sim::Time ackTimeout = sim::Time::seconds(0.1);

  /// Our extension (off by default, benched as an ablation): weight route
  /// choice by hops + energyPenalty/remaining-energy of the next hop.
  bool energyAwareSelection = false;

  /// §4.3 load balance / congestion control: a gateway that received more
  /// than this many data packets in a round floods a load advisory at the
  /// next round boundary; sensors penalise it for one round. 0 disables.
  std::uint32_t loadAdvisoryThreshold = 0;
  /// Hop-equivalent penalty applied to a fully-overloaded (1000‰) gateway.
  double loadPenaltyHops = 3.0;

  /// Fault-resilience hardening (off by default — every knob below only
  /// takes effect when this is on, so legacy runs stay byte-identical).
  /// Turns the per-round announcement into a heartbeat (the experiment
  /// makes every gateway announce each round), ages silent gateways out of
  /// the tables, reroutes ACK-exhausted packets to the next-best gateway,
  /// backs ACK timeouts off exponentially, and parks unroutable readings in
  /// a bounded buffer until a gateway reappears.
  bool failover = false;
  /// Rounds of announcement silence before a gateway is presumed down.
  std::uint32_t staleAfterRounds = 1;
  /// Times one data packet may be rerouted to another gateway after ACK
  /// exhaustion before it is finally dropped.
  std::uint32_t maxReroutes = 2;
  /// Capacity of the park-until-routable origination buffer.
  std::size_t deferredCapacity = 32;
};

/// Which gateway occupies each feasible place (§5.3): one slot per place,
/// since |P| is fixed per scenario and every place on the wire is checked
/// against it. Iteration visits occupied places ascending and yields
/// (place, gateway) pairs — the order a std::map keyed by place gives.
class PlaceOccupancy {
 public:
  using value_type = std::pair<std::uint16_t, std::uint16_t>;

  class const_iterator {
   public:
    value_type operator*() const {
      return {static_cast<std::uint16_t>(place_),
              static_cast<std::uint16_t>((*slots_)[place_])};
    }
    const_iterator& operator++() {
      place_ = nextOccupied(*slots_, place_ + 1);
      return *this;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    friend class PlaceOccupancy;
    const_iterator(const std::vector<std::uint32_t>* slots, std::size_t place)
        : slots_(slots), place_(place) {}
    const std::vector<std::uint32_t>* slots_ = nullptr;
    std::size_t place_ = 0;
  };

  explicit PlaceOccupancy(std::size_t places) : slots_(places, kFree) {}

  const_iterator begin() const { return {&slots_, nextOccupied(slots_, 0)}; }
  const_iterator end() const { return {&slots_, slots_.size()}; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool contains(std::uint16_t place) const {
    return place < slots_.size() && slots_[place] != kFree;
  }
  std::uint16_t at(std::uint16_t place) const;
  void set(std::uint16_t place, std::uint16_t gateway);
  /// Frees `place`; a free or out-of-range place is left as it is.
  void erase(std::uint16_t place);
  void clear();

 private:
  static constexpr std::uint32_t kFree = 0xffffffffu;
  static std::size_t nextOccupied(const std::vector<std::uint32_t>& slots,
                                  std::size_t place) {
    while (place < slots.size() && slots[place] == kFree) ++place;
    return place;
  }

  std::vector<std::uint32_t> slots_;  ///< gateway by place, or kFree
  std::size_t count_ = 0;
};

/// MLR — Maximal network Lifetime Routing (§5.3). Gateways move among |P|
/// feasible places at round boundaries; each moved gateway floods a place
/// notification whose hop counter turns the flood into a BFS cost field.
/// Sensors accumulate one routing-table entry per feasible place —
/// entries are never rebuilt, because sensors are static so an old entry for
/// a place stays correct (Table 1's incremental rows). Data goes to the
/// occupied place with the fewest hops.
class MlrRouting : public RoutingProtocol {
 public:
  MlrRouting(net::SensorNetwork& network, net::NodeId self,
             const NetworkKnowledge& knowledge, MlrParams params = {});

  std::string name() const override { return "mlr"; }
  void onRoundStart(std::uint32_t round) override;
  void onTopologyChanged() override;
  void onReceive(const net::Packet& packet, net::NodeId from) override;
  void originate(Bytes appPayload) override;

  /// Gateway-side hook, called by the experiment runner after repositioning:
  /// floods the place notification ("moved gateways notify all sensor nodes
  /// in local network of their new places").
  virtual void announceMove(std::uint16_t newPlace, std::uint16_t prevPlace,
                            std::uint32_t round);

  /// Downstream traffic (§5.1): the gateway disseminates a command to one
  /// sensor via a scoped flood. Returns the command's sequence number.
  virtual std::uint32_t sendCommand(net::NodeId target, Bytes body);

  /// §4.4 sleep scheduling: a sleeping sensor cannot hear route floods, so
  /// it hands its readings to its (awake) GAF cell leader, which re-routes
  /// them with its own table. Set by the sleep scheduler each epoch;
  /// nullopt for awake nodes.
  void setUplinkDelegate(std::optional<net::NodeId> delegate) {
    delegate_ = delegate;
  }
  std::optional<net::NodeId> uplinkDelegate() const { return delegate_; }

  /// Application upcall for commands arriving at this sensor.
  using CommandHandler = std::function<void(const CommandMsg&)>;
  void setCommandHandler(CommandHandler handler) {
    commandHandler_ = std::move(handler);
  }
  std::uint64_t commandsReceived() const { return commandsReceived_; }

  // --- introspection (tests and the Table 1 reproduction) -----------------
  struct PlaceEntry {
    bool known = false;
    std::uint16_t hops = 0;
    net::NodeId nextHop = net::kNoNode;
  };
  const std::vector<PlaceEntry>& placeTable() const { return table_; }
  const PlaceOccupancy& occupancy() const { return occupiedBy_; }
  /// The place the node would route to right now (min hops over occupied
  /// places), if any.
  std::optional<std::uint16_t> selectedPlace() const;
  std::size_t knownEntryCount() const;

 protected:
  struct PendingAck {
    net::Packet packet;
    net::NodeId nextHop = net::kNoNode;
    std::uint16_t place = 0;
    std::uint32_t retries = 0;
    std::uint32_t reroutes = 0;  ///< failover: gateway switches so far
  };

  virtual void handleMove(const net::Packet& packet, net::NodeId from);
  virtual void handleData(const net::Packet& packet, net::NodeId from);
  void handleAck(const net::Packet& packet);
  void handleLoadAdvisory(const net::Packet& packet);
  virtual void handleCommand(const net::Packet& packet);
  /// Consumes a command addressed to this node (after any protocol-specific
  /// verification); bumps counters and invokes the app handler.
  void acceptCommand(const CommandMsg& msg);
  /// Emits the §4.3 advisory flood if last round's load crossed the
  /// threshold. Called from onRoundStart on gateways.
  void maybeAdviseLoad(std::uint32_t round);

  /// Applies an (already authenticated, for SecMLR) move notification to the
  /// local table and occupancy. If `reflood`, re-broadcasts when this node
  /// improves or first sees the notification (plain MLR's BFS flood);
  /// SecMLR floods before verification and passes false here.
  void applyMove(const GatewayMoveMsg& msg, net::NodeId from, bool reflood);

  void forwardData(net::Packet packet, const DataMsg& msg);
  void sendWithAck(net::Packet packet, net::NodeId nextHop,
                   std::uint16_t place);
  void transmitPending(std::uint64_t uid);
  void invalidateVia(net::NodeId nextHop);

  // --- failover hardening (params_.failover) ------------------------------
  /// Ages out gateways whose announcements fell silent; called from
  /// onRoundStart on sensors.
  void evictStaleGateways(std::uint32_t round);
  /// Hook fired once per evicted gateway — SecMLR tears down its sessions
  /// and 4-tuple forwarding entries here. Base implementation is a no-op
  /// (the table/occupancy cleanup already happened).
  virtual void onGatewayPresumedDown(std::uint16_t gateway);
  /// ACK exhaustion: retarget the packet at the current best place instead
  /// of dropping it (bounded by maxReroutes).
  void rerouteAfterAckLoss(PendingAck pending);
  /// Sends parked readings once a place becomes routable again.
  void flushDeferred();

  MlrParams params_;
  std::uint32_t round_ = 0;
  std::vector<PlaceEntry> table_;
  PlaceOccupancy occupiedBy_;                         ///< place → gateway
  FlatMap<std::uint16_t, std::uint16_t> placeOfGw_;   ///< gateway → place
  /// Best hop count already re-flooded per (gateway<<32|round) — the
  /// rebroadcast-on-improvement rule that makes the flood a proper BFS.
  /// Every round a gateway announces stays keyed, so a late re-flood of an
  /// older round still finds its own entry.
  FlatMap<std::uint64_t, std::uint16_t> advertised_;
  std::unordered_map<std::uint64_t, PendingAck> pendingAcks_;
  std::uint32_t seq_ = 0;
  std::uint16_t myPlace_ = kNoPlace;  ///< gateway side

  // §4.3 load balance.
  std::uint32_t dataReceivedThisRound_ = 0;         ///< gateway side
  /// Last round this gateway was stepped; a gap (crash + recovery under the
  /// active-set scheduler) invalidates dataReceivedThisRound_. The all-ones
  /// initial value makes round 0 read as "no gap" (wraps to 0).
  std::uint32_t lastGatewayRound_ = ~std::uint32_t{0};
  struct Advisory {
    std::uint32_t round = 0;
    std::uint16_t loadPermille = 0;
  };
  std::map<std::uint16_t, Advisory> advisories_;    ///< by gateway
  std::unordered_map<std::uint64_t, std::uint16_t> advisoryReflooded_;

  // §4.4 delegation.
  std::optional<net::NodeId> delegate_;

  // Failover: last round each gateway was heard announcing, and readings
  // parked while no gateway is routable (kept with their uid so delayed
  // delivery still counts in PDR).
  FlatMap<std::uint16_t, std::uint32_t> lastHeardRound_;
  struct Deferred {
    std::uint64_t uid = 0;
    std::uint32_t seq = 0;
    Bytes reading;
  };
  std::vector<Deferred> deferred_;

  // Downstream commands.
  CommandHandler commandHandler_;
  std::uint64_t commandsReceived_ = 0;
  std::uint32_t commandSeq_ = 0;                    ///< gateway side
  std::unordered_set<std::uint64_t> seenCommands_;  ///< (gw<<32)|seq
};

}  // namespace wmsn::routing
