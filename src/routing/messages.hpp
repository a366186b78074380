#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "crypto/hmac.hpp"
#include "net/packet.hpp"
#include "util/bytes.hpp"

namespace wmsn::routing {

/// Wire formats for every protocol payload. Each message lists its fields
/// once, in wire order, in a static `fields()` table of member pointers.
/// WireMessage derives encode() and decode() from that table, and SecMLR's
/// MAC input is derived from it too (messages.cpp). A field's member type
/// picks its wire form:
///
///   std::uint8_t/16/32/64   little-endian, 1/2/4/8 bytes
///   Bytes                   u16 length, then the bytes (at most 0xffff)
///   Path                    u8 hop count, then u16 hops (at most 255)
///   crypto::PacketMac, Key  raw 8 and 16 bytes
///   std::vector<Entry>      u16 count (at most 0xffff), then each entry by
///                           its own table (AggregateMsg)
///
/// Node ids travel as 16-bit short addresses (802.15.4-style), so paths cost
/// 2 bytes per hop on air; an id's width is its member type in these tables.

inline constexpr std::uint16_t kNoPlace = 0xffff;
inline constexpr std::uint16_t kAllGateways = 0xffff;

/// Path as carried in RREQ/RRES frames (§5.2, Fig. 4b).
using Path = std::vector<std::uint16_t>;

/// True if the path has no duplicate nodes (loops are a spoofing symptom).
bool pathIsSimple(const Path& path);

/// Marks a table field that is rewritten at every hop: it travels on air
/// but stays outside SecMLR's MAC input (§6.2.4).
template <typename Member>
struct PerHop {
  Member member;
};

/// encode() and decode() for a message with a `fields()` table.
template <typename Msg>
struct WireMessage {
  using Self = Msg;  ///< names the message in its own table

  /// The table's fields in order, in one buffer of exactly their size.
  Bytes encode() const;
  /// Reads the table's fields in order. Throws PreconditionError on
  /// truncated input — a hostile packet must never crash a node. Bytes past
  /// the last field are ignored.
  static Msg decode(std::span<const std::uint8_t> payload);
};

// --- SPR (§5.2) -----------------------------------------------------------

/// Routing query, flooded with "m destinations" (all gateways) or one.
struct RreqMsg : WireMessage<RreqMsg> {
  std::uint32_t reqId = 0;          ///< source-scoped request id
  std::uint16_t targetGateway = kAllGateways;
  Path path;                        ///< accumulated path, source first

  static constexpr auto fields() {
    return std::tuple{&Self::reqId, &Self::targetGateway, &Self::path};
  }
};

/// Routing response, unicast hop-by-hop back along the reversed path.
struct RresMsg : WireMessage<RresMsg> {
  std::uint32_t reqId = 0;
  std::uint16_t gateway = 0;
  std::uint16_t place = kNoPlace;   ///< feasible place (MLR bookkeeping)
  Path path;                        ///< source → gateway
  std::uint16_t cursor = 0;         ///< next index into path on the way back

  static constexpr auto fields() {
    return std::tuple{&Self::reqId, &Self::gateway, &Self::place, &Self::path,
                      &Self::cursor};
  }
};

/// Application data. `route` carries the source route on a path's first
/// packet (§5.2 step 5.1); follow-up packets use installed tables and leave
/// it empty.
struct DataMsg : WireMessage<DataMsg> {
  std::uint16_t source = 0;
  std::uint16_t gateway = 0;
  std::uint16_t place = kNoPlace;
  std::uint32_t dataSeq = 0;
  Path route;
  std::uint16_t cursor = 0;         ///< next index into route
  Bytes reading;                    ///< the sensed value(s)

  static constexpr auto fields() {
    return std::tuple{&Self::source, &Self::gateway, &Self::place,
                      &Self::dataSeq, &Self::route, &Self::cursor,
                      &Self::reading};
  }
};

// --- MLR (§5.3) -----------------------------------------------------------

/// Gateway place notification, flooded at round starts. The hop counter is
/// incremented per rebroadcast, turning the notification flood into a BFS
/// cost field: every node learns its min-hop distance and next hop toward
/// the place ("update routing table by adding entries").
struct GatewayMoveMsg : WireMessage<GatewayMoveMsg> {
  std::uint16_t gateway = 0;
  std::uint16_t newPlace = 0;
  std::uint16_t prevPlace = kNoPlace;
  std::uint32_t round = 0;
  std::uint16_t hopCount = 0;

  static constexpr auto fields() {
    return std::tuple{&Self::gateway, &Self::newPlace, &Self::prevPlace,
                      &Self::round, &Self::hopCount};
  }
};

/// Congestion notification (§4.3): an overloaded gateway asks the network
/// to "automatically dispatch parts of traffic to other gateways with low
/// load". Flooded like a move notification; sensors penalise the gateway
/// for the advertised round.
struct LoadAdvisoryMsg : WireMessage<LoadAdvisoryMsg> {
  std::uint16_t gateway = 0;
  std::uint16_t place = 0;
  std::uint32_t round = 0;
  std::uint16_t loadPermille = 0;  ///< load relative to the overload threshold
  std::uint16_t hopCount = 0;

  static constexpr auto fields() {
    return std::tuple{&Self::gateway, &Self::place, &Self::round,
                      &Self::loadPermille, &Self::hopCount};
  }
};

/// Downstream traffic (§5.1: "two kinds of data transmissions: from sensor
/// nodes to gateways and on the contrary"). Commands travel as a scoped
/// flood (standard WSN practice for sink→node dissemination); the target
/// consumes, everyone else relays once.
struct CommandMsg : WireMessage<CommandMsg> {
  std::uint16_t gateway = 0;   ///< issuing gateway
  std::uint16_t target = 0;    ///< destination sensor
  std::uint32_t commandSeq = 0;
  Bytes body;

  static constexpr auto fields() {
    return std::tuple{&Self::gateway, &Self::target, &Self::commandSeq,
                      &Self::body};
  }
};

// --- single-sink baseline (MCFA-style) -------------------------------------

struct CostBeaconMsg : WireMessage<CostBeaconMsg> {
  std::uint16_t sink = 0;
  std::uint16_t cost = 0;
  std::uint32_t epoch = 0;

  static constexpr auto fields() {
    return std::tuple{&Self::sink, &Self::cost, &Self::epoch};
  }
};

// --- LEACH baseline ---------------------------------------------------------

struct ChAdvertMsg : WireMessage<ChAdvertMsg> {
  std::uint32_t round = 0;

  static constexpr auto fields() { return std::tuple{&Self::round}; }
};

struct ChJoinMsg : WireMessage<ChJoinMsg> {
  std::uint32_t round = 0;

  static constexpr auto fields() { return std::tuple{&Self::round}; }
};

/// Cluster-head → sink aggregate. Aggregation compresses readings to a
/// 6-byte digest each (uid for delivery accounting + origin), modelling
/// LEACH's in-cluster data fusion.
struct AggregateMsg : WireMessage<AggregateMsg> {
  struct Entry {
    std::uint64_t uid = 0;   // uid is simulator bookkeeping; on air we count
    std::uint16_t origin = 0;// 6 bytes/entry (4-byte digest + 2-byte origin)
    std::uint8_t hops = 1;

    static constexpr auto fields() {
      return std::tuple{&Entry::uid, &Entry::origin, &Entry::hops};
    }
  };
  std::vector<Entry> entries;

  static constexpr auto fields() { return std::tuple{&Self::entries}; }
};

// --- flat baselines (SPIN, directed diffusion) ------------------------------

/// SPIN's ADV and REQ: the data descriptor (the reading's uid) and the hops
/// the data has travelled.
struct SpinDescriptorMsg : WireMessage<SpinDescriptorMsg> {
  std::uint64_t uid = 0;
  std::uint8_t hops = 0;

  static constexpr auto fields() { return std::tuple{&Self::uid, &Self::hops}; }
};

/// Directed diffusion's positive reinforcement, walked from the sink back
/// toward the exploratory data's origin.
struct ReinforceMsg : WireMessage<ReinforceMsg> {
  std::uint16_t origin = 0;

  static constexpr auto fields() { return std::tuple{&Self::origin}; }
};

// --- SecMLR (§6.2) ----------------------------------------------------------

/// Encrypted routing query: {req}_{Kij,C}, path, MAC(Kij, C | {req}).
/// One copy per gateway target is MAC'd separately (each gateway shares a
/// different key with the source), matching "floods a query packet with m
/// destinations".
struct SecRreqMsg : WireMessage<SecRreqMsg> {
  std::uint16_t source = 0;
  std::uint16_t gateway = 0;        ///< which K_ij authenticates this copy
  std::uint32_t reqId = 0;
  std::uint64_t counter = 0;        ///< freshness counter C
  Bytes encReq;                     ///< {req}_{Kij,C}
  Path path;                        ///< mutable — appended per hop
  crypto::PacketMac mac{};          ///< over the immutable fields

  static constexpr auto fields() {
    return std::tuple{&Self::source, &Self::gateway, &Self::reqId,
                      &Self::counter, &Self::encReq, PerHop{&Self::path},
                      &Self::mac};
  }

  /// The bytes covered by the MAC: the packet kind, then every field but
  /// the MAC and the per-hop path.
  Bytes macInput() const;

  /// The query's identity: the table's first three fields.
  struct Id {
    std::uint16_t source = 0;
    std::uint16_t gateway = 0;
    std::uint32_t reqId = 0;
  };
  /// Reads the Id without decoding the rest of the payload; nullopt when
  /// the payload is too short to hold it.
  static std::optional<Id> peekId(const Bytes& payload);
};

/// Encrypted routing response: {res}_{Kij,C}, path_ij, MAC. The chosen
/// path is gateway-asserted, so unlike the query's it is MAC'd.
struct SecRresMsg : WireMessage<SecRresMsg> {
  std::uint16_t source = 0;
  std::uint16_t gateway = 0;
  std::uint16_t place = kNoPlace;
  std::uint32_t reqId = 0;
  std::uint64_t counter = 0;
  Bytes encRes;
  Path path;                        ///< the gateway-chosen shortest path
  std::uint16_t cursor = 0;         ///< position on the way back (mutable)
  crypto::PacketMac mac{};

  static constexpr auto fields() {
    return std::tuple{&Self::source, &Self::gateway, &Self::place, &Self::reqId,
                      &Self::counter, &Self::encRes, &Self::path,
                      PerHop{&Self::cursor}, &Self::mac};
  }

  Bytes macInput() const;
};

/// Encrypted data with the RI routing information (Fig. 6): source,
/// destination, immediate sender, immediate receiver. IS/IR are rewritten
/// at every hop (§6.2.4) and are therefore outside the MAC.
struct SecDataMsg : WireMessage<SecDataMsg> {
  std::uint16_t source = 0;
  std::uint16_t gateway = 0;
  std::uint16_t immediateSender = 0;
  std::uint16_t immediateReceiver = 0;
  std::uint32_t dataSeq = 0;
  std::uint64_t counter = 0;
  Bytes encData;                    ///< {data}_{Kij,C}
  crypto::PacketMac mac{};

  static constexpr auto fields() {
    return std::tuple{&Self::source, &Self::gateway,
                      PerHop{&Self::immediateSender},
                      PerHop{&Self::immediateReceiver}, &Self::dataSeq,
                      &Self::counter, &Self::encData, &Self::mac};
  }

  Bytes macInput() const;
};

/// TESLA-authenticated gateway move notification (§6.2.3) and the
/// corresponding delayed key disclosure.
struct SecMoveMsg : WireMessage<SecMoveMsg> {
  std::uint16_t gateway = 0;
  Bytes teslaPayload;               ///< serialised GatewayMoveMsg
  std::uint32_t interval = 0;
  crypto::PacketMac mac{};
  std::uint16_t hopCount = 0;       ///< mutable flood metadata

  static constexpr auto fields() {
    return std::tuple{&Self::gateway, &Self::teslaPayload, &Self::interval,
                      &Self::mac, &Self::hopCount};
  }
};

struct KeyDiscloseMsg : WireMessage<KeyDiscloseMsg> {
  std::uint16_t gateway = 0;
  std::uint32_t interval = 0;
  crypto::Key key{};

  static constexpr auto fields() {
    return std::tuple{&Self::gateway, &Self::interval, &Self::key};
  }
};

/// A secured CommandMsg's body: the command sealed under the target's pair
/// key with a gateway→sensor freshness counter.
struct SealedCommandMsg : WireMessage<SealedCommandMsg> {
  std::uint64_t counter = 0;
  Bytes enc;                        ///< {body}_{Kij,C}
  crypto::PacketMac mac{};          ///< MAC(Kij, C | enc)

  static constexpr auto fields() {
    return std::tuple{&Self::counter, &Self::enc, &Self::mac};
  }
};

// --- link-layer acknowledgement (reliable forwarding option) ---------------

struct AckMsg : WireMessage<AckMsg> {
  std::uint64_t uid = 0;            ///< uid of the acknowledged data frame

  static constexpr auto fields() { return std::tuple{&Self::uid}; }
};

}  // namespace wmsn::routing
