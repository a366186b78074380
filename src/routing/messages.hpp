#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/hmac.hpp"
#include "net/packet.hpp"
#include "util/bytes.hpp"

namespace wmsn::routing {

/// Wire formats for every protocol payload. Every message has encode() →
/// Bytes and a static decode(Bytes) that throws PreconditionError on
/// malformed input — a hostile packet must never crash a node.
///
/// Node ids travel as 16-bit short addresses (802.15.4-style), so paths cost
/// 2 bytes per hop on air.

inline constexpr std::uint16_t kNoPlace = 0xffff;
inline constexpr std::uint16_t kAllGateways = 0xffff;

/// Path as carried in RREQ/RRES frames (§5.2, Fig. 4b).
using Path = std::vector<std::uint16_t>;

void encodePath(ByteWriter& w, const Path& path);
Path decodePath(ByteReader& r);

/// True if the path has no duplicate nodes (loops are a spoofing symptom).
bool pathIsSimple(const Path& path);

// --- SPR (§5.2) -----------------------------------------------------------

/// Routing query, flooded with "m destinations" (all gateways) or one.
struct RreqMsg {
  std::uint32_t reqId = 0;          ///< source-scoped request id
  std::uint16_t targetGateway = kAllGateways;
  Path path;                        ///< accumulated path, source first

  Bytes encode() const;
  static RreqMsg decode(const Bytes& payload);
};

/// Routing response, unicast hop-by-hop back along the reversed path.
struct RresMsg {
  std::uint32_t reqId = 0;
  std::uint16_t gateway = 0;
  std::uint16_t place = kNoPlace;   ///< feasible place (MLR bookkeeping)
  Path path;                        ///< source → gateway
  std::uint16_t cursor = 0;         ///< next index into path on the way back

  Bytes encode() const;
  static RresMsg decode(const Bytes& payload);
};

/// Application data. `route` carries the source route on a path's first
/// packet (§5.2 step 5.1); follow-up packets use installed tables and leave
/// it empty.
struct DataMsg {
  std::uint16_t source = 0;
  std::uint16_t gateway = 0;
  std::uint16_t place = kNoPlace;
  std::uint32_t dataSeq = 0;
  Path route;
  std::uint16_t cursor = 0;         ///< next index into route
  Bytes reading;                    ///< the sensed value(s)

  Bytes encode() const;
  static DataMsg decode(const Bytes& payload);
};

// --- MLR (§5.3) -----------------------------------------------------------

/// Gateway place notification, flooded at round starts. The hop counter is
/// incremented per rebroadcast, turning the notification flood into a BFS
/// cost field: every node learns its min-hop distance and next hop toward
/// the place ("update routing table by adding entries").
struct GatewayMoveMsg {
  std::uint16_t gateway = 0;
  std::uint16_t newPlace = 0;
  std::uint16_t prevPlace = kNoPlace;
  std::uint32_t round = 0;
  std::uint16_t hopCount = 0;

  Bytes encode() const;
  static GatewayMoveMsg decode(const Bytes& payload);
};

/// Congestion notification (§4.3): an overloaded gateway asks the network
/// to "automatically dispatch parts of traffic to other gateways with low
/// load". Flooded like a move notification; sensors penalise the gateway
/// for the advertised round.
struct LoadAdvisoryMsg {
  std::uint16_t gateway = 0;
  std::uint16_t place = 0;
  std::uint32_t round = 0;
  std::uint16_t loadPermille = 0;  ///< load relative to the overload threshold
  std::uint16_t hopCount = 0;

  Bytes encode() const;
  static LoadAdvisoryMsg decode(const Bytes& payload);
};

/// Downstream traffic (§5.1: "two kinds of data transmissions: from sensor
/// nodes to gateways and on the contrary"). Commands travel as a scoped
/// flood (standard WSN practice for sink→node dissemination); the target
/// consumes, everyone else relays once.
struct CommandMsg {
  std::uint16_t gateway = 0;   ///< issuing gateway
  std::uint16_t target = 0;    ///< destination sensor
  std::uint32_t commandSeq = 0;
  Bytes body;

  Bytes encode() const;
  static CommandMsg decode(const Bytes& payload);
};

// --- single-sink baseline (MCFA-style) -------------------------------------

struct CostBeaconMsg {
  std::uint16_t sink = 0;
  std::uint16_t cost = 0;
  std::uint32_t epoch = 0;

  Bytes encode() const;
  static CostBeaconMsg decode(const Bytes& payload);
};

// --- LEACH baseline ---------------------------------------------------------

struct ChAdvertMsg {
  std::uint32_t round = 0;

  Bytes encode() const;
  static ChAdvertMsg decode(const Bytes& payload);
};

struct ChJoinMsg {
  std::uint32_t round = 0;

  Bytes encode() const;
  static ChJoinMsg decode(const Bytes& payload);
};

/// Cluster-head → sink aggregate. Aggregation compresses readings to a
/// 6-byte digest each (uid for delivery accounting + origin), modelling
/// LEACH's in-cluster data fusion.
struct AggregateMsg {
  struct Entry {
    std::uint64_t uid = 0;   // uid is simulator bookkeeping; on air we count
    std::uint16_t origin = 0;// 6 bytes/entry (4-byte digest + 2-byte origin)
    std::uint8_t hops = 1;
  };
  std::vector<Entry> entries;

  Bytes encode() const;
  static AggregateMsg decode(const Bytes& payload);
};

// --- SecMLR (§6.2) ----------------------------------------------------------

/// Encrypted routing query: {req}_{Kij,C}, path, MAC(Kij, C | {req}).
/// One copy per gateway target is MAC'd separately (each gateway shares a
/// different key with the source), matching "floods a query packet with m
/// destinations".
struct SecRreqMsg {
  std::uint16_t source = 0;
  std::uint16_t gateway = 0;        ///< which K_ij authenticates this copy
  std::uint32_t reqId = 0;
  std::uint64_t counter = 0;        ///< freshness counter C
  Bytes encReq;                     ///< {req}_{Kij,C}
  Path path;                        ///< mutable — appended per hop
  crypto::PacketMac mac{};          ///< over the immutable fields

  Bytes encode() const;
  static SecRreqMsg decode(const Bytes& payload);
  /// The bytes covered by the MAC (everything except the mutable path).
  Bytes macInput() const;

  /// The query's identity, the first fields on the wire.
  struct Id {
    std::uint16_t source = 0;
    std::uint16_t gateway = 0;
    std::uint32_t reqId = 0;
  };
  /// Reads the Id without decoding the rest of the payload; nullopt when
  /// the payload is too short to hold it.
  static std::optional<Id> peekId(const Bytes& payload);
};

/// Encrypted routing response: {res}_{Kij,C}, path_ij, MAC.
struct SecRresMsg {
  std::uint16_t source = 0;
  std::uint16_t gateway = 0;
  std::uint16_t place = kNoPlace;
  std::uint32_t reqId = 0;
  std::uint64_t counter = 0;
  Bytes encRes;
  Path path;                        ///< the gateway-chosen shortest path
  std::uint16_t cursor = 0;         ///< position on the way back (mutable)
  crypto::PacketMac mac{};

  Bytes encode() const;
  static SecRresMsg decode(const Bytes& payload);
  Bytes macInput() const;
};

/// Encrypted data with the RI routing information (Fig. 6): source,
/// destination, immediate sender, immediate receiver. IS/IR are rewritten
/// at every hop (§6.2.4) and are therefore outside the MAC.
struct SecDataMsg {
  std::uint16_t source = 0;
  std::uint16_t gateway = 0;
  std::uint16_t immediateSender = 0;
  std::uint16_t immediateReceiver = 0;
  std::uint32_t dataSeq = 0;
  std::uint64_t counter = 0;
  Bytes encData;                    ///< {data}_{Kij,C}
  crypto::PacketMac mac{};

  Bytes encode() const;
  static SecDataMsg decode(const Bytes& payload);
  Bytes macInput() const;
};

/// TESLA-authenticated gateway move notification (§6.2.3) and the
/// corresponding delayed key disclosure.
struct SecMoveMsg {
  std::uint16_t gateway = 0;
  Bytes teslaPayload;               ///< serialised GatewayMoveMsg
  std::uint32_t interval = 0;
  crypto::PacketMac mac{};
  std::uint16_t hopCount = 0;       ///< mutable flood metadata

  Bytes encode() const;
  static SecMoveMsg decode(const Bytes& payload);
};

struct KeyDiscloseMsg {
  std::uint16_t gateway = 0;
  std::uint32_t interval = 0;
  crypto::Key key{};

  Bytes encode() const;
  static KeyDiscloseMsg decode(const Bytes& payload);
};

// --- link-layer acknowledgement (reliable forwarding option) ---------------

struct AckMsg {
  std::uint64_t uid = 0;            ///< uid of the acknowledged data frame

  Bytes encode() const;
  static AckMsg decode(const Bytes& payload);
};

}  // namespace wmsn::routing
