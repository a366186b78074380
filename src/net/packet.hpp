#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/bytes.hpp"

namespace wmsn::net {

using NodeId = std::uint32_t;

/// Link-local broadcast address (all neighbours in radio range).
inline constexpr NodeId kBroadcastId = 0xffffffffu;
inline constexpr NodeId kNoNode = 0xfffffffeu;

/// Over-the-air frame types. The numeric values travel in the 1-byte `kind`
/// header field.
enum class PacketKind : std::uint8_t {
  kHello = 1,         ///< neighbour discovery beacon
  kRreq = 2,          ///< routing query (SPR §5.2 step 2, SecMLR §6.2.1)
  kRres = 3,          ///< routing response (SPR step 3, SecMLR §6.2.2)
  kData = 4,          ///< application data toward a gateway
  kCostBeacon = 5,    ///< MCFA-style cost-field beacon (single-sink baseline)
  kChAdvert = 6,      ///< LEACH cluster-head advertisement
  kChJoin = 7,        ///< LEACH join request
  kGatewayMove = 8,   ///< MLR/SecMLR gateway place notification (§5.3, §6.2.3)
  kKeyDisclose = 9,   ///< TESLA key disclosure broadcast
  kAck = 10,          ///< link-layer acknowledgement
  kLoadAdvisory = 11, ///< overloaded-gateway congestion notification (§4.3)
  kCommand = 12,      ///< downstream gateway→sensor traffic (§5.1)
  kAdv = 13,          ///< SPIN metadata advertisement (§2.2.1)
  kReq = 14,          ///< SPIN data request
  kInterest = 15,     ///< Directed Diffusion interest flood (§2.2.1)
  kReinforce = 16,    ///< Directed Diffusion positive reinforcement
};
/// Array slots indexed by PacketKind value: one past the last enumerator.
inline constexpr std::size_t kPacketKindSlots =
    static_cast<std::size_t>(PacketKind::kReinforce) + 1;

std::string toString(PacketKind kind);
/// Static-lifetime kind name — the allocation-free variant trace sinks use
/// on the per-frame hot path.
const char* kindName(PacketKind kind);

/// One over-the-air frame. Addressing fields mirror a compressed
/// 802.15.4-class header; `payload` carries the protocol-specific body in
/// serialised form so its length feeds the energy model and SecMLR can
/// encrypt/authenticate real bytes.
struct Packet {
  PacketKind kind = PacketKind::kData;
  NodeId origin = kNoNode;    ///< node that created the packet
  NodeId finalDst = kNoNode;  ///< ultimate destination (gateway) or broadcast
  NodeId hopSrc = kNoNode;    ///< link-layer sender of this hop
  NodeId hopDst = kNoNode;    ///< link-layer receiver, or kBroadcastId
  std::uint32_t seq = 0;      ///< origin-scoped sequence number
  std::uint8_t hops = 0;      ///< hops travelled so far (TTL-style field)
  std::uint64_t uid = 0;      ///< simulator-global id (assigned on first send)
  Bytes payload;
  /// Simulator bookkeeping that does NOT travel on the air (excluded from
  /// sizeBytes). Used by perfect-fusion protocols (PEGASIS): the fused
  /// packet has constant on-air size, but the experiment still needs to
  /// know which readings it represents for delivery accounting.
  Bytes meta;

  /// Compressed header: kind(1) + 4 short addresses(2 each) + seq(2) +
  /// length(2) + FCS(2) = 15 bytes. uid is simulator bookkeeping and is NOT
  /// counted as on-air bytes.
  static constexpr std::size_t kHeaderBytes = 15;

  std::size_t sizeBytes() const { return kHeaderBytes + payload.size(); }
  std::size_t sizeBits() const { return sizeBytes() * 8; }

  bool isControl() const { return kind != PacketKind::kData; }
};

}  // namespace wmsn::net
