#pragma once

#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace wmsn::crypto {

/// A symmetric key as distributed to sensor nodes (SecMLR pre-distributes one
/// K_ij per (sensor, gateway) pair, §6.2).
using Key = std::array<std::uint8_t, 16>;

/// RFC 2104 HMAC over SHA-256.
class HmacSha256 {
 public:
  static constexpr std::size_t kDigestSize = Sha256::kDigestSize;
  using Digest = Sha256::Digest;

  /// A key with its pads absorbed: the SHA-256 states after the ipad and
  /// the opad block. A short message then costs two compressions instead of
  /// four, so a key MAC'd many times is worth keeping in this form.
  class Keyed {
   public:
    explicit Keyed(std::span<const std::uint8_t> key);
    explicit Keyed(const Key& key)
        : Keyed(std::span<const std::uint8_t>(key.data(), key.size())) {}

    /// HMAC(key, prefix || message), streamed without joining the two.
    Digest mac(std::span<const std::uint8_t> prefix,
               std::span<const std::uint8_t> message) const;
    Digest mac(std::span<const std::uint8_t> message) const {
      return mac({}, message);
    }

   private:
    Sha256 inner_;
    Sha256 outer_;
  };

  static Digest mac(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> message) {
    return Keyed(key).mac(message);
  }
  static Digest mac(const Key& key, std::span<const std::uint8_t> message) {
    return Keyed(key).mac(message);
  }
};

/// Sensor-network packets carry truncated MACs (SPINS uses 8 bytes) — full
/// 32-byte tags would dominate the radio energy budget of tiny packets.
inline constexpr std::size_t kPacketMacSize = 8;
using PacketMac = std::array<std::uint8_t, kPacketMacSize>;

/// Computes the truncated packet MAC over `message`, binding the freshness
/// counter `counter` into the MAC'd data as SecMLR specifies:
/// MAC(K, C | message).
PacketMac packetMac(const HmacSha256::Keyed& key, std::uint64_t counter,
                    std::span<const std::uint8_t> message);
inline PacketMac packetMac(const Key& key, std::uint64_t counter,
                           std::span<const std::uint8_t> message) {
  return packetMac(HmacSha256::Keyed(key), counter, message);
}

/// Constant-time verification of a truncated packet MAC.
bool verifyPacketMac(const HmacSha256::Keyed& key, std::uint64_t counter,
                     std::span<const std::uint8_t> message,
                     const PacketMac& tag);
inline bool verifyPacketMac(const Key& key, std::uint64_t counter,
                            std::span<const std::uint8_t> message,
                            const PacketMac& tag) {
  return verifyPacketMac(HmacSha256::Keyed(key), counter, message, tag);
}

}  // namespace wmsn::crypto
