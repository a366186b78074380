#include "crypto/hmac.hpp"

#include <algorithm>
#include <cstring>

#include "obs/profiler.hpp"

namespace wmsn::crypto {

HmacSha256::Keyed::Keyed(std::span<const std::uint8_t> key) {
  WMSN_PROFILE_PHASE(kCrypto);
  constexpr std::size_t kBlockSize = 64;
  std::array<std::uint8_t, kBlockSize> keyBlock{};

  if (key.size() > kBlockSize) {
    const auto digest = Sha256::hash(key);
    std::memcpy(keyBlock.data(), digest.data(), digest.size());
  } else {
    std::memcpy(keyBlock.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, kBlockSize> ipad{};
  std::array<std::uint8_t, kBlockSize> opad{};
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = keyBlock[i] ^ 0x36;
    opad[i] = keyBlock[i] ^ 0x5c;
  }
  inner_.update(ipad);
  outer_.update(opad);
}

HmacSha256::Digest HmacSha256::Keyed::mac(
    std::span<const std::uint8_t> prefix,
    std::span<const std::uint8_t> message) const {
  WMSN_PROFILE_PHASE(kCrypto);
  Sha256 inner = inner_;
  inner.update(prefix);
  inner.update(message);
  const auto innerDigest = inner.finish();

  Sha256 outer = outer_;
  outer.update(innerDigest);
  return outer.finish();
}

PacketMac packetMac(const HmacSha256::Keyed& key, std::uint64_t counter,
                    std::span<const std::uint8_t> message) {
  // C in ByteWriter::u64's little-endian layout.
  std::array<std::uint8_t, 8> c{};
  for (std::size_t i = 0; i < c.size(); ++i)
    c[i] = static_cast<std::uint8_t>(counter >> (8 * i));
  const auto full = key.mac(c, message);
  PacketMac tag;
  std::copy_n(full.begin(), tag.size(), tag.begin());
  return tag;
}

bool verifyPacketMac(const HmacSha256::Keyed& key, std::uint64_t counter,
                     std::span<const std::uint8_t> message,
                     const PacketMac& tag) {
  const PacketMac expected = packetMac(key, counter, message);
  return constantTimeEqual(
      std::span<const std::uint8_t>(expected.data(), expected.size()),
      std::span<const std::uint8_t>(tag.data(), tag.size()));
}

}  // namespace wmsn::crypto
