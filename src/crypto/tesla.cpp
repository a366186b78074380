#include "crypto/tesla.hpp"

#include <algorithm>
#include <utility>

#include "obs/profiler.hpp"
#include "util/require.hpp"

namespace wmsn::crypto {

TeslaChain::TeslaChain(const Key& seed, std::size_t length) {
  WMSN_REQUIRE(length >= 2);
  keys_.resize(length);
  keys_.back() = seed;
  for (std::size_t i = length - 1; i > 0; --i)
    keys_[i - 1] = step(keys_[i]);
}

Key TeslaChain::step(const Key& next) {
  WMSN_PROFILE_PHASE(kCrypto);
  ByteWriter w;
  w.str("tesla-chain");
  w.raw(std::span<const std::uint8_t>(next.data(), next.size()));
  const auto digest = Sha256::hash(w.data());
  Key out;
  std::copy_n(digest.begin(), out.size(), out.begin());
  return out;
}

Key TeslaChain::macKey(const Key& chainKey) {
  ByteWriter w;
  w.str("tesla-mac");
  const auto digest = HmacSha256::mac(chainKey, w.data());
  Key out;
  std::copy_n(digest.begin(), out.size(), out.begin());
  return out;
}

const Key& TeslaChain::key(std::size_t interval) const {
  WMSN_REQUIRE_MSG(interval < keys_.size(), "TESLA chain exhausted");
  return keys_[interval];
}

TeslaBroadcaster::TeslaBroadcaster(std::shared_ptr<const TeslaChain> chain,
                                   TeslaParams params)
    : chain_(std::move(chain)), params_(params) {
  WMSN_REQUIRE(chain_ != nullptr);
  WMSN_REQUIRE(params.intervalDuration.us > 0);
  WMSN_REQUIRE(params.disclosureDelay >= 1);
}

std::uint32_t TeslaBroadcaster::intervalAt(sim::Time now) const {
  WMSN_REQUIRE(now >= params_.startTime);
  return static_cast<std::uint32_t>((now - params_.startTime).us /
                                    params_.intervalDuration.us);
}

TeslaAuthenticatedMessage TeslaBroadcaster::sign(const Bytes& payload,
                                                 sim::Time now) const {
  const std::uint32_t interval = intervalAt(now);
  // Interval 0's key is the commitment itself (public), so usable intervals
  // start at 1.
  WMSN_REQUIRE_MSG(interval >= 1, "TESLA interval 0 key is public");
  const Key mk = TeslaChain::macKey(chain_->key(interval));
  TeslaAuthenticatedMessage msg;
  msg.payload = payload;
  msg.interval = interval;
  msg.mac = packetMac(mk, interval, payload);
  return msg;
}

std::optional<std::pair<std::uint32_t, Key>> TeslaBroadcaster::disclosableKey(
    sim::Time now) const {
  const std::uint32_t interval = intervalAt(now);
  if (interval < params_.disclosureDelay) return std::nullopt;
  const std::uint32_t disclosed = interval - params_.disclosureDelay;
  if (disclosed < 1) return std::nullopt;
  return std::make_pair(disclosed, chain_->key(disclosed));
}

TeslaReceiver::TeslaReceiver(const Key& commitment, TeslaParams params)
    : lastVerifiedKey_(commitment), params_(params) {}

std::uint32_t TeslaReceiver::intervalAt(sim::Time now) const {
  WMSN_REQUIRE(now >= params_.startTime);
  return static_cast<std::uint32_t>((now - params_.startTime).us /
                                    params_.intervalDuration.us);
}

TeslaReceiver::Accept TeslaReceiver::onMessage(
    const TeslaAuthenticatedMessage& msg, sim::Time arrival) {
  if (msg.interval <= verifiedInterval_) return Accept::kStaleInterval;
  // Security condition: the sender may disclose K_i starting in interval
  // i + d. If the message arrives at or after that point an adversary could
  // already know the key, so the MAC proves nothing.
  const std::uint32_t arrivalInterval = intervalAt(arrival);
  if (arrivalInterval >= msg.interval + params_.disclosureDelay)
    return Accept::kUnsafe;
  buffer_.push_back(msg);
  return Accept::kBuffered;
}

std::optional<std::vector<Bytes>> TeslaReceiver::onKeyDisclosure(
    std::uint32_t interval, const Key& key) {
  if (interval <= verifiedInterval_) return std::nullopt;
  // Verify the disclosed key by hashing it back to the last verified key.
  Key walked = key;
  for (std::uint32_t i = interval; i > verifiedInterval_; --i)
    walked = TeslaChain::step(walked);
  if (!constantTimeEqual(
          std::span<const std::uint8_t>(walked.data(), walked.size()),
          std::span<const std::uint8_t>(lastVerifiedKey_.data(),
                                        lastVerifiedKey_.size())))
    return std::nullopt;

  const Key mk = TeslaChain::macKey(key);
  std::vector<Bytes> released;
  std::vector<TeslaAuthenticatedMessage> keep;
  for (auto& msg : buffer_) {
    if (msg.interval == interval) {
      if (verifyPacketMac(mk, msg.interval, msg.payload, msg.mac))
        released.push_back(std::move(msg.payload));
      // else: forged — drop silently
    } else if (msg.interval > interval) {
      keep.push_back(std::move(msg));
    }
    // msg.interval < interval: its key was skipped — undeliverable, drop.
  }
  buffer_ = std::move(keep);
  lastVerifiedKey_ = key;
  verifiedInterval_ = interval;
  return released;
}

}  // namespace wmsn::crypto
