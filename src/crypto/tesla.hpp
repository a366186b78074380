#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/hmac.hpp"
#include "sim/time.hpp"

namespace wmsn::crypto {

/// µTESLA-style authenticated broadcast (Perrig et al., SPINS — the paper's
/// citation [31]) used by SecMLR for gateway-move notifications (§6.2.3).
///
/// The broadcaster generates a one-way hash chain K_n → … → K_0 with
/// K_i = H(K_{i+1}); K_0 is the commitment pre-loaded onto receivers. Time is
/// divided into intervals; a message sent in interval i is MAC'd with a key
/// derived from K_i, and K_i itself is disclosed `disclosureDelay` intervals
/// later. A receiver buffers messages whose key is still secret (checking the
/// security condition — the key cannot already be disclosed on arrival) and
/// authenticates them once the key is published and verified against the
/// chain.
struct TeslaParams {
  std::size_t chainLength = 64;
  sim::Time intervalDuration = sim::Time::seconds(1.0);
  sim::Time startTime = sim::Time::zero();
  std::uint32_t disclosureDelay = 2;  ///< intervals between use and disclosure
};

class TeslaChain {
 public:
  /// Builds the full chain from a secret seed. chain()[i] is K_i;
  /// chain()[0] is the commitment.
  TeslaChain(const Key& seed, std::size_t length);

  const Key& key(std::size_t interval) const;
  const Key& commitment() const { return keys_.front(); }
  std::size_t length() const { return keys_.size(); }

  /// One application of the chain's one-way function: K_i = step(K_{i+1}).
  static Key step(const Key& next);
  /// The MAC key for interval i, derived (one-way) from chain key K_i.
  static Key macKey(const Key& chainKey);

 private:
  std::vector<Key> keys_;  // keys_[i] = K_i
};

struct TeslaAuthenticatedMessage {
  Bytes payload;
  std::uint32_t interval = 0;
  PacketMac mac{};
};

class TeslaBroadcaster {
 public:
  TeslaBroadcaster(const Key& seed, TeslaParams params)
      : TeslaBroadcaster(
            std::make_shared<const TeslaChain>(seed, params.chainLength),
            params) {}
  /// Signs with an already built chain, shared with whoever else needs it
  /// (SecMLR's keyring hands receivers the same chain's commitment).
  TeslaBroadcaster(std::shared_ptr<const TeslaChain> chain,
                   TeslaParams params);

  const Key& commitment() const { return chain_->commitment(); }
  const TeslaParams& params() const { return params_; }

  /// Which interval a timestamp falls into. Requires now >= startTime.
  std::uint32_t intervalAt(sim::Time now) const;

  /// MAC `payload` with the current interval's (still secret) key.
  TeslaAuthenticatedMessage sign(const Bytes& payload, sim::Time now) const;

  /// The key the broadcaster may safely disclose at `now` (the key of
  /// interval now − disclosureDelay), or nullopt if none yet.
  std::optional<std::pair<std::uint32_t, Key>> disclosableKey(
      sim::Time now) const;

  /// Direct chain access — the broadcaster IS the secret holder; callers
  /// use this to publish K_i once interval i+d begins.
  const Key& chainKey(std::size_t interval) const {
    return chain_->key(interval);
  }

 private:
  std::shared_ptr<const TeslaChain> chain_;
  TeslaParams params_;
};

class TeslaReceiver {
 public:
  /// Receivers are bootstrapped with the commitment K_0 and the public
  /// schedule (params) — but never the seed.
  TeslaReceiver(const Key& commitment, TeslaParams params);

  /// Result of presenting a broadcast message to the receiver.
  enum class Accept {
    kBuffered,      ///< safe; awaiting key disclosure
    kUnsafe,        ///< violated the security condition (key already public)
    kStaleInterval  ///< interval older than an already-verified key
  };

  Accept onMessage(const TeslaAuthenticatedMessage& msg, sim::Time arrival);

  /// Presents a disclosed key. Returns the payloads of all buffered messages
  /// that verify under it; forged/corrupt messages are dropped. A key that
  /// does not verify against the chain is rejected (returns nullopt).
  std::optional<std::vector<Bytes>> onKeyDisclosure(std::uint32_t interval,
                                                    const Key& key);

  std::size_t bufferedCount() const { return buffer_.size(); }
  std::uint32_t verifiedThrough() const { return verifiedInterval_; }

 private:
  std::uint32_t intervalAt(sim::Time now) const;

  Key lastVerifiedKey_;
  std::uint32_t verifiedInterval_ = 0;  // K_0 verified by construction
  TeslaParams params_;
  std::vector<TeslaAuthenticatedMessage> buffer_;
};

}  // namespace wmsn::crypto
