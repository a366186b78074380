#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/ctr.hpp"
#include "crypto/keystore.hpp"
#include "crypto/tesla.hpp"
#include "routing/mlr.hpp"
#include "util/require.hpp"

namespace wmsn::routing {

struct SecMlrConfig {
  std::uint64_t keySeed = 0xc0ffee;       ///< deployment-time master key seed
  crypto::TeslaParams tesla;              ///< broadcast-auth schedule
  sim::Time collectWindow = sim::Time::seconds(0.15);  ///< §6.2.2 timeout
  /// Source-side step-4 window: must cover the query flood, the gateway's
  /// collect window, and the response's walk back.
  sim::Time responseWindow = sim::Time::seconds(1.2);
  std::uint32_t maxQueryRetries = 2;
  std::uint8_t maxPathLength = 32;
  std::size_t readingBytes = 24;
};

/// The key material of one SecMLR scenario, shared by all its nodes.
///
/// Every key a node holds is a pure function of the master key: K_ij, each
/// gateway's TESLA chain, the chain's MAC keys, and the walk a receiver
/// takes to check a disclosed key. Computed per node and per use, they
/// would be derived hundreds of times each (every node would build every
/// gateway's whole chain just to read K_0), so the keyring computes each
/// once, on first use, and hands out the result. Nodes still charge their
/// energy model for the crypto work exactly as if they had done it
/// themselves. Construction derives the master key and nothing else, so
/// scenario set-up does no other hashing. Not thread-safe: one scenario
/// runs on one thread.
class SecMlrKeyring {
 public:
  explicit SecMlrKeyring(SecMlrConfig config);

  const SecMlrConfig& config() const { return config_; }

  /// `gateway`'s TESLA chain: config().tesla.chainLength keys from its
  /// KeyStore broadcast seed.
  const std::shared_ptr<const crypto::TeslaChain>& teslaChain(
      net::NodeId gateway);

  /// K_ij with its HMAC pads absorbed.
  struct PairKey {
    crypto::Key key;
    crypto::HmacSha256::Keyed hmac;
  };
  const PairKey& pairKey(net::NodeId sensor, net::NodeId gateway);

  /// TeslaChain::macKey(chainKey) with its HMAC pads absorbed.
  const crypto::HmacSha256::Keyed& teslaMacKey(const crypto::Key& chainKey);

  /// `steps` applications of TeslaChain::step to `key`.
  const crypto::Key& walk(const crypto::Key& key, std::uint32_t steps);

 private:
  SecMlrConfig config_;
  crypto::KeyStore keystore_;
  std::unordered_map<net::NodeId, std::shared_ptr<const crypto::TeslaChain>>
      chains_;
  std::unordered_map<std::uint64_t, PairKey> pairKeys_;  // sensor<<32 | gw
  std::map<crypto::Key, crypto::HmacSha256::Keyed> teslaMacKeys_;
  std::map<std::pair<crypto::Key, std::uint32_t>, crypto::Key> walks_;
};

/// The two SecMLR floods a node remembers: route queries, keyed by
/// (source, gateway, reqId), and TESLA key disclosures, keyed by (gateway,
/// interval). The two keys pack alike (a query from source 0 is the
/// disclosure of its reqId), so each flood has its own table.
enum class SecMlrFlood : std::uint8_t { kQuery, kDisclose };

/// Which nodes of one SecMLR scenario have marked which flood.
///
/// A node marks a flood when it starts or relays it and must never relay
/// it twice. Per-node hash sets would hold one heap node per node per
/// flood, never freed; the ledger holds the same facts for every node at
/// once: a table maps each flood key to an ordinal, and each flood owns one
/// row of one bit per node, allocated when the first node marks it. Each
/// node's answers equal those of its own insert-only set: a node reads and
/// writes only its own bit, marks are never cleared while the node's
/// protocol object lives and are never iterated, and the keys are the
/// packed 16-bit wire ids a per-node set would hold. A new protocol object
/// starts with none of its node's marks (SecMlrRouting's constructor calls
/// forget()), as a fresh set would. Not thread-safe: one scenario runs on
/// one thread.
class SecMlrFloodLedger {
 public:
  /// Rows of `nodes` bits: node ids run from 0 to nodes - 1.
  explicit SecMlrFloodLedger(std::size_t nodes);

  /// Whether `node` has marked `key`.
  bool marked(SecMlrFlood flood, std::uint64_t key, net::NodeId node) const {
    WMSN_REQUIRE(node < nodes_);
    const Table& table = tables_[static_cast<std::size_t>(flood)];
    const std::uint32_t row = rowOf(table, key);
    return row != 0 && (table.rows[wordOf(row, node)] >> (node % 64) & 1);
  }
  /// Marks `key` at `node`; false when it was already marked.
  bool mark(SecMlrFlood flood, std::uint64_t key, net::NodeId node);
  /// Clears every mark of `node`.
  void forget(net::NodeId node);

 private:
  /// Row r - 1 of `rows` is one flood: its key, then one bit per node.
  /// `slots` indexes the rows by key: open addressing over r (0 = empty),
  /// at most half full, probed linearly from the key's hash.
  struct Table {
    std::vector<std::uint32_t> slots;  ///< 2^(64 - shift) of them
    unsigned shift = 0;
    std::vector<std::uint64_t> rows;
    std::uint32_t count = 0;
  };

  static std::size_t slotOf(const Table& table, std::uint64_t key) {
    // Fibonacci hashing: the product's top bits depend on every key bit.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                    table.shift);
  }
  /// `key`'s row + 1, or 0 when no node has marked it.
  std::uint32_t rowOf(const Table& table, std::uint64_t key) const {
    const std::size_t mask = table.slots.size() - 1;
    for (std::size_t i = slotOf(table, key);; i = (i + 1) & mask) {
      const std::uint32_t row = table.slots[i];
      if (row == 0 || table.rows[(row - 1) * stride_] == key) return row;
    }
  }
  /// The index in `rows` of the word holding `node`'s bit of row - 1.
  std::size_t wordOf(std::uint32_t row, net::NodeId node) const {
    return (row - 1) * stride_ + 1 + node / 64;
  }
  std::uint32_t addRow(Table& table, std::uint64_t key);

  std::size_t nodes_;
  std::size_t stride_;  ///< words per row: the key and the node bits
  std::array<Table, 2> tables_;
};

/// SecMLR (§6.2) — the secure variant of MLR:
///
///  * Gateway place notifications are TESLA-authenticated (§6.2.3): nodes
///    flood-and-buffer the announcement, and only act on it after the
///    delayed key disclosure verifies against the gateway's hash chain —
///    a forged announcement (sinkhole bait, bogus "gateway left") dies at
///    verification.
///  * Route discovery is the encrypted query/response of §6.2.1–6.2.2:
///    RREQs carry {req}_{Kij,C} and a MAC binding the freshness counter;
///    the gateway authenticates the source, collects path copies for a
///    timeout, picks the min-hop path and answers with a MAC'd response
///    that installs 4-tuple forwarding entries (source, destination,
///    immediate sender, immediate receiver) along the way (§6.2.4, Fig. 6).
///  * Data travels encrypted with the per-pair key and a counter-bound MAC;
///    gateways reject replays by counter window. Forwarders do NO crypto —
///    "main computing tasks on resource-rich gateways" (§6.2.4).
///
/// Inherits the incremental place table from MlrRouting: the authenticated
/// floods feed the same BFS cost field used for gateway selection.
class SecMlrRouting : public MlrRouting {
 public:
  SecMlrRouting(net::SensorNetwork& network, net::NodeId self,
                const NetworkKnowledge& knowledge,
                std::shared_ptr<SecMlrKeyring> keyring,
                std::shared_ptr<SecMlrFloodLedger> ledger,
                MlrParams mlrParams = {});

  std::string name() const override { return "secmlr"; }
  void start() override;
  void onRoundStart(std::uint32_t round) override;
  void onTopologyChanged() override;
  void onReceive(const net::Packet& packet, net::NodeId from) override;
  void originate(Bytes appPayload) override;
  void announceMove(std::uint16_t newPlace, std::uint16_t prevPlace,
                    std::uint32_t round) override;

  /// Downstream command, secured: the body is encrypted and MAC'd with the
  /// target's pairwise key and a gateway→sensor freshness counter, so only
  /// the genuine gateway can command a sensor and replays are rejected.
  std::uint32_t sendCommand(net::NodeId target, Bytes body) override;

  // --- introspection ------------------------------------------------------
  std::uint64_t rejectedMacs() const { return rejectedMacs_; }
  std::uint64_t rejectedReplays() const { return rejectedReplays_; }
  std::uint64_t rejectedTesla() const { return rejectedTesla_; }
  std::uint64_t queriesStarted() const { return queriesStarted_; }
  std::uint64_t queriesFailed() const { return queriesFailed_; }
  bool hasSessionTo(net::NodeId gateway) const;
  /// The scenario's keyring; a captured node hands it to its insider.
  const std::shared_ptr<SecMlrKeyring>& keyring() const { return keyring_; }
  /// The scenario's flood ledger, handed on with the keyring.
  const std::shared_ptr<SecMlrFloodLedger>& ledger() const { return ledger_; }

 protected:
  /// Failover eviction: a silent gateway loses not just its place entry but
  /// the secure session and every 4-tuple forwarding entry toward it.
  void onGatewayPresumedDown(std::uint16_t gateway) override;

 private:
  // --- key / counter plumbing ---------------------------------------------
  void chargeCrypto(std::size_t bytes);

  // --- TESLA move notifications ------------------------------------------
  struct BufferedMove {
    Bytes teslaPayload;
    crypto::PacketMac mac{};
    std::uint16_t hops = 0;
    net::NodeId from = net::kNoNode;
  };
  struct TeslaState {
    net::NodeId gateway = net::kNoNode;
    /// K_verifiedInterval. K_0 is the keyring's commitment, read at the
    /// first disclosure rather than stored at set-up.
    crypto::Key lastVerifiedKey{};
    std::uint32_t verifiedInterval = 0;
    std::map<std::uint32_t, std::vector<BufferedMove>> pending;  // by interval
  };
  void handleSecMove(const net::Packet& packet, net::NodeId from);
  void handleKeyDisclose(const net::Packet& packet);

  // --- secure query / response --------------------------------------------
  void startQuery();
  void finishQuery();
  void handleSecRreq(const net::Packet& packet, net::NodeId from);
  void handleSecRres(const net::Packet& packet, net::NodeId from);
  void replyToQuery(std::uint16_t source, std::uint32_t reqId);

  // --- data plane ----------------------------------------------------------
  struct Session {
    bool valid = false;
    net::NodeId nextHop = net::kNoNode;
    std::uint16_t place = kNoPlace;
    std::uint16_t pathHops = 0;
  };
  struct ForwardEntry {
    net::NodeId immediateSender = net::kNoNode;
    net::NodeId immediateReceiver = net::kNoNode;
  };
  void handleSecData(const net::Packet& packet, net::NodeId from);
  void handleCommand(const net::Packet& packet) override;
  void sendSecData(std::uint64_t uid, Bytes reading, std::uint16_t gateway);
  std::optional<std::uint16_t> pickSessionGateway();
  void invalidateSessionsTo(std::uint16_t gateway);

  std::shared_ptr<SecMlrKeyring> keyring_;
  std::shared_ptr<SecMlrFloodLedger> ledger_;
  const SecMlrConfig& config_;

  // Sensor-side.
  std::map<std::uint16_t, crypto::CounterSource> counterTo_;    // per gateway
  std::map<std::uint16_t, crypto::CounterWindow> counterFrom_;  // per gateway
  std::map<std::uint16_t, TeslaState> tesla_;                   // per gateway
  std::map<std::uint16_t, Session> sessions_;                   // per gateway
  std::unordered_map<std::uint64_t, ForwardEntry> forward_;  // (src<<16)|gw
  std::vector<std::pair<std::uint64_t, Bytes>> dataQueue_;
  bool queryInFlight_ = false;
  std::uint32_t queryRetries_ = 0;
  std::uint32_t reqId_ = 0;
  std::uint32_t dataSeq_ = 0;
  std::unordered_map<std::uint64_t, std::uint16_t>
      moveReflooded_;  // (gw<<32)|interval → best hopCount re-flooded

  // Gateway-side.
  std::optional<crypto::TeslaBroadcaster> broadcaster_;
  std::map<std::uint16_t, crypto::CounterWindow> sensorWindow_;
  std::map<std::uint16_t, crypto::CounterSource> toSensorCounter_;
  struct Collect {
    std::vector<Path> paths;
    std::uint64_t counter = 0;
  };
  std::map<std::uint64_t, Collect> collecting_;  // (src<<32)|reqId

  // Diagnostics.
  std::uint64_t rejectedMacs_ = 0;
  std::uint64_t rejectedReplays_ = 0;
  std::uint64_t rejectedTesla_ = 0;
  std::uint64_t queriesStarted_ = 0;
  std::uint64_t queriesFailed_ = 0;
};

}  // namespace wmsn::routing
