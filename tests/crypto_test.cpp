#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "crypto/ctr.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keystore.hpp"
#include "crypto/sha256.hpp"
#include "crypto/speck.hpp"
#include "crypto/tesla.hpp"
#include "obs/profiler.hpp"
#include "util/bytes.hpp"
#include "util/require.hpp"

namespace wmsn::crypto {
namespace {

Bytes strBytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

// --- SHA-256 (FIPS 180-4 test vectors) ---------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(toHex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(toHex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(toHex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(toHex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.update(std::string(1, c));
  EXPECT_EQ(h.finish(), Sha256::hash(msg));
}

TEST(Sha256, BoundaryLengths) {
  // Exercise the padding paths at 55/56/63/64/65 bytes.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u}) {
    const std::string msg(n, 'x');
    Sha256 streaming;
    streaming.update(msg.substr(0, n / 2));
    streaming.update(msg.substr(n / 2));
    EXPECT_EQ(streaming.finish(), Sha256::hash(msg)) << "length " << n;
  }
}

TEST(Sha256, ReuseAfterFinishThrows) {
  Sha256 h;
  h.update("abc");
  (void)h.finish();
  EXPECT_THROW(h.update("more"), PreconditionError);
  EXPECT_THROW(h.finish(), PreconditionError);
}

// --- HMAC-SHA256 (RFC 4231 test vectors) ---------------------------------------

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = strBytes("Hi There");
  EXPECT_EQ(toHex(HmacSha256::mac(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const Bytes key = strBytes("Jefe");
  const Bytes data = strBytes("what do ya want for nothing?");
  EXPECT_EQ(toHex(HmacSha256::mac(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);  // key longer than the block size
  const Bytes data =
      strBytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(toHex(HmacSha256::mac(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeyedPathPassesRfc4231) {
  struct Case {
    Bytes key;
    Bytes data;
    const char* hex;
  };
  const Case cases[] = {
      {Bytes(20, 0x0b), strBytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {strBytes("Jefe"), strBytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(131, 0xaa),
       strBytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const Case& c : cases) {
    const HmacSha256::Keyed keyed(c.key);
    EXPECT_EQ(toHex(keyed.mac(c.data)), c.hex);
    // The prefix form streams prefix || message: any split gives the tag.
    const std::span<const std::uint8_t> data(c.data);
    for (std::size_t cut : {std::size_t{0}, std::size_t{3}, c.data.size()})
      EXPECT_EQ(toHex(keyed.mac(data.first(cut), data.subspan(cut))), c.hex);
  }
}

TEST(HmacSha256, ReusedKeyedContextMatchesFreshMac) {
  Key key{};
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(17 * i + 3);
  const HmacSha256::Keyed keyed(key);
  Bytes msg;
  for (std::uint64_t n = 0; n < 1000; ++n) {
    // Lengths 0..149 cross the one- and two-block padding boundaries.
    msg.assign(n % 150, static_cast<std::uint8_t>(n * 31));
    if (!msg.empty()) msg.front() = static_cast<std::uint8_t>(n);
    ASSERT_EQ(keyed.mac(msg), HmacSha256::mac(key, msg)) << "message " << n;

    // packetMac streams the counter; it must equal the HMAC of the joined
    // bytes C || message, truncated.
    ByteWriter joined;
    joined.u64(n);
    joined.raw(msg);
    const auto full = HmacSha256::mac(key, joined.data());
    PacketMac truncated;
    std::copy_n(full.begin(), truncated.size(), truncated.begin());
    ASSERT_EQ(packetMac(keyed, n, msg), truncated) << "message " << n;
  }
}

TEST(PacketMac, VerifyAcceptsGenuineTag) {
  Key key{};
  key.fill(0x42);
  const Bytes msg = strBytes("sensor reading");
  const PacketMac tag = packetMac(key, 7, msg);
  EXPECT_TRUE(verifyPacketMac(key, 7, msg, tag));
}

TEST(PacketMac, RejectsWrongCounterKeyOrMessage) {
  Key key{};
  key.fill(0x42);
  const Bytes msg = strBytes("sensor reading");
  const PacketMac tag = packetMac(key, 7, msg);
  EXPECT_FALSE(verifyPacketMac(key, 8, msg, tag));
  Key other = key;
  other[0] ^= 1;
  EXPECT_FALSE(verifyPacketMac(other, 7, msg, tag));
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(verifyPacketMac(key, 7, tampered, tag));
  PacketMac flipped = tag;
  flipped[0] ^= 1;
  EXPECT_FALSE(verifyPacketMac(key, 7, msg, flipped));
}

// --- Speck64/128 (vector from the Speck reference paper) -----------------------

TEST(Speck64, ReferenceVector) {
  // Key words (K3..K0) = 1b1a1918 13121110 0b0a0908 03020100,
  // plaintext (x, y) = (3b726574, 7475432d),
  // ciphertext (x, y) = (8c6fa548, 454e028b).
  Key key = {0x00, 0x01, 0x02, 0x03, 0x08, 0x09, 0x0a, 0x0b,
             0x10, 0x11, 0x12, 0x13, 0x18, 0x19, 0x1a, 0x1b};
  Speck64 cipher(key);
  auto [ex, ey] = cipher.encryptWords(0x3b726574u, 0x7475432du);
  EXPECT_EQ(ex, 0x8c6fa548u);
  EXPECT_EQ(ey, 0x454e028bu);
}

TEST(Speck64, DecryptInvertsEncrypt) {
  Key key{};
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  Speck64 cipher(key);
  for (std::uint8_t fill = 0; fill < 16; ++fill) {
    Speck64::Block block;
    block.fill(fill);
    EXPECT_EQ(cipher.decrypt(cipher.encrypt(block)), block);
  }
}

TEST(Speck64, DifferentKeysDifferentCiphertexts) {
  Key a{}, b{};
  a.fill(1);
  b.fill(2);
  Speck64::Block block{};
  EXPECT_NE(Speck64(a).encrypt(block), Speck64(b).encrypt(block));
}

// --- CTR mode -------------------------------------------------------------------

TEST(SpeckCtr, RoundTripVariousLengths) {
  Key key{};
  key.fill(0x5a);
  SpeckCtr ctr(key);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 24u, 64u, 100u}) {
    Bytes plain(n);
    for (std::size_t i = 0; i < n; ++i)
      plain[i] = static_cast<std::uint8_t>(i);
    const Bytes cipher = ctr.encrypt(99, plain);
    EXPECT_EQ(ctr.decrypt(99, cipher), plain) << "length " << n;
    if (n > 0) {
      EXPECT_NE(cipher, plain);
    }
  }
}

TEST(SpeckCtr, DistinctCountersDistinctKeystreams) {
  Key key{};
  key.fill(0x77);
  SpeckCtr ctr(key);
  const Bytes plain(32, 0);
  EXPECT_NE(ctr.encrypt(1, plain), ctr.encrypt(2, plain));
}

TEST(SpeckCtr, DistinctBlocksWithinMessage) {
  Key key{};
  key.fill(0x77);
  SpeckCtr ctr(key);
  const Bytes plain(16, 0);  // two identical plaintext blocks
  const Bytes cipher = ctr.encrypt(5, plain);
  EXPECT_NE(Bytes(cipher.begin(), cipher.begin() + 8),
            Bytes(cipher.begin() + 8, cipher.end()));
}

// --- KeyStore / counters ----------------------------------------------------------

TEST(KeyStore, DeterministicFromSeed) {
  KeyStore a = KeyStore::fromSeed(99);
  KeyStore b = KeyStore::fromSeed(99);
  EXPECT_EQ(a.pairwiseKey(1, 2), b.pairwiseKey(1, 2));
  EXPECT_EQ(a.broadcastSeedKey(4), b.broadcastSeedKey(4));
}

TEST(KeyStore, DistinctPairsDistinctKeys) {
  KeyStore ks = KeyStore::fromSeed(99);
  EXPECT_NE(ks.pairwiseKey(1, 2), ks.pairwiseKey(2, 1));
  EXPECT_NE(ks.pairwiseKey(1, 2), ks.pairwiseKey(1, 3));
  EXPECT_NE(ks.pairwiseKey(1, 2), ks.broadcastSeedKey(2));
  EXPECT_NE(KeyStore::fromSeed(1).pairwiseKey(1, 2),
            KeyStore::fromSeed(2).pairwiseKey(1, 2));
}

TEST(CounterWindow, AcceptsStrictlyIncreasingOnly) {
  CounterWindow window;
  EXPECT_TRUE(window.acceptAndAdvance(1));
  EXPECT_FALSE(window.acceptAndAdvance(1));  // replay
  EXPECT_TRUE(window.acceptAndAdvance(5));   // gaps are fine
  EXPECT_FALSE(window.acceptAndAdvance(3));  // late/replayed
  EXPECT_EQ(window.last(), 5u);
}

TEST(CounterSource, Monotonic) {
  CounterSource src;
  EXPECT_EQ(src.next(), 1u);
  EXPECT_EQ(src.next(), 2u);
  EXPECT_EQ(src.current(), 2u);
}

// --- TESLA --------------------------------------------------------------------------

TeslaParams testParams() {
  TeslaParams p;
  p.chainLength = 16;
  p.intervalDuration = sim::Time::seconds(1.0);
  p.startTime = sim::Time::zero();
  p.disclosureDelay = 2;
  return p;
}

TEST(TeslaChain, ChainStepsBackToCommitment) {
  Key seed{};
  seed.fill(9);
  TeslaChain chain(seed, 8);
  Key walked = chain.key(7);
  for (int i = 7; i > 0; --i) walked = TeslaChain::step(walked);
  EXPECT_EQ(walked, chain.commitment());
}

TEST(TeslaChain, ChainHashingIsTimedAsCrypto) {
  Key seed{};
  seed.fill(9);
  obs::Profiler profiler;
  {
    obs::Profiler::Activation activation(&profiler);
    const TeslaChain chain(seed, 8);
    EXPECT_EQ(profiler.totals(obs::Phase::kCrypto).calls, 7u);
    TeslaChain::step(chain.key(1));
  }
  EXPECT_EQ(profiler.totals(obs::Phase::kCrypto).calls, 8u);
  EXPECT_EQ(profiler.depth(), 0u);
}

TEST(TeslaChain, MacKeyDiffersFromChainKey) {
  Key seed{};
  seed.fill(9);
  TeslaChain chain(seed, 4);
  EXPECT_NE(TeslaChain::macKey(chain.key(1)), chain.key(1));
}

TEST(Tesla, EndToEndAuthenticatedBroadcast) {
  Key seed{};
  seed.fill(3);
  TeslaBroadcaster broadcaster(seed, testParams());
  TeslaReceiver receiver(broadcaster.commitment(), testParams());

  const Bytes payload = strBytes("gateway moved to place 4");
  const sim::Time sendTime = sim::Time::seconds(1.5);  // interval 1
  const auto msg = broadcaster.sign(payload, sendTime);
  EXPECT_EQ(msg.interval, 1u);

  EXPECT_EQ(receiver.onMessage(msg, sendTime + sim::Time::milliseconds(20)),
            TeslaReceiver::Accept::kBuffered);

  // Key for interval 1 becomes disclosable in interval 3.
  const auto disclosed = broadcaster.disclosableKey(sim::Time::seconds(3.2));
  ASSERT_TRUE(disclosed.has_value());
  EXPECT_EQ(disclosed->first, 1u);

  const auto released =
      receiver.onKeyDisclosure(disclosed->first, disclosed->second);
  ASSERT_TRUE(released.has_value());
  ASSERT_EQ(released->size(), 1u);
  EXPECT_EQ((*released)[0], payload);
  EXPECT_EQ(receiver.verifiedThrough(), 1u);
}

TEST(Tesla, SecurityConditionRejectsLateMessages) {
  Key seed{};
  seed.fill(3);
  TeslaBroadcaster broadcaster(seed, testParams());
  TeslaReceiver receiver(broadcaster.commitment(), testParams());

  const auto msg = broadcaster.sign(strBytes("late"), sim::Time::seconds(1.5));
  // Arrives in interval 3 = 1 + disclosureDelay: the key may be public.
  EXPECT_EQ(receiver.onMessage(msg, sim::Time::seconds(3.1)),
            TeslaReceiver::Accept::kUnsafe);
}

TEST(Tesla, ForgedMacDroppedAtDisclosure) {
  Key seed{};
  seed.fill(3);
  TeslaBroadcaster broadcaster(seed, testParams());
  TeslaReceiver receiver(broadcaster.commitment(), testParams());

  auto msg = broadcaster.sign(strBytes("genuine"), sim::Time::seconds(1.5));
  msg.payload = strBytes("tampered");  // payload no longer matches the MAC
  receiver.onMessage(msg, sim::Time::seconds(1.6));

  const auto disclosed = broadcaster.disclosableKey(sim::Time::seconds(3.2));
  ASSERT_TRUE(disclosed.has_value());
  const auto released =
      receiver.onKeyDisclosure(disclosed->first, disclosed->second);
  ASSERT_TRUE(released.has_value());
  EXPECT_TRUE(released->empty());  // forgery silently dropped
}

TEST(Tesla, BogusKeyRejected) {
  Key seed{};
  seed.fill(3);
  TeslaBroadcaster broadcaster(seed, testParams());
  TeslaReceiver receiver(broadcaster.commitment(), testParams());
  Key bogus{};
  bogus.fill(0xee);
  EXPECT_FALSE(receiver.onKeyDisclosure(2, bogus).has_value());
  EXPECT_EQ(receiver.verifiedThrough(), 0u);
}

TEST(Tesla, SkippedIntervalsStillVerify) {
  Key seed{};
  seed.fill(7);
  TeslaBroadcaster broadcaster(seed, testParams());
  TeslaReceiver receiver(broadcaster.commitment(), testParams());

  // Sign in interval 4; receiver hears nothing in 1..3.
  const auto msg = broadcaster.sign(strBytes("hop"), sim::Time::seconds(4.5));
  receiver.onMessage(msg, sim::Time::seconds(4.6));
  const auto disclosed = broadcaster.disclosableKey(sim::Time::seconds(6.5));
  ASSERT_TRUE(disclosed.has_value());
  EXPECT_EQ(disclosed->first, 4u);
  const auto released =
      receiver.onKeyDisclosure(disclosed->first, disclosed->second);
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(released->size(), 1u);
}

TEST(Tesla, SigningInIntervalZeroThrows) {
  Key seed{};
  seed.fill(3);
  TeslaBroadcaster broadcaster(seed, testParams());
  EXPECT_THROW(broadcaster.sign(strBytes("x"), sim::Time::seconds(0.5)),
               PreconditionError);
}

TEST(Tesla, ChainExhaustionThrows) {
  Key seed{};
  seed.fill(3);
  TeslaParams params = testParams();
  params.chainLength = 4;
  TeslaBroadcaster broadcaster(seed, params);
  EXPECT_THROW(broadcaster.sign(strBytes("x"), sim::Time::seconds(10.0)),
               PreconditionError);
}

}  // namespace
}  // namespace wmsn::crypto
