#include "routing/messages.hpp"

#include <algorithm>
#include <array>
#include <type_traits>
#include <utility>

#include "util/require.hpp"

namespace wmsn::routing {

namespace {

// --- the field-table codec ---------------------------------------------------

template <typename T>
struct IsPerHop : std::false_type {};
template <typename Member>
struct IsPerHop<PerHop<Member>> : std::true_type {};

template <typename T>
struct IsRaw : std::false_type {};
template <std::size_t N>
struct IsRaw<std::array<std::uint8_t, N>> : std::true_type {};

/// Calls fn(field, perHop) for every entry of `msg`'s table, in wire order.
template <typename Msg, typename Fn>
void forEachField(Msg& msg, Fn&& fn) {
  std::apply(
      [&](auto... entry) {
        auto visit = [&](auto e) {
          if constexpr (IsPerHop<decltype(e)>::value)
            fn(msg.*e.member, true);
          else
            fn(msg.*e, false);
        };
        (visit(entry), ...);
      },
      std::remove_const_t<Msg>::fields());
}

/// On-air bytes of one `T` whose table holds only unsigned integers (an
/// aggregate entry: 8 + 2 + 1 = 11).
template <typename T>
constexpr std::size_t fixedWireSize() {
  return std::apply(
      [](auto... member) {
        return (sizeof(std::remove_cvref_t<decltype(std::declval<T&>().*
                                                     member)>) +
                ...);
      },
      T::fields());
}

/// Writes fields little-endian, one byte at a time through `put`.
template <typename Put>
class Writer {
 public:
  explicit Writer(Put put) : put_(put) {}

  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_unsigned_v<T>) {
      for (std::size_t i = 0; i < sizeof(T); ++i)
        put_(static_cast<std::uint8_t>(v >> (8 * i)));
    } else if constexpr (std::is_same_v<T, Bytes>) {
      WMSN_REQUIRE_MSG(v.size() <= 0xffff, "length-prefixed field too long");
      field(static_cast<std::uint16_t>(v.size()));
      for (std::uint8_t b : v) put_(b);
    } else if constexpr (std::is_same_v<T, Path>) {
      WMSN_REQUIRE_MSG(v.size() <= 0xff, "path too long to encode");
      field(static_cast<std::uint8_t>(v.size()));
      for (std::uint16_t hop : v) field(hop);
    } else if constexpr (IsRaw<T>::value) {
      for (std::uint8_t b : v) put_(b);
    } else if constexpr (requires { T::fields(); }) {
      forEachField(v, [&](const auto& f, bool) { field(f); });
    } else {
      WMSN_REQUIRE_MSG(v.size() <= 0xffff, "entry list too long to encode");
      field(static_cast<std::uint16_t>(v.size()));
      for (const auto& entry : v) field(entry);
    }
  }

 private:
  Put put_;
};

/// What `write(writer)` writes, in one buffer of exactly that size: a first
/// pass counts the bytes, the second fills them.
template <typename WriteFn>
Bytes encodeExact(WriteFn write) {
  std::size_t size = 0;
  write(Writer([&size](std::uint8_t) { ++size; }));
  Bytes out(size);
  std::uint8_t* next = out.data();
  write(Writer([&next](std::uint8_t b) { *next++ = b; }));
  return out;
}

/// Reads fields in place; throws PreconditionError past the end.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> in) : in_(in) {}

  template <typename T>
  void field(T& v) {
    if constexpr (std::is_unsigned_v<T>) {
      const std::uint8_t* p = take(sizeof(T));
      std::uint64_t value = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i)
        value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
      v = static_cast<T>(value);
    } else if constexpr (std::is_same_v<T, Bytes>) {
      std::uint16_t n = 0;
      field(n);
      const std::uint8_t* p = take(n);
      v.assign(p, p + n);
    } else if constexpr (std::is_same_v<T, Path>) {
      std::uint8_t n = 0;
      field(n);
      v.resize(n);
      for (std::uint16_t& hop : v) field(hop);
    } else if constexpr (IsRaw<T>::value) {
      const std::uint8_t* p = take(v.size());
      std::copy(p, p + v.size(), v.begin());
    } else if constexpr (requires { T::fields(); }) {
      forEachField(v, [&](auto& f, bool) { field(f); });
    } else {
      std::uint16_t n = 0;
      field(n);
      // Bound the count by the bytes left before allocating for it.
      WMSN_REQUIRE_MSG(
          in_.size() - pos_ >= n * fixedWireSize<typename T::value_type>(),
          "truncated packet");
      v.resize(n);
      for (auto& entry : v) field(entry);
    }
  }

 private:
  const std::uint8_t* take(std::size_t n) {
    WMSN_REQUIRE_MSG(in_.size() - pos_ >= n, "truncated packet");
    const std::uint8_t* p = in_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

/// SecMLR's MAC input: the packet-kind byte, then every table field but the
/// MAC itself and the per-hop ones.
template <typename Msg>
Bytes macInputOf(net::PacketKind kind, const Msg& msg) {
  return encodeExact([&](auto w) {
    w.field(static_cast<std::uint8_t>(kind));
    forEachField(msg, [&](const auto& f, bool perHop) {
      using T = std::decay_t<decltype(f)>;
      if (!perHop && !std::is_same_v<T, crypto::PacketMac>) w.field(f);
    });
  });
}

/// Decodes the first N fields of `msg`'s table, which must be integers;
/// false when the payload is too short to hold them.
template <std::size_t N, typename Msg>
bool decodeLeading(std::span<const std::uint8_t> payload, Msg& msg) {
  constexpr auto table = Msg::fields();
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    if (payload.size() < (sizeof(msg.*std::get<I>(table)) + ...))
      return false;
    Reader r(payload);
    (r.field(msg.*std::get<I>(table)), ...);
    return true;
  }(std::make_index_sequence<N>{});
}

}  // namespace

template <typename Msg>
Bytes WireMessage<Msg>::encode() const {
  const Msg& msg = static_cast<const Msg&>(*this);
  return encodeExact([&](auto w) { w.field(msg); });
}

template <typename Msg>
Msg WireMessage<Msg>::decode(std::span<const std::uint8_t> payload) {
  Msg msg;
  Reader(payload).field(msg);
  return msg;
}

template struct WireMessage<RreqMsg>;
template struct WireMessage<RresMsg>;
template struct WireMessage<DataMsg>;
template struct WireMessage<GatewayMoveMsg>;
template struct WireMessage<LoadAdvisoryMsg>;
template struct WireMessage<CommandMsg>;
template struct WireMessage<CostBeaconMsg>;
template struct WireMessage<ChAdvertMsg>;
template struct WireMessage<ChJoinMsg>;
template struct WireMessage<AggregateMsg>;
template struct WireMessage<SpinDescriptorMsg>;
template struct WireMessage<ReinforceMsg>;
template struct WireMessage<SecRreqMsg>;
template struct WireMessage<SecRresMsg>;
template struct WireMessage<SecDataMsg>;
template struct WireMessage<SecMoveMsg>;
template struct WireMessage<KeyDiscloseMsg>;
template struct WireMessage<SealedCommandMsg>;
template struct WireMessage<AckMsg>;

bool pathIsSimple(const Path& path) {
  // Paths are a few dozen hops at most (an encoded path holds <= 255), so a
  // quadratic scan is cheap and, unlike a hash set, allocates nothing.
  for (auto hop = path.begin(); hop != path.end(); ++hop)
    if (std::find(path.begin(), hop, *hop) != hop) return false;
  return true;
}

Bytes SecRreqMsg::macInput() const {
  return macInputOf(net::PacketKind::kRreq, *this);
}

Bytes SecRresMsg::macInput() const {
  return macInputOf(net::PacketKind::kRres, *this);
}

Bytes SecDataMsg::macInput() const {
  return macInputOf(net::PacketKind::kData, *this);
}

std::optional<SecRreqMsg::Id> SecRreqMsg::peekId(const Bytes& payload) {
  SecRreqMsg m;  // the Id is the table's first three fields
  if (!decodeLeading<3>(payload, m)) return std::nullopt;
  return Id{m.source, m.gateway, m.reqId};
}

}  // namespace wmsn::routing
