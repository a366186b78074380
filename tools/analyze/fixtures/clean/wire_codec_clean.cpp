// wire-codec-discipline clean counterpart — payloads go through their
// message's field table; a ByteWriter named only in a comment, a string
// or inside a longer identifier is not a codec.
#include <cstdint>

inline Bytes descriptor(std::uint64_t uid, std::uint8_t hops) {
  SpinDescriptorMsg msg;
  msg.uid = uid;
  msg.hops = hops;
  return msg.encode();
}

inline std::uint64_t parseDescriptor(const Bytes& payload) {
  return SpinDescriptorMsg::decode(payload).uid;
}

inline const char* label() { return "ByteReader"; }
struct MyByteWriterStats {};
