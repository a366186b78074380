// wire-codec-discipline fixtures — a protocol serialising its own payload
// beside the field tables.
#include <cstdint>

inline Bytes descriptor(std::uint64_t uid) {
  ByteWriter w;  // expect: wire-codec-discipline
  w.u64(uid);
  return w.take();
}

inline std::uint64_t parseDescriptor(const Bytes& payload) {
  ByteReader r(payload);  // expect: wire-codec-discipline
  return r.u64();
}

inline void unseal(wmsn::ByteReader& r);  // expect: wire-codec-discipline
