// The codec's home (src/routing/messages.* in the tree) may use the byte
// serialisers.
inline Bytes encodeAck(std::uint64_t uid) {
  ByteWriter w;
  w.u64(uid);
  return w.take();
}
