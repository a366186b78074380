#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wmsn::obs {

/// Reading-lifecycle transitions the causal trace pipeline records. One span
/// per transition, keyed by the reading's packet uid (the trace id), so a
/// reading's full fate — origination through delivery or drop — reconstructs
/// from its span sequence (trace_analyze.hpp).
enum class TraceSpanKind : std::uint8_t {
  kOriginate,     ///< application handed a fresh reading to the protocol
  kEnqueue,       ///< origin node handed the reading's frame to its MAC
  kForward,       ///< a relay handed the frame onward to its MAC
  kMacBackoff,    ///< CSMA found the channel busy and backed off
  kMacTx,         ///< the frame went on the air (ARQ retries re-emit)
  kRecv,          ///< addressed receiver decoded the frame
  kDeliver,       ///< first gateway delivery (end of the reading's trace)
  kDrop,          ///< the frame was lost; `reason` says why
  kReroute,       ///< failover retargeted the reading at another gateway
  kDefer,         ///< no routable gateway — reading parked in the buffer
  kGatewayEvict,  ///< a sensor presumed a silent gateway down (uid 0)
  kReject,        ///< SecMLR refused the frame; `reason` names the check
};

/// Why a kDrop (or kReject / kDefer / kReroute) span happened.
enum class TraceDropReason : std::uint8_t {
  kNone,
  kQueueOverflow,  ///< finite MAC transmit queue was full
  kMacExhausted,   ///< CSMA gave up after maxAttempts busy channels
  kCollision,      ///< overlapping receptions corrupted the frame
  kLinkLoss,       ///< channel/Gilbert–Elliott loss at the addressed receiver
  kNoRoute,        ///< no routable gateway known
  kStaleRoute,     ///< route pointed at an evicted place
  kAckExhausted,   ///< hop-by-hop ACK retries ran out
  kAuthMac,        ///< SecMLR MAC verification failed
  kReplay,         ///< SecMLR replay window rejected the sequence
  kTesla,          ///< TESLA disclosure verification failed
};

const char* toString(TraceSpanKind kind);
const char* toString(TraceDropReason reason);

/// Sentinel for "no peer node" in a span.
inline constexpr std::uint32_t kTraceNoPeer = 0xfffffffeu;

/// One causal trace event, reduced to plain integers so the obs layer stays
/// below net/. 40 bytes; the flight-recorder ring and the retained span
/// buffer both store these verbatim.
struct PacketSpan {
  std::int64_t timeUs = 0;   ///< simulation time (deterministic)
  std::uint64_t uid = 0;     ///< reading trace id (0 = network-scope event)
  std::uint32_t node = 0;    ///< acting node
  std::uint32_t peer = kTraceNoPeer;  ///< other end, if any
  std::uint32_t info = 0;    ///< kind-specific (hops, tries, place, …)
  std::uint32_t bytes = 0;   ///< on-air frame size, if any
  TraceSpanKind kind = TraceSpanKind::kOriginate;
  TraceDropReason reason = TraceDropReason::kNone;

  bool operator==(const PacketSpan&) const = default;
};

/// Deterministic head-sampling decision: a reading is traced iff the hash of
/// its uid lands under `permille`. uid 0 (network-scope events) is always
/// kept. Pure function of the uid, so every node — and every worker thread —
/// agrees on which readings are sampled without coordination.
bool traceSampled(std::uint64_t uid, std::uint32_t permille);

/// What one run retained: the sampled span stream plus the labels the
/// Chrome-trace writer needs. Spans are in emission order, which is
/// deterministic for a given seed; repeat mode concatenates logs in seed
/// order so the merged JSONL is byte-identical across --threads.
struct PacketTraceLog {
  bool enabled = false;
  std::uint64_t streamId = 0;  ///< run seed — the `pid` of every event
  std::uint32_t samplePermille = 1000;
  std::vector<PacketSpan> spans;

  /// Chrome-trace-event JSONL (catapult / Perfetto "JSON Array-of-lines"):
  /// one {"name","cat","ph","ts","pid","tid",...} object per line. Readings
  /// are async events keyed by id=uid (ph b/n/e); network-scope spans are
  /// instant events (ph i).
  std::string jsonl() const;
  void writeFile(const std::string& path) const;
};

struct PacketTraceOptions {
  bool retainSpans = false;        ///< keep sampled spans for export/analysis
  std::uint32_t samplePermille = 1000;
  std::uint64_t streamId = 0;      ///< run seed label for the export
};

/// The per-network span pipeline. Every emission lands in the thread-local
/// flight-recorder ring (always, at ring-write cost); sampled emissions are
/// additionally retained when `retainSpans` is on. Emission never draws RNG
/// and never writes output, so a run with tracing off is byte-identical to
/// one on a build without the tracer.
class PacketTracer {
 public:
  explicit PacketTracer(PacketTraceOptions options = {});

  void emitSpan(TraceSpanKind kind, std::int64_t timeUs, std::uint64_t uid,
                std::uint32_t node, std::uint32_t peer = kTraceNoPeer,
                TraceDropReason reason = TraceDropReason::kNone,
                std::uint32_t info = 0, std::uint32_t bytes = 0);

  bool retaining() const { return options_.retainSpans; }
  std::size_t retained() const { return log_.spans.size(); }
  const PacketTraceLog& log() const { return log_; }

 private:
  PacketTraceOptions options_;
  PacketTraceLog log_;
};

/// Fixed-size ring of the most recent spans on this thread — the crash
/// flight recorder. Always on: every PacketTracer emission lands here at
/// the cost of one array write, so a dump after an invariant failure or a
/// fatal signal shows what the simulation was doing just before it died.
class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 1024;

  /// The calling thread's recorder (each repeat-mode worker has its own).
  static FlightRecorder& current();

  void push(const PacketSpan& span) {
    ring_[head_] = span;
    head_ = (head_ + 1) % kCapacity;
    if (size_ < kCapacity) ++size_;
  }
  std::size_t size() const { return size_; }
  void clear() {
    head_ = 0;
    size_ = 0;
  }
  /// Oldest-first copy of the ring contents.
  std::vector<PacketSpan> snapshot() const;

  /// Serialises the ring (oldest first) with a header line naming `reason`,
  /// in the same JSONL-per-span shape as PacketTraceLog.
  std::string dump(const std::string& reason) const;

 private:
  FlightRecorder() = default;
  PacketSpan ring_[kCapacity];
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Arms crash dumps: on WMSN_INVARIANT failure (util/require.hpp hook) or a
/// fatal signal (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL), the calling thread's
/// flight-recorder ring is written to `path` before the error propagates.
/// An empty path disarms the hooks. Process-global.
void setFlightRecorderPath(const std::string& path);
std::string flightRecorderPath();

/// Writes the calling thread's ring to the armed path immediately (used by
/// the campaign worker's injected-crash path, which exits without raising a
/// signal). No-op when no path is armed; returns whether a file was written.
bool dumpFlightRecorder(const std::string& reason);

}  // namespace wmsn::obs

/// The sanctioned hot-path emission point. Call sites guard packet kind /
/// uid themselves; the macro only guards the tracer pointer so untraced
/// builds pay a single branch. wmsn_analyze.py (R6-macro-discipline) bans
/// direct emitSpan calls outside src/obs/ — every emission in net/
/// and routing/ must go through this macro so sampling stays centralised.
#define WMSN_TRACE(tracer, ...)                         \
  do {                                                  \
    auto* wmsnTracer = (tracer);                        \
    if (wmsnTracer != nullptr) wmsnTracer->emitSpan(__VA_ARGS__); \
  } while (false)
