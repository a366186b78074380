#include "routing/teen.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace wmsn::routing {

TeenRouting::TeenRouting(net::SensorNetwork& network, net::NodeId self,
                         const NetworkKnowledge& knowledge,
                         TeenParams teenParams, LeachParams leachParams)
    : LeachRouting(network, self, knowledge, leachParams),
      teen_(teenParams),
      value_(teenParams.valueStart) {
  WMSN_REQUIRE(teen_.valueMin < teen_.valueMax);
  WMSN_REQUIRE(teen_.softThreshold >= 0.0);
}

bool TeenRouting::shouldReport() const {
  if (value_ < teen_.hardThreshold) return false;
  return std::abs(value_ - lastReported_) >= teen_.softThreshold;
}

void TeenRouting::originate(Bytes appPayload) {
  if (isGateway()) return;
  ++sensingEvents_;
  // One sensing event: step the bounded random walk.
  value_ = std::clamp(value_ + rng().normal(0.0, teen_.stepSigma),
                      teen_.valueMin, teen_.valueMax);
  if (!shouldReport()) return;  // unremarkable reading — radio stays off

  lastReported_ = value_;
  ++reportsSent_;
  // Encode the actual value into the reading (the first 8 bytes). The
  // reading is application payload, not a routing header: DataMsg carries
  // it as opaque bytes.
  Bytes reading = std::move(appPayload);
  if (reading.size() < 8) reading.resize(8);
  ByteWriter w;  // wmsn-lint: allow(wire-codec-discipline)
  w.f64(value_);
  std::copy(w.data().begin(), w.data().end(), reading.begin());
  LeachRouting::originate(std::move(reading));
}

}  // namespace wmsn::routing
