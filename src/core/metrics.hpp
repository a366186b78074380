#pragma once

#include "net/sensor_network.hpp"

namespace wmsn::core {

/// Per-network energy accounting in the paper's terms: total ΣEᵢ (eq. 2) and
/// the balance variance D² (eq. 1) over sensor nodes.
struct EnergySummary {
  double totalJ = 0.0;       ///< ΣEᵢ over sensors
  double meanJ = 0.0;        ///< E̅
  double varianceD2 = 0.0;   ///< D² = Σ(Eᵢ − E̅)² (the paper's eq. 1)
  double stddevJ = 0.0;
  double minJ = 0.0;
  double maxJ = 0.0;
  double jainFairness = 1.0; ///< 1.0 = perfectly balanced
  double txJ = 0.0;
  double rxJ = 0.0;
  double cpuJ = 0.0;
};

/// Scans consumed energy of all SENSOR nodes (gateways are excluded, per the
/// paper's unrestricted-gateway assumption).
EnergySummary summarizeSensorEnergy(const net::SensorNetwork& network);

/// Gateway-side consumption (tracked even on infinite batteries) — used by
/// the SECOVH experiment to show SecMLR shifting crypto cost onto gateways.
EnergySummary summarizeGatewayEnergy(const net::SensorNetwork& network);

}  // namespace wmsn::core
