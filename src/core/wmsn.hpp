#pragma once

/// Umbrella header — the library's public API in one include.
///
/// Quick tour:
///   core::ScenarioConfig cfg;            // describe the network
///   cfg.protocol = core::ProtocolKind::kMlr;
///   auto scenario = core::buildScenario(cfg);
///   core::Experiment exp(*scenario);
///   core::RunResult result = exp.run();  // PDR, hops, energy, lifetime, …
///
/// Lower layers are directly usable too: sim::Simulator (discrete events),
/// net::SensorNetwork (radio/energy substrate), routing::* (the protocols),
/// crypto::* (SHA-256 / HMAC / Speck / TESLA), mesh::* (the backhaul tier),
/// attacks::* (adversary models), obs::* (metrics / time series / traces /
/// profiler — opt in via ScenarioConfig::obs).

#include "core/builder.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/observability.hpp"
#include "core/placement.hpp"
#include "core/topology_control.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "core/viz.hpp"
#include "mesh/wmsn_stack.hpp"
#include "obs/metrics.hpp"
#include "obs/mux.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "workload/workload.hpp"
