#pragma once

#include <map>
#include <string>
#include <vector>

#include "campaign/record.hpp"
#include "campaign/spec.hpp"

namespace wmsn::campaign {

/// Renders the campaign JSON artifact (schema "wmsn-campaign-v1", see
/// docs/METRICS.md). `records` must hold one RunRecord per planned run.
///
/// Determinism contract: output is a pure function of (spec, plan, records)
/// — iteration follows plan expansion order, numbers go through jsonNumber,
/// and nothing scheduling-dependent (worker count, completion order, steal
/// counts, timestamps) appears. This is what makes the artifact
/// byte-identical across --workers 1/4/16 and across kill + --resume.
std::string renderArtifact(const CampaignSpec& spec,
                           const std::vector<PlannedRun>& plan,
                           const std::map<std::string, RunRecord>& records);

/// The per-cell table runCampaign prints: one row per cell in plan order with
/// its ok and failed run counts and, to three decimals, the mean over its ok
/// runs of each `cells` metric of the artifact, plus each perf field when any
/// run captured perf ("-" where a cell has no such runs).
std::string renderCellTable(const std::vector<PlannedRun>& plan,
                            const std::map<std::string, RunRecord>& records);

}  // namespace wmsn::campaign
