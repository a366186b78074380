#include "mesh/mesh_topology.hpp"

#include <cmath>
#include <deque>

#include "util/require.hpp"

namespace wmsn::mesh {

std::string toString(MeshNodeKind kind) {
  switch (kind) {
    case MeshNodeKind::kWmg: return "WMG";
    case MeshNodeKind::kWmr: return "WMR";
    case MeshNodeKind::kBaseStation: return "BASE";
  }
  return "?";
}

std::vector<MeshNodeId> MeshTopology::idsOf(MeshNodeKind kind) const {
  std::vector<MeshNodeId> out;
  for (MeshNodeId i = 0; i < nodes.size(); ++i)
    if (nodes[i].kind == kind) out.push_back(i);
  return out;
}

bool MeshTopology::linked(MeshNodeId a, MeshNodeId b) const {
  WMSN_REQUIRE(a < nodes.size() && b < nodes.size());
  if (a == b) return false;
  // The mesh tier's link predicate, as RadioModel::linked is the sensor
  // tier's. wmsn-lint: allow(rangescan-discipline)
  return net::distanceSq(nodes[a].position, nodes[b].position) <=
         linkRange * linkRange;
}

bool MeshTopology::connected() const {
  if (nodes.empty()) return true;
  const auto bases = idsOf(MeshNodeKind::kBaseStation);
  if (bases.empty()) return false;
  std::vector<bool> reached(nodes.size(), false);
  std::deque<MeshNodeId> frontier(bases.begin(), bases.end());
  for (MeshNodeId b : bases) reached[b] = true;
  while (!frontier.empty()) {
    const MeshNodeId cur = frontier.front();
    frontier.pop_front();
    for (MeshNodeId i = 0; i < nodes.size(); ++i) {
      if (!reached[i] && linked(cur, i)) {
        reached[i] = true;
        frontier.push_back(i);
      }
    }
  }
  for (MeshNodeId i = 0; i < nodes.size(); ++i)
    if (nodes[i].kind == MeshNodeKind::kWmg && !reached[i]) return false;
  return true;
}

MeshTopology makeMeshTopology(const MeshTopologyParams& params,
                              const std::vector<net::Point>& wmgPositions,
                              Rng& rng) {
  for (std::size_t attempt = 0; attempt < params.maxAttempts; ++attempt) {
    MeshTopology topo;
    topo.linkRange = params.linkRange;

    for (const net::Point& p : wmgPositions)
      topo.nodes.push_back(MeshNodeSpec{p, MeshNodeKind::kWmg});

    // WMRs on a jittered grid forming the backbone.
    const auto cols = static_cast<std::size_t>(std::ceil(
        std::sqrt(static_cast<double>(params.wmrCount))));
    const std::size_t rows =
        cols == 0 ? 0 : (params.wmrCount + cols - 1) / cols;
    for (std::size_t i = 0; i < params.wmrCount; ++i) {
      const double cx = (static_cast<double>(i % cols) + 0.5) * params.width /
                        static_cast<double>(cols);
      const double cy = (static_cast<double>(i / cols) + 0.5) * params.height /
                        static_cast<double>(rows);
      topo.nodes.push_back(MeshNodeSpec{
          net::Point{cx + rng.uniform(-0.1, 0.1) * params.width,
                     cy + rng.uniform(-0.1, 0.1) * params.height},
          MeshNodeKind::kWmr});
    }

    // Base stations along the top edge.
    for (std::size_t b = 0; b < params.baseStationCount; ++b) {
      const double x = (static_cast<double>(b) + 0.5) * params.width /
                       static_cast<double>(params.baseStationCount);
      topo.nodes.push_back(MeshNodeSpec{net::Point{x, params.height},
                                        MeshNodeKind::kBaseStation});
    }

    if (topo.connected()) return topo;
  }
  throw PreconditionError(
      "could not generate a connected mesh topology; widen linkRange or add "
      "WMRs");
}

}  // namespace wmsn::mesh
