#include "core/viz.hpp"

#include <algorithm>

namespace wmsn::core {

SvgWriter renderTopology(const Scenario& scenario, VizOptions options) {
  const net::SensorNetwork& network = *scenario.network;
  SvgWriter svg(scenario.config.width, scenario.config.height);

  // Radio links first (underneath everything else). Served by the spatial
  // grid via neighborsOf; each undirected sensor-sensor edge is drawn once,
  // from its lower-id endpoint.
  if (options.drawLinks) {
    for (const net::NodeId s : network.sensorIds()) {
      const net::Node& a = network.node(s);
      if (!a.alive()) continue;
      for (const net::NodeId nbr : network.neighborsOf(s)) {
        if (nbr <= s || network.node(nbr).isGateway()) continue;
        const net::Node& b = network.node(nbr);
        svg.line(a.position().x, a.position().y, b.position().x,
                 b.position().y, "#cccccc", 0.4, 0.6);
      }
    }
  }

  if (options.drawPlaces) {
    for (std::size_t p = 0; p < scenario.feasiblePlaces.size(); ++p) {
      const net::Point& place = scenario.feasiblePlaces[p];
      svg.cross(place.x, place.y, 4.0, "#7a5195", 1.2);
      svg.text(place.x + 5, place.y - 5,
               std::string("P").append(std::to_string(p)), 8.0, "#7a5195");
    }
  }

  // Hottest sensor sets the heat scale.
  double maxEnergy = 0.0;
  for (net::NodeId s : network.sensorIds())
    maxEnergy = std::max(maxEnergy, network.node(s).battery().consumedJ());

  for (net::NodeId s : network.sensorIds()) {
    const net::Node& node = network.node(s);
    const net::Point& pos = node.position();
    if (!node.alive()) {
      svg.circle(pos.x, pos.y, options.nodeRadius, "none", "#999999", 0.8);
      continue;
    }
    std::string fill = "#4477aa";
    if (options.energyHeat && maxEnergy > 0.0)
      fill = SvgWriter::heatColor(node.battery().consumedJ() / maxEnergy);
    svg.circle(pos.x, pos.y, options.nodeRadius, fill, "none", 0.0,
               node.sleeping() ? 0.3 : 1.0);
  }

  for (net::NodeId g : network.gatewayIds()) {
    const net::Node& node = network.node(g);
    const net::Point& pos = node.position();
    const double half = options.nodeRadius * 1.8;
    svg.rect(pos.x - half, pos.y - half, 2 * half, 2 * half,
             node.alive() ? "#222222" : "#bbbbbb", "#ffffff", 0.8);
    svg.text(pos.x + half + 2, pos.y + 3,
             std::string("G").append(std::to_string(g)), 9.0);
  }

  if (options.drawLegend) {
    const double y = scenario.config.height + 12;
    svg.text(0, y,
             "sensors: heat = consumed energy (green cold, red hottest); "
             "hollow = dead; faded = sleeping. squares = gateways, X = "
             "feasible places",
             8.0, "#555555");
  }
  return svg;
}

void writeTopologySvg(const Scenario& scenario, const std::string& path,
                      VizOptions options) {
  renderTopology(scenario, options).writeFile(path);
}

}  // namespace wmsn::core
