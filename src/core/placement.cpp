#include "core/placement.hpp"

#include <algorithm>
#include <limits>

#include "net/unit_disk.hpp"
#include "util/require.hpp"

namespace wmsn::core {

std::vector<std::uint32_t> hopField(const std::vector<net::Point>& sensors,
                                    const net::Point& place,
                                    double radioRange) {
  return net::unitDiskHops(sensors, {place}, radioRange);
}

namespace {

double costOfMinField(const std::vector<std::uint32_t>& minField) {
  // Unreachable sensors dominate the objective so the planner always
  // prefers coverage over shaving hops.
  constexpr double kPenalty = 1e6;
  double cost = 0.0;
  for (std::uint32_t h : minField)
    cost += (h == kUnreachableHops) ? kPenalty : static_cast<double>(h);
  return cost;
}

}  // namespace

std::vector<std::size_t> planGatewayPlaces(
    const std::vector<net::Point>& sensors,
    const std::vector<net::Point>& places, std::size_t m,
    double radioRange) {
  WMSN_REQUIRE(m >= 1 && m <= places.size());

  // Precompute the hop field of every candidate place once.
  std::vector<std::vector<std::uint32_t>> fields;
  fields.reserve(places.size());
  for (const net::Point& p : places)
    fields.push_back(hopField(sensors, p, radioRange));

  std::vector<std::size_t> chosen;
  std::vector<std::uint32_t> minField(sensors.size(), kUnreachableHops);

  for (std::size_t pick = 0; pick < m; ++pick) {
    double bestCost = std::numeric_limits<double>::max();
    std::size_t bestPlace = places.size();
    for (std::size_t p = 0; p < places.size(); ++p) {
      if (std::find(chosen.begin(), chosen.end(), p) != chosen.end())
        continue;
      std::vector<std::uint32_t> candidate(minField);
      for (std::size_t s = 0; s < sensors.size(); ++s)
        candidate[s] = std::min(candidate[s], fields[p][s]);
      const double cost = costOfMinField(candidate);
      if (cost < bestCost) {
        bestCost = cost;
        bestPlace = p;
      }
    }
    WMSN_REQUIRE(bestPlace < places.size());
    chosen.push_back(bestPlace);
    for (std::size_t s = 0; s < sensors.size(); ++s)
      minField[s] = std::min(minField[s], fields[bestPlace][s]);
  }
  return chosen;
}

double totalHopCost(const std::vector<net::Point>& sensors,
                    const std::vector<net::Point>& places,
                    const std::vector<std::size_t>& selection,
                    double radioRange) {
  std::vector<std::uint32_t> minField(sensors.size(), kUnreachableHops);
  for (std::size_t p : selection) {
    WMSN_REQUIRE(p < places.size());
    const auto field = hopField(sensors, places[p], radioRange);
    for (std::size_t s = 0; s < sensors.size(); ++s)
      minField[s] = std::min(minField[s], field[s]);
  }
  return costOfMinField(minField);
}

std::size_t estimateGatewayCount(const std::vector<net::Point>& sensors,
                                 const std::vector<net::Point>& places,
                                 double radioRange, double kneeFraction) {
  WMSN_REQUIRE(!places.empty());
  double prevCost = std::numeric_limits<double>::max();
  for (std::size_t m = 1; m <= places.size(); ++m) {
    const auto selection =
        planGatewayPlaces(sensors, places, m, radioRange);
    const double cost = totalHopCost(sensors, places, selection, radioRange);
    if (m > 1 && prevCost > 0.0 &&
        (prevCost - cost) / prevCost < kneeFraction)
      return m - 1;  // the previous m was already within the knee
    prevCost = cost;
  }
  return places.size();
}

}  // namespace wmsn::core
