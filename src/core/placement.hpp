#pragma once

#include <cstdint>
#include <vector>

#include "net/geometry.hpp"
#include "net/unit_disk.hpp"

namespace wmsn::core {

/// §4.1's two deployment-model questions, answered computationally:
///
///  * "how many gateways should be deployed" — estimateGatewayCount finds
///    the K_max-style knee: the smallest m beyond which adding a gateway no
///    longer shrinks the total hop cost meaningfully (the paper cites
///    [34]'s result that k > K_max stops improving lifetime);
///  * "where the gateways should be deployed" — planGatewayPlaces picks m
///    of the |P| feasible places greedily so the sum of min-hop distances
///    over all sensors is minimised ("minimizing the total energy
///    consumption of the sensor network"). Greedy selection on this
///    monotone objective is the classic k-median heuristic.

/// Hop distance from every sensor to a prospective gateway at `place`,
/// computed by net::unitDiskHops over the sensors rooted at the place
/// (gateways are sinks, not relays). Unreachable sensors get kUnreachableHops.
inline constexpr std::uint32_t kUnreachableHops = net::kUnreachableHops;
std::vector<std::uint32_t> hopField(const std::vector<net::Point>& sensors,
                                    const net::Point& place,
                                    double radioRange);

/// Greedily selects `m` place ordinals minimising Σ_sensors min-hop to the
/// chosen set. Requires m <= places.size().
std::vector<std::size_t> planGatewayPlaces(
    const std::vector<net::Point>& sensors,
    const std::vector<net::Point>& places, std::size_t m, double radioRange);

/// Total hop cost Σ_sensors min-hop for a given selection (the objective
/// the planner minimises); kUnreachableHops-capped terms count as a large
/// penalty so disconnected selections always lose.
double totalHopCost(const std::vector<net::Point>& sensors,
                    const std::vector<net::Point>& places,
                    const std::vector<std::size_t>& selection,
                    double radioRange);

/// K_max estimate: the smallest m where adding one more gateway improves
/// the greedy total hop cost by less than `kneeFraction` (relative).
std::size_t estimateGatewayCount(const std::vector<net::Point>& sensors,
                                 const std::vector<net::Point>& places,
                                 double radioRange,
                                 double kneeFraction = 0.08);

}  // namespace wmsn::core
