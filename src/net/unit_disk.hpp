#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/geometry.hpp"

namespace wmsn::net {

/// Hop count of a point no seed reaches.
inline constexpr std::uint32_t kUnreachableHops = 0xffffffffu;

/// Breadth-first search over the unit-disk graph of `points`: two positions
/// are adjacent iff distanceSq(a, b) <= range². The `seeds` are the roots at
/// hop 0; they are positions, not members of `points`, so the points in
/// range of a seed are 1 hop. Returns every point's hop distance from the
/// nearest seed, or kUnreachableHops.
///
/// This is the one set-up graph walk — deployment connectivity, the
/// sensor-only component check and MLR's per-place hop fields all call it.
/// Neighbor candidates come from a grid of square cells of side `range`,
/// built once per call as one sorted array, so a search costs
/// O(n log n + n·k) instead of the O(n²) all-pairs scan. The
/// grid only pre-filters: the exact predicate above decides every edge,
/// the padded cell-block query returns a superset of the true neighbors,
/// and BFS levels do not depend on visit order, so the result is
/// bit-for-bit what the all-pairs BFS computes (docs/KERNEL.md "Set-up").
std::vector<std::uint32_t> unitDiskHops(const std::vector<Point>& points,
                                        const std::vector<Point>& seeds,
                                        double range);

}  // namespace wmsn::net
