#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/geometry.hpp"

namespace wmsn::net {

/// Hop count of a point no seed reaches.
inline constexpr std::uint32_t kUnreachableHops = 0xffffffffu;

/// The one spatial index: a dense grid of square cells over the points'
/// bounding box, row-major, with each cell's ids stored contiguously and
/// ascending (a counting sort). A row's cells x0..x1 are then one contiguous
/// id range, so a block query is three range walks and no search. Cells are
/// `minCellSize` wide, doubled until there are at most ~4 cells per point,
/// so a scattered layout cannot blow up the table. Static: points never
/// move once indexed.
class CellIndex {
 public:
  CellIndex() = default;
  /// Indexes points[i] under id i, skipping every i with member[i] == 0
  /// (an empty `member` indexes all points). Points must be finite.
  CellIndex(const std::vector<Point>& points, double minCellSize,
            const std::vector<std::uint8_t>& member = {});

  /// Calls fn(id) for every indexed point whose cell intersects the
  /// bounding square of the disk at `at` with `radius` — a superset of the
  /// points in the disk, in cell order, not id order.
  template <typename Fn>
  void forEachCandidate(const Point& at, double radius, Fn&& fn) const {
    std::size_t x0, x1, y0, y1;
    if (!span(at.x, radius, originX_, nx_, x0, x1) ||
        !span(at.y, radius, originY_, ny_, y0, y1))
      return;
    for (std::size_t y = y0; y <= y1; ++y)
      for (std::uint32_t i = starts_[y * nx_ + x0];
           i < starts_[y * nx_ + x1 + 1]; ++i)
        fn(ids_[i]);
  }

 private:
  /// Cells [lo, hi] of one axis that [v - radius, v + radius] touches,
  /// clamped to the grid; false if it misses the grid.
  bool span(double v, double radius, double origin, std::size_t cells,
            std::size_t& lo, std::size_t& hi) const;

  double cellSize_ = 1.0;
  double originX_ = 0.0;
  double originY_ = 0.0;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<std::uint32_t> starts_;  ///< nx·ny + 1 offsets into ids_
  std::vector<std::uint32_t> ids_;     ///< ids grouped by cell, ascending
};

/// Breadth-first search over the unit-disk graph of `points`: two positions
/// are adjacent iff distanceSq(a, b) <= range². The `seeds` are the roots at
/// hop 0; they are positions, not members of `points`, so the points in
/// range of a seed are 1 hop. Returns every point's hop distance from the
/// nearest seed, or kUnreachableHops.
///
/// Deployment connectivity and MLR's per-place hop fields call it. Neighbor
/// candidates come from a CellIndex of side `range`, so a search costs
/// O(n·k) instead of the O(n²) all-pairs scan. The index only
/// pre-filters: the exact predicate above decides every edge, the padded
/// cell-block query returns a superset of the true neighbors, and BFS
/// levels do not depend on visit order, so the result is bit-for-bit what
/// the all-pairs BFS computes (docs/KERNEL.md "Set-up").
std::vector<std::uint32_t> unitDiskHops(const std::vector<Point>& points,
                                        const std::vector<Point>& seeds,
                                        double range);

/// The exact unit-disk graph of a static point set, as a CSR array: row i
/// lists, ascending, every member j with distanceSq(points[i], points[j])
/// <= range² — i itself included. Non-members have empty rows, and so does
/// every id at or past size(). Built once per layout from the padded
/// CellIndex, which it keeps for later disk queries (docs/KERNEL.md
/// "Static adjacency").
class UnitDiskGraph {
 public:
  UnitDiskGraph() = default;
  /// `member` as for CellIndex: an empty vector makes every point a member.
  UnitDiskGraph(const std::vector<Point>& points, double range,
                const std::vector<std::uint8_t>& member = {});

  /// Number of ids the graph was built over (members or not).
  std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  double range() const { return range_; }
  std::span<const std::uint32_t> row(std::uint32_t id) const {
    if (id >= size()) return {};
    return {ids_.data() + offsets_[id], ids_.data() + offsets_[id + 1]};
  }
  /// True if the members form one component (a BFS from the first member
  /// reaches them all). Vacuously true with fewer than two members.
  bool connected() const;

  /// Calls fn(id) for every member whose cell intersects the padded
  /// bounding square of the range disk at `at` — a superset of the members
  /// in range, in cell order. Callers apply the exact predicate.
  template <typename Fn>
  void forEachCandidate(const Point& at, Fn&& fn) const {
    cells_.forEachCandidate(at, queryRadius(), fn);
  }

 private:
  double queryRadius() const;

  double range_ = 0.0;
  CellIndex cells_;
  std::vector<std::uint32_t> offsets_;  ///< size() + 1 row starts into ids_
  std::vector<std::uint32_t> ids_;
};

}  // namespace wmsn::net
