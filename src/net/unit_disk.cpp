#include "net/unit_disk.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace wmsn::net {

namespace {

// Relative padding of the cell-block query radius. A pair whose computed
// dx*dx + dy*dy rounds to <= range² can be a fraction of an ulp farther
// apart than `range`, and `x - range` itself rounds; without the pad such a
// partner sitting just below a cell boundary could fall outside the queried
// block. 1e-9 exceeds those rounding errors by orders of magnitude for any
// coordinate below ~10⁶ ranges, and at most widens the block by one cell.
constexpr double kQueryPad = 1e-9;

}  // namespace

CellIndex::CellIndex(const std::vector<Point>& points, double minCellSize,
                     const std::vector<std::uint8_t>& member)
    : cellSize_(minCellSize) {
  WMSN_REQUIRE_MSG(minCellSize > 0.0, "cell size must be positive");
  WMSN_REQUIRE(member.empty() || member.size() == points.size());
  WMSN_REQUIRE(points.size() < std::numeric_limits<std::uint32_t>::max());
  const auto isMember = [&](std::size_t i) {
    return member.empty() || member[i] != 0;
  };
  double maxX = -std::numeric_limits<double>::infinity();
  double maxY = maxX;
  originX_ = originY_ = std::numeric_limits<double>::infinity();
  std::size_t count = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!isMember(i)) continue;
    const Point& p = points[i];
    WMSN_REQUIRE_MSG(std::isfinite(p.x) && std::isfinite(p.y),
                     "unit-disk points must be finite");
    originX_ = std::min(originX_, p.x);
    originY_ = std::min(originY_, p.y);
    maxX = std::max(maxX, p.x);
    maxY = std::max(maxY, p.y);
    ++count;
  }
  starts_.assign(1, 0);
  if (count == 0) return;
  const double w = maxX - originX_;
  const double h = maxY - originY_;
  const double cellBudget = 4.0 * static_cast<double>(count) + 16.0;
  while ((w / cellSize_ + 1.0) * (h / cellSize_ + 1.0) > cellBudget)
    cellSize_ *= 2.0;
  nx_ = static_cast<std::size_t>(std::floor(w / cellSize_)) + 1;
  ny_ = static_cast<std::size_t>(std::floor(h / cellSize_)) + 1;

  // Counting sort by cell; ids enter in ascending order, so each cell's
  // slice stays ascending.
  std::vector<std::uint32_t> cellOf(points.size());
  starts_.assign(nx_ * ny_ + 1, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!isMember(i)) continue;
    const auto cx = static_cast<std::size_t>(
        std::floor((points[i].x - originX_) / cellSize_));
    const auto cy = static_cast<std::size_t>(
        std::floor((points[i].y - originY_) / cellSize_));
    cellOf[i] = static_cast<std::uint32_t>(cy * nx_ + cx);
    ++starts_[cellOf[i] + 1];
  }
  for (std::size_t c = 0; c < nx_ * ny_; ++c) starts_[c + 1] += starts_[c];
  ids_.resize(count);
  std::vector<std::uint32_t> fill(starts_.begin(), starts_.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i)
    if (isMember(i)) ids_[fill[cellOf[i]]++] = static_cast<std::uint32_t>(i);
}

bool CellIndex::span(double v, double radius, double origin,
                     std::size_t cells, std::size_t& lo,
                     std::size_t& hi) const {
  // The same monotone map from coordinate to cell as the constructor's, so
  // a point inside [v - radius, v + radius] lands inside [lo, hi].
  const double first = std::floor((v - radius - origin) / cellSize_);
  const double last = std::floor((v + radius - origin) / cellSize_);
  const auto top = static_cast<double>(cells) - 1.0;
  if (cells == 0 || last < 0.0 || first > top) return false;
  lo = static_cast<std::size_t>(std::max(first, 0.0));
  hi = static_cast<std::size_t>(std::min(last, top));
  return true;
}

std::vector<std::uint32_t> unitDiskHops(const std::vector<Point>& points,
                                        const std::vector<Point>& seeds,
                                        double range) {
  WMSN_REQUIRE_MSG(range > 0.0, "unit-disk range must be positive");
  const CellIndex cells(points, range);
  const double r2 = range * range;
  const double queryRadius = range * (1.0 + kQueryPad);

  std::vector<std::uint32_t> hops(points.size(), kUnreachableHops);
  // FIFO as a vector plus a read cursor: every point enters at most once.
  std::vector<std::uint32_t> order;
  order.reserve(points.size());
  auto visitFrom = [&](const Point& at, std::uint32_t level) {
    cells.forEachCandidate(at, queryRadius, [&](std::uint32_t c) {
      if (hops[c] != kUnreachableHops) return;
      if (distanceSq(at, points[c]) <= r2) {
        hops[c] = level;
        order.push_back(c);
      }
    });
  };
  for (const Point& seed : seeds) visitFrom(seed, 1);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::uint32_t cur = order[head];
    visitFrom(points[cur], hops[cur] + 1);
  }
  return hops;
}

UnitDiskGraph::UnitDiskGraph(const std::vector<Point>& points, double range,
                             const std::vector<std::uint8_t>& member)
    : range_(range) {
  WMSN_REQUIRE_MSG(range > 0.0, "unit-disk range must be positive");
  cells_ = CellIndex(points, range, member);
  const double r2 = range * range;
  offsets_.reserve(points.size() + 1);
  offsets_.push_back(0);
  std::vector<std::uint32_t> row;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (member.empty() || member[i]) {
      const Point at = points[i];
      row.clear();
      forEachCandidate(at, [&](std::uint32_t c) {
        if (distanceSq(at, points[c]) <= r2) row.push_back(c);
      });
      std::sort(row.begin(), row.end());
      ids_.insert(ids_.end(), row.begin(), row.end());
    }
    WMSN_REQUIRE(ids_.size() < std::numeric_limits<std::uint32_t>::max());
    offsets_.push_back(static_cast<std::uint32_t>(ids_.size()));
  }
}

double UnitDiskGraph::queryRadius() const {
  return range_ * (1.0 + kQueryPad);
}

bool UnitDiskGraph::connected() const {
  std::vector<std::uint8_t> reached(size(), 0);
  std::vector<std::uint32_t> order;
  for (std::uint32_t id = 0; id < size() && order.empty(); ++id)
    if (!row(id).empty()) {
      reached[id] = 1;
      order.push_back(id);
    }
  // FIFO as a vector plus a read cursor, as in unitDiskHops.
  for (std::size_t head = 0; head < order.size(); ++head)
    for (const std::uint32_t next : row(order[head]))
      if (!reached[next]) {
        reached[next] = 1;
        order.push_back(next);
      }
  std::size_t members = 0;
  for (std::uint32_t id = 0; id < size(); ++id)
    if (!row(id).empty()) ++members;
  return order.size() == members;
}

}  // namespace wmsn::net
