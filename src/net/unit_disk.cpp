#include "net/unit_disk.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

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

// Cell coordinates are offset by 2^31 so that negative ones stay positive,
// then packed two to a 64-bit key: cx in the high half, cy in the low half.
constexpr double kBias = 2147483648.0;  // 2^31

/// Static cell index: (cell key, point id) pairs sorted once. With cy in
/// the low half of the key, one column's cells cy0..cy1 are one contiguous
/// key range, so a block query is one binary search per column.
class CellIndex {
 public:
  CellIndex(const std::vector<Point>& points, double cellSize)
      : cellSize_(cellSize) {
    entries_.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
      entries_.emplace_back(key(coord(points[i].x), coord(points[i].y)),
                            static_cast<std::uint32_t>(i));
    std::sort(entries_.begin(), entries_.end());
  }

  /// Calls fn(id) for every point whose cell intersects the bounding square
  /// of the disk at `at` with `radius` — a superset of the points in it.
  template <typename Fn>
  void forEachCandidate(const Point& at, double radius, Fn&& fn) const {
    const std::uint64_t y0 = coord(at.y - radius);
    const std::uint64_t y1 = coord(at.y + radius);
    const std::uint64_t x1 = coord(at.x + radius);
    for (std::uint64_t x = coord(at.x - radius); x <= x1; ++x) {
      const std::uint64_t last = key(x, y1);
      for (auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                      Entry{key(x, y0), 0});
           it != entries_.end() && it->first <= last; ++it)
        fn(it->second);
    }
  }

 private:
  using Entry = std::pair<std::uint64_t, std::uint32_t>;

  /// Biased cell coordinate of `v`, in [1, 2^32).
  std::uint64_t coord(double v) const {
    const double c = std::floor(v / cellSize_) + kBias;
    WMSN_REQUIRE_MSG(c >= 1.0 && c < 2.0 * kBias,
                     "point outside the unit-disk cell range");
    return static_cast<std::uint64_t>(c);
  }
  static std::uint64_t key(std::uint64_t x, std::uint64_t y) {
    return (x << 32) | y;
  }

  double cellSize_;
  std::vector<Entry> entries_;
};

}  // namespace

std::vector<std::uint32_t> unitDiskHops(const std::vector<Point>& points,
                                        const std::vector<Point>& seeds,
                                        double range) {
  WMSN_REQUIRE_MSG(range > 0.0, "unit-disk range must be positive");
  WMSN_REQUIRE(points.size() < std::numeric_limits<std::uint32_t>::max());
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

}  // namespace wmsn::net
