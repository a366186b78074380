// Set-up graph walks (docs/KERNEL.md "Set-up"): net::unitDiskHops, and the
// three callers built on it — net::isConnected, net::sensorsConnected and
// core::hopField — checked against the all-pairs O(n²) BFS they replaced;
// and net::UnitDiskGraph, the static sensor adjacency the medium walks
// (docs/KERNEL.md "Static adjacency"), checked row by row against an
// all-pairs scan. The brute-force oracles below live here only; the
// equivalence they pin is bit-for-bit (same booleans, same hop vectors,
// same rows, same planner selections).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "core/placement.hpp"
#include "net/deployment.hpp"
#include "net/unit_disk.hpp"
#include "util/random.hpp"

namespace wmsn {
namespace {

using net::Point;

// --- brute-force oracles (the pre-grid algorithms) ---------------------------

/// The pre-grid connectivity walk: an all-pairs BFS over `points` from the
/// seed indices, which are members of the set at 0 hops.
std::vector<std::uint32_t> bruteIndexHops(const std::vector<Point>& points,
                                          const std::vector<std::size_t>& seeds,
                                          double range) {
  const double r2 = range * range;
  std::vector<std::uint32_t> hops(points.size(), net::kUnreachableHops);
  std::deque<std::size_t> frontier;
  for (std::size_t s : seeds) {
    if (hops[s] != net::kUnreachableHops) continue;
    hops[s] = 0;
    frontier.push_back(s);
  }
  while (!frontier.empty()) {
    const std::size_t cur = frontier.front();
    frontier.pop_front();
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (hops[i] != net::kUnreachableHops) continue;
      if (net::distanceSq(points[cur], points[i]) <= r2) {
        hops[i] = hops[cur] + 1;
        frontier.push_back(i);
      }
    }
  }
  return hops;
}

bool bruteIsConnected(const net::Deployment& d, double range) {
  const std::size_t s = d.sensors.size();
  if (s == 0) return true;
  std::vector<Point> points(d.sensors);
  points.insert(points.end(), d.gateways.begin(), d.gateways.end());
  std::vector<std::size_t> seeds;
  for (std::size_t g = s; g < points.size(); ++g) seeds.push_back(g);
  const auto hops = bruteIndexHops(points, seeds, range);
  for (std::size_t i = 0; i < s; ++i)
    if (hops[i] == net::kUnreachableHops) return false;
  return true;
}

bool bruteSensorsConnected(const std::vector<Point>& sensors, double range) {
  if (sensors.size() <= 1) return true;
  const auto hops = bruteIndexHops(sensors, {0}, range);
  return std::count(hops.begin(), hops.end(), net::kUnreachableHops) == 0;
}

/// The pre-grid core::hopField, generalised from one place to any seed
/// positions: points in range of a seed are 1 hop, then an all-pairs BFS
/// over the points only. With one seed it is the old hopField verbatim.
std::vector<std::uint32_t> bruteHops(const std::vector<Point>& points,
                                     const std::vector<Point>& seeds,
                                     double range) {
  const double r2 = range * range;
  std::vector<std::uint32_t> dist(points.size(), net::kUnreachableHops);
  std::deque<std::size_t> frontier;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (const Point& seed : seeds) {
      if (net::distanceSq(points[i], seed) <= r2) {
        dist[i] = 1;
        frontier.push_back(i);
        break;
      }
    }
  }
  while (!frontier.empty()) {
    const std::size_t cur = frontier.front();
    frontier.pop_front();
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (dist[j] != net::kUnreachableHops) continue;
      if (net::distanceSq(points[cur], points[j]) <= r2) {
        dist[j] = dist[cur] + 1;
        frontier.push_back(j);
      }
    }
  }
  return dist;
}

/// The all-pairs adjacency: row i lists ascending every member j (i itself
/// included) with distanceSq <= range²; non-members get empty rows.
std::vector<std::vector<std::uint32_t>> bruteRows(
    const std::vector<Point>& points, double range,
    const std::vector<std::uint8_t>& member = {}) {
  const auto isMember = [&](std::size_t i) {
    return member.empty() || member[i] != 0;
  };
  std::vector<std::vector<std::uint32_t>> rows(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!isMember(i)) continue;
    for (std::size_t j = 0; j < points.size(); ++j)
      if (isMember(j) && net::distanceSq(points[i], points[j]) <= range * range)
        rows[i].push_back(static_cast<std::uint32_t>(j));
  }
  return rows;
}

std::vector<std::vector<std::uint32_t>> graphRows(const net::UnitDiskGraph& g) {
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::uint32_t i = 0; i < g.size(); ++i)
    rows.emplace_back(g.row(i).begin(), g.row(i).end());
  return rows;
}

/// The greedy planner over oracle hop fields, one per place (same
/// objective, same tie-breaking: first place with strictly lower cost wins).
std::vector<std::size_t> brutePlan(
    const std::vector<std::vector<std::uint32_t>>& fields, std::size_t m) {
  const std::size_t sensorCount = fields.front().size();
  auto cost = [](const std::vector<std::uint32_t>& field) {
    double c = 0.0;
    for (std::uint32_t h : field)
      c += (h == core::kUnreachableHops) ? 1e6 : static_cast<double>(h);
    return c;
  };
  std::vector<std::size_t> chosen;
  std::vector<std::uint32_t> minField(sensorCount, core::kUnreachableHops);
  for (std::size_t pick = 0; pick < m; ++pick) {
    double best = std::numeric_limits<double>::max();
    std::size_t bestPlace = fields.size();
    for (std::size_t p = 0; p < fields.size(); ++p) {
      if (std::find(chosen.begin(), chosen.end(), p) != chosen.end())
        continue;
      std::vector<std::uint32_t> candidate(minField);
      for (std::size_t s = 0; s < sensorCount; ++s)
        candidate[s] = std::min(candidate[s], fields[p][s]);
      const double c = cost(candidate);
      if (c < best) {
        best = c;
        bestPlace = p;
      }
    }
    chosen.push_back(bestPlace);
    for (std::size_t s = 0; s < sensorCount; ++s)
      minField[s] = std::min(minField[s], fields[bestPlace][s]);
  }
  return chosen;
}

// --- layouts -----------------------------------------------------------------

enum class Layout { kUniform, kGrid, kClustered };

/// Raw sensor layouts, not retried for connectivity, so small ranges give
/// partitioned graphs. Clustered points clamp onto the area's edges, which
/// puts some exactly at coordinates 0 and `width`. wmsn:fixed-draws — the
/// switch is on the caller's fixed layout parameter.
std::vector<Point> makeSensors(Layout layout, std::size_t n, double width,
                               Rng& rng) {
  std::vector<Point> out;
  switch (layout) {
    case Layout::kUniform:
      for (std::size_t i = 0; i < n; ++i)
        out.push_back({rng.uniform(0.0, width), rng.uniform(0.0, width)});
      break;
    case Layout::kGrid: {
      const auto cols = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
      const double pitch = width / static_cast<double>(cols);
      for (std::size_t i = 0; i < n; ++i)
        out.push_back(
            {(static_cast<double>(i % cols) + 0.5) * pitch +
                 rng.uniform(-0.05, 0.05) * pitch,
             (static_cast<double>(i / cols) + 0.5) * pitch +
                 rng.uniform(-0.05, 0.05) * pitch});
      break;
    }
    case Layout::kClustered: {
      std::vector<Point> centres;
      for (int c = 0; c < 4; ++c)
        centres.push_back({rng.uniform(0.0, width), rng.uniform(0.0, width)});
      for (std::size_t i = 0; i < n; ++i) {
        const Point& c = centres[i % centres.size()];
        out.push_back({std::clamp(rng.normal(c.x, width / 6), 0.0, width),
                       std::clamp(rng.normal(c.y, width / 6), 0.0, width)});
      }
      break;
    }
  }
  return out;
}

std::vector<Point> randomPoints(std::size_t n, double width, Rng& rng) {
  std::vector<Point> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back({rng.uniform(0.0, width), rng.uniform(0.0, width)});
  return out;
}

// --- equivalence over random layouts -----------------------------------------

TEST(SetupEquivalence, MatchesAllPairsBfsOnRandomLayouts) {
  constexpr double kWidth = 200.0;
  int connected = 0;
  int partitioned = 0;
  for (Layout layout : {Layout::kUniform, Layout::kGrid, Layout::kClustered}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed * 7919 + static_cast<std::uint64_t>(layout));
      net::Deployment d;
      d.width = d.height = kWidth;
      d.sensors = makeSensors(layout, 160, kWidth, rng);
      d.gateways = randomPoints(3, kWidth, rng);
      const auto places = randomPoints(5, kWidth, rng);
      for (double range : {10.0, 18.0, 25.0, 40.0}) {
        SCOPED_TRACE(testing::Message() << "layout " << static_cast<int>(layout)
                                        << " seed " << seed << " range "
                                        << range);
        const bool reach = net::isConnected(d, range);
        ASSERT_EQ(reach, bruteIsConnected(d, range));
        const bool sensors = net::sensorsConnected(d.sensors, range);
        ASSERT_EQ(sensors, bruteSensorsConnected(d.sensors, range));
        (reach && sensors ? connected : partitioned) += 1;

        std::vector<std::vector<std::uint32_t>> fields;
        for (const Point& p : places) {
          fields.push_back(bruteHops(d.sensors, {p}, range));
          ASSERT_EQ(core::hopField(d.sensors, p, range), fields.back());
        }
        for (std::size_t m = 1; m <= 3; ++m)
          ASSERT_EQ(core::planGatewayPlaces(d.sensors, places, m, range),
                    brutePlan(fields, m));
        ASSERT_EQ(net::unitDiskHops(d.sensors, d.gateways, range),
                  bruteHops(d.sensors, d.gateways, range));
      }
    }
  }
  // Both outcomes must be exercised, or the comparison proves little.
  EXPECT_GT(connected, 20);
  EXPECT_GT(partitioned, 20);
}

TEST(SetupEquivalence, GeneratedDeploymentsMatchOracle) {
  // The retrying generators consult isConnected on every attempt; the same
  // booleans mean the same RNG draws and the same accepted layout.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    net::DeploymentParams p;
    p.sensorCount = 120;
    const net::Deployment uniform = net::uniformDeployment(p, rng);
    const net::Deployment grid = net::gridDeployment(p, rng);
    p.radioRange = 45.0;
    const net::Deployment clustered = net::clusteredDeployment(p, 4, rng);
    EXPECT_TRUE(bruteIsConnected(uniform, 30.0));
    EXPECT_TRUE(bruteIsConnected(grid, 30.0));
    EXPECT_TRUE(bruteIsConnected(clustered, 45.0));
    EXPECT_EQ(net::sensorsConnected(uniform.sensors, 30.0),
              bruteSensorsConnected(uniform.sensors, 30.0));
    EXPECT_EQ(net::sensorsConnected(clustered.sensors, 45.0),
              bruteSensorsConnected(clustered.sensors, 45.0));
  }
}

TEST(UnitDiskGraph, RowsMatchBruteForceOnRandomLayouts) {
  constexpr double kWidth = 200.0;
  int connected = 0;
  int partitioned = 0;
  for (Layout layout : {Layout::kUniform, Layout::kGrid, Layout::kClustered}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Rng rng(seed * 104729 + static_cast<std::uint64_t>(layout));
      const auto sensors = makeSensors(layout, 160, kWidth, rng);
      // Every third point a non-member, as gateways are in a network's
      // lazily built graph.
      std::vector<std::uint8_t> member(sensors.size(), 1);
      for (std::size_t i = 0; i < member.size(); i += 3) member[i] = 0;
      for (double range : {10.0, 18.0, 25.0, 40.0}) {
        SCOPED_TRACE(testing::Message() << "layout " << static_cast<int>(layout)
                                        << " seed " << seed << " range "
                                        << range);
        const net::UnitDiskGraph graph(sensors, range);
        ASSERT_EQ(graph.size(), sensors.size());
        ASSERT_EQ(graphRows(graph), bruteRows(sensors, range));
        ASSERT_EQ(graph.connected(), bruteSensorsConnected(sensors, range));
        (graph.connected() ? connected : partitioned) += 1;
        const net::UnitDiskGraph some(sensors, range, member);
        ASSERT_EQ(graphRows(some), bruteRows(sensors, range, member));
        EXPECT_TRUE(graph.row(static_cast<std::uint32_t>(sensors.size()))
                        .empty());
      }
    }
  }
  EXPECT_GT(connected, 10);
  EXPECT_GT(partitioned, 10);
}

TEST(UnitDiskGraph, ExactRangeAndRoundedPairsAreLinked) {
  // The 3-4-5 pairs at exactly r = 5 straddle cell boundaries; one ulp
  // farther along x the graph must agree with the all-pairs predicate.
  const double r = 5.0;
  const std::vector<std::pair<Point, Point>> pairs = {
      {{0, 0}, {5, 0}},  {{0, 0}, {0, 5}},  {{5, 5}, {0, 5}},
      {{2, 1}, {5, 5}},  {{9, 9}, {5, 6}},  {{1, 9}, {4, 5}},
      {{4.5, 0.5}, {7.5, 4.5}},             {{-2, -1}, {1, 3}},
  };
  for (const auto& [a, b] : pairs) {
    SCOPED_TRACE(testing::Message() << "(" << a.x << "," << a.y << ")-("
                                    << b.x << "," << b.y << ")");
    const net::UnitDiskGraph graph({a, b}, r);
    EXPECT_EQ(graphRows(graph),
              (std::vector<std::vector<std::uint32_t>>{{0, 1}, {0, 1}}));
    const Point beyond{std::nextafter(b.x, b.x > a.x ? 1e9 : -1e9), b.y};
    if (b.x != a.x) {
      EXPECT_EQ(graphRows(net::UnitDiskGraph({a, beyond}, r)),
                bruteRows({a, beyond}, r));
    }
  }
  // q one ulp below the cell boundary at x = r, p at 2r: the rounded gap is
  // r, so they link, though p's unpadded block would start past q's cell.
  for (double range : {1.0, 32.0}) {
    SCOPED_TRACE(range);
    const Point q{std::nextafter(range, 0.0), 0.0};
    const Point p{2.0 * range, 0.0};
    ASSERT_LE(net::distanceSq(p, q), range * range);
    const net::UnitDiskGraph graph({p, q}, range);
    EXPECT_EQ(graphRows(graph),
              (std::vector<std::vector<std::uint32_t>>{{0, 1}, {0, 1}}));
    EXPECT_TRUE(graph.connected());
    // A query from a point off the graph (a gateway's row) sees q too.
    bool sawQ = false;
    graph.forEachCandidate(p, [&](std::uint32_t c) { sawQ |= (c == 1); });
    EXPECT_TRUE(sawQ);
  }
}

TEST(UnitDiskGraph, ConnectedCountsMembersOnly) {
  const std::vector<Point> points = {{0, 0}, {10, 0}, {100, 0}, {20, 0}};
  EXPECT_FALSE(net::UnitDiskGraph(points, 15.0).connected());
  // Without the far point the rest is one chain.
  EXPECT_TRUE(net::UnitDiskGraph(points, 15.0, {1, 1, 0, 1}).connected());
  // Without the middle point the chain breaks.
  EXPECT_FALSE(net::UnitDiskGraph(points, 15.0, {1, 0, 0, 1}).connected());
  EXPECT_TRUE(net::UnitDiskGraph({}, 15.0).connected());
  EXPECT_TRUE(net::UnitDiskGraph({{3, 3}}, 15.0).connected());
}

// --- hand-built boundary cases -----------------------------------------------

TEST(UnitDisk, PairsAtExactlyRangeStraddleCellBoundaries) {
  // r = 5 with 3-4-5 offsets: every squared distance below is exactly 25,
  // and every pair sits in different grid cells (cell size = r).
  const double r = 5.0;
  const std::vector<std::pair<Point, Point>> pairs = {
      {{0, 0}, {5, 0}},      // x axis, far point on a cell boundary
      {{0, 0}, {0, 5}},      // y axis
      {{5, 5}, {0, 5}},      // leftward, both on boundaries
      {{2, 1}, {5, 5}},      // diagonal, crosses both axes' boundaries
      {{5, 5}, {2, 1}},      // the same pair seeded from the other end
      {{9, 9}, {5, 6}},      // diagonal towards the origin
      {{1, 9}, {4, 5}},      // anti-diagonal
      {{4.5, 0.5}, {7.5, 4.5}},
      {{-2, -1}, {1, 3}},    // negative coordinates
  };
  for (const auto& [a, b] : pairs) {
    SCOPED_TRACE(testing::Message() << "(" << a.x << "," << a.y << ")-("
                                    << b.x << "," << b.y << ")");
    ASSERT_EQ(net::distanceSq(a, b), r * r);
    // As seed and point.
    EXPECT_EQ(net::unitDiskHops({b}, {a}, r), (std::vector<std::uint32_t>{1}));
    // As two points of the set, seeded half a range behind a, out of b's
    // range, so b can only be reached over the a-b edge.
    const Point behind{a.x - (b.x - a.x) / 2, a.y - (b.y - a.y) / 2};
    const auto hops = net::unitDiskHops({a, b}, {behind}, r);
    EXPECT_EQ(hops, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_EQ(hops, bruteHops({a, b}, {behind}, r));
    // One ulp farther along x: both walks must agree on the verdict.
    if (b.x == a.x) continue;
    const Point beyond{std::nextafter(b.x, b.x > a.x ? 1e9 : -1e9), b.y};
    EXPECT_EQ(net::unitDiskHops({a, beyond}, {behind}, r),
              bruteHops({a, beyond}, {behind}, r));
  }
}

TEST(UnitDisk, ChainFromZeroToWidth) {
  // Sensors every r metres from x = 0 to x = width along the bottom edge,
  // then up the right edge; each hop is exactly r onto a cell boundary.
  const double r = 30.0;
  const double width = 300.0;
  std::vector<Point> points;
  for (double x = 0.0; x <= width; x += r) points.push_back({x, 0.0});
  for (double y = r; y <= width; y += r) points.push_back({width, y});
  // Seeded r before x = 0, the point there is 1 hop and the levels count up.
  const std::vector<Point> start = {{-r, 0.0}};
  const auto hops = net::unitDiskHops(points, start, r);
  for (std::size_t i = 0; i < points.size(); ++i) EXPECT_EQ(hops[i], i + 1);
  EXPECT_EQ(hops, bruteHops(points, start, r));
  // Seeded r beyond the far corner the levels run backwards.
  const std::vector<Point> end = {{width, width + r}};
  const auto back = net::unitDiskHops(points, end, r);
  EXPECT_EQ(back, bruteHops(points, end, r));
  EXPECT_EQ(back.front(), points.size());
}

TEST(UnitDisk, RoundedInRangePartnerBelowCellBoundaryIsFound) {
  // q sits one ulp below the cell boundary at x = r; p is at 2r. The exact
  // gap is r plus half an ulp of r, which px - qx rounds to r, so the
  // predicate links them. Unpadded, p's query starts at cell
  // floor((2r - r) / r) = 1 and never sees q in cell 0; the padded must.
  for (double r : {1.0, 32.0}) {
    SCOPED_TRACE(r);
    const Point q{std::nextafter(r, 0.0), 0.0};
    const Point p{2.0 * r, 0.0};
    ASSERT_LE(net::distanceSq(p, q), r * r);
    ASSERT_LT(std::floor(q.x / r), std::floor((p.x - r) / r));
    EXPECT_EQ(net::unitDiskHops({q}, {p}, r), bruteHops({q}, {p}, r));
    EXPECT_EQ(net::unitDiskHops({q}, {p}, r)[0], 1u);
    // Between two points of the set, seeded beyond p out of q's range.
    const Point past{2.5 * r, 0.0};
    EXPECT_EQ(net::unitDiskHops({p, q}, {past}, r),
              (std::vector<std::uint32_t>{1, 2}));
    // The same along the y axis.
    const Point qy{0.0, q.x};
    const Point py{0.0, p.x};
    EXPECT_EQ(net::unitDiskHops({qy}, {py}, r)[0], 1u);
  }
}

TEST(UnitDisk, SeedsAndUnreachables) {
  const std::vector<Point> points = {{0, 0}, {10, 0}, {100, 0}, {110, 0}};
  EXPECT_EQ(net::unitDiskHops(points, {}, 15.0),
            std::vector<std::uint32_t>(4, net::kUnreachableHops));
  // Repeated seeds are harmless; each point counts from its nearest seed.
  const auto hops =
      net::unitDiskHops(points, {{-10, 0}, {120, 0}, {-10, 0}}, 15.0);
  EXPECT_EQ(hops, (std::vector<std::uint32_t>{1, 2, 2, 1}));
  // A seed out of everyone's range reaches nothing.
  EXPECT_EQ(net::unitDiskHops(points, {{50, 50}}, 15.0),
            std::vector<std::uint32_t>(4, net::kUnreachableHops));
  EXPECT_TRUE(net::unitDiskHops({}, {{0, 0}}, 15.0).empty());
}

// --- scale --------------------------------------------------------------------

TEST(UnitDisk, KernelScale64kGridIsConnected) {
  // The kernel_scale campaign's 64k variant geometry: a grid deployment of
  // 64,000 sensors on a 5060 m square, range 30, seed 31. The all-pairs
  // BFS took ~40 s for these checks; the grid-pruned one takes ~0.1 s, so
  // a quadratic scan growing back shows up in this test's time.
  Rng rng(31);
  net::DeploymentParams dp;
  dp.sensorCount = 64000;
  dp.gatewayCount = 2;
  dp.width = 5060.0;
  dp.height = 5060.0;
  dp.radioRange = 30.0;
  const net::Deployment d = net::gridDeployment(dp, rng);
  const auto places = net::feasiblePlaces(dp, 4, rng);
  EXPECT_TRUE(net::sensorsConnected(d.sensors, dp.radioRange));
  const auto field = core::hopField(d.sensors, places.front(), dp.radioRange);
  EXPECT_EQ(std::count(field.begin(), field.end(), core::kUnreachableHops), 0);
}

}  // namespace
}  // namespace wmsn
