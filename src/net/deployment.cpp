#include "net/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "net/unit_disk.hpp"
#include "util/require.hpp"

namespace wmsn::net {

namespace {

/// Spread `count` points on a jittered sub-grid covering the area.
std::vector<Point> spreadPoints(std::size_t count, double width, double height,
                                double jitterFraction, Rng& rng) {
  std::vector<Point> out;
  if (count == 0) return out;
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(count) * width / height)));
  const std::size_t rows = (count + cols - 1) / cols;
  const double cellW = width / static_cast<double>(cols);
  const double cellH = height / static_cast<double>(rows);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t cx = i % cols;
    const std::size_t cy = i / cols;
    const double jx = rng.uniform(-jitterFraction, jitterFraction) * cellW;
    const double jy = rng.uniform(-jitterFraction, jitterFraction) * cellH;
    out.push_back(Point{
        std::clamp((static_cast<double>(cx) + 0.5) * cellW + jx, 0.0, width),
        std::clamp((static_cast<double>(cy) + 0.5) * cellH + jy, 0.0,
                   height)});
  }
  return out;
}

Deployment generateConnected(const DeploymentParams& params, Rng& rng,
                             const std::function<std::vector<Point>(Rng&)>&
                                 sensorGen) {
  for (std::size_t attempt = 0; attempt < params.maxAttempts; ++attempt) {
    Deployment d;
    d.width = params.width;
    d.height = params.height;
    d.sensors = sensorGen(rng);
    d.gateways =
        spreadPoints(params.gatewayCount, params.width, params.height,
                     0.25, rng);
    if (isConnected(d, params.radioRange)) return d;
  }
  throw PreconditionError(
      "could not generate a connected deployment; increase radio range, "
      "node count, or area density");
}

}  // namespace

bool isConnected(const Deployment& deployment, double radioRange) {
  // Gateways relay, but a shortest path from the nearest gateway never
  // passes through another one, so rooting the search at every gateway
  // reaches the same sensors as a walk over sensors and gateways together.
  const auto hops =
      unitDiskHops(deployment.sensors, deployment.gateways, radioRange);
  return std::find(hops.begin(), hops.end(), kUnreachableHops) == hops.end();
}

bool sensorsConnected(const std::vector<Point>& sensors, double radioRange) {
  if (sensors.size() <= 1) return true;
  const auto hops = unitDiskHops(sensors, {sensors.front()}, radioRange);
  return std::find(hops.begin(), hops.end(), kUnreachableHops) == hops.end();
}

bool placesAttached(const std::vector<Point>& places,
                    const std::vector<Point>& sensors, double attachRange) {
  const double r2 = attachRange * attachRange;
  for (const Point& p : places) {
    bool attached = false;
    for (const Point& s : sensors) {
      // Places × sensors with early exit: cheap at the 4–6 places MLR uses.
      // wmsn-lint: allow(rangescan-discipline)
      if (distanceSq(p, s) <= r2) {
        attached = true;
        break;
      }
    }
    if (!attached) return false;
  }
  return true;
}

Deployment uniformDeployment(const DeploymentParams& params, Rng& rng) {
  return generateConnected(params, rng, [&params](Rng& r) {
    std::vector<Point> out;
    out.reserve(params.sensorCount);
    for (std::size_t i = 0; i < params.sensorCount; ++i)
      out.push_back(
          Point{r.uniform(0.0, params.width), r.uniform(0.0, params.height)});
    return out;
  });
}

Deployment gridDeployment(const DeploymentParams& params, Rng& rng) {
  return generateConnected(params, rng, [&params](Rng& r) {
    return spreadPoints(params.sensorCount, params.width, params.height, 0.05,
                        r);
  });
}

Deployment clusteredDeployment(const DeploymentParams& params,
                               std::size_t clusterCount, Rng& rng) {
  WMSN_REQUIRE(clusterCount >= 1);
  return generateConnected(params, rng, [&params, clusterCount](Rng& r) {
    // Cluster centres spread out; sensors normally distributed around them.
    const auto centres =
        spreadPoints(clusterCount, params.width, params.height, 0.2, r);
    const double sigma =
        std::min(params.width, params.height) /
        (3.0 * std::sqrt(static_cast<double>(clusterCount)));
    std::vector<Point> out;
    out.reserve(params.sensorCount);
    for (std::size_t i = 0; i < params.sensorCount; ++i) {
      const Point& c = centres[i % centres.size()];
      out.push_back(
          Point{std::clamp(r.normal(c.x, sigma), 0.0, params.width),
                std::clamp(r.normal(c.y, sigma), 0.0, params.height)});
    }
    return out;
  });
}

std::vector<Point> feasiblePlaces(const DeploymentParams& params,
                                  std::size_t count, Rng& rng) {
  return spreadPoints(count, params.width, params.height, 0.15, rng);
}

}  // namespace wmsn::net
