#pragma once

// Legacy clean counterpart — guarded header, tolerance-based comparison,
// and a name that merely ends in distanceSq (not a raw range test).
inline bool nearUnit(double x) {
  const double eps = 1e-9;
  return x > 1.0 - eps && x < 1.0 + eps;
}

inline double maxDistanceSq(double range) { return range * range; }
