#pragma once

// Legacy clean counterpart — guarded header, tolerance-based comparison,
// a name that merely ends in distanceSq (not a raw range test), and number
// parsing through wmsn::parseNumber (names that merely contain "sto").
inline bool nearUnit(double x) {
  const double eps = 1e-9;
  return x > 1.0 - eps && x < 1.0 + eps;
}

inline double maxDistanceSq(double range) { return range * range; }

inline unsigned sensorsFlag(std::string_view text) {
  return wmsn::parseNumber<unsigned>("--sensors", text);
}

inline int restore(int x) { return x; }
inline int stored = restore(1);
// std::stoul( in a comment is not a call
