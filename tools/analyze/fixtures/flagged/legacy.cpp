// Legacy lint-group fixtures — float equality, process discipline,
// range-scan discipline, single-slot observer, number-parse discipline.
#include <cstdlib>
#include <functional>
#include <string>

inline bool atUnit(double x) {
  return x == 1.0;  // expect: float-equality
}

inline void shell() {
  std::system("true");  // expect: process-discipline
}

struct Radio {
  bool linked(int a, int b);
};

inline bool near(Radio& r) {
  return r.linked(0, 1);  // expect: rangescan-discipline
}

struct Point {
  double x, y;
};

// An all-pairs loop on raw distances, invisible to the linked() check.
inline int neighborsWithin(const Point* pts, int n, double r) {
  int count = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (net::distanceSq(pts[i], pts[j]) <= r * r)  // expect: rangescan-discipline
        ++count;
  return count;
}

struct Hub {
  std::function<void(int)> frameObserver_;  // expect: observer-contract
};

inline unsigned long sensorsFlag(const std::string& text) {
  return std::stoul(text);  // expect: number-parse-discipline
}

inline double rateFlag(const std::string& text) {
  return std::stod (text);  // expect: number-parse-discipline
}
