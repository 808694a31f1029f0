#ifndef ESPBENCH_ORACLE_H_
#define ESPBENCH_ORACLE_H_

// Reference computations shared by the workloads' oracles.

#include <algorithm>
#include <cmath>
#include <vector>

namespace espbench {

/// Relative-tolerance equality for doubles (NaN equals NaN).
inline bool Near(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

/// True when `got` (NaN for "no row") is what the corrected Query 5 —
/// average of the window's values within mean +- population stdev — can
/// return over `values`. Values that sit on the band's edge to within
/// floating-point noise may fall either side (with two readings both sit
/// exactly on it), so every such subset is accepted; everything else must
/// match exactly up to rounding.
inline bool OutlierRejectingAverageMatches(const std::vector<double>& values,
                                           double got) {
  if (values.empty()) return std::isnan(got);
  double sum = 0, mean = 0, m2 = 0;
  int64_t n = 0;
  for (double v : values) {
    sum += v;
    ++n;
    const double delta = v - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (v - mean);
  }
  const double avg = sum / static_cast<double>(n);
  const double sd = std::sqrt(m2 / static_cast<double>(n));
  const double eps = 1e-9 * std::max({1.0, std::abs(avg), sd});
  double in_sum = 0;
  int64_t in_n = 0;
  std::vector<double> edge;
  for (double v : values) {
    const double lo = avg - sd;
    const double hi = avg + sd;
    if (v >= lo + eps && v <= hi - eps) {
      in_sum += v;
      ++in_n;
    } else if (v >= lo - eps && v <= hi + eps) {
      edge.push_back(v);
    }
  }
  if (edge.size() > 6) return false;  // Not a rounding question any more.
  for (uint32_t mask = 0; mask < (1u << edge.size()); ++mask) {
    double s = in_sum;
    int64_t k = in_n;
    for (size_t i = 0; i < edge.size(); ++i) {
      if (mask & (1u << i)) {
        s += edge[i];
        ++k;
      }
    }
    const double candidate = k > 0 ? s / static_cast<double>(k) : NAN;
    if (Near(got, candidate)) return true;
  }
  return false;
}

}  // namespace espbench

#endif  // ESPBENCH_ORACLE_H_
