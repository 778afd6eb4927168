// Order statistics and the per-layer residual used by rmibench.
//
// Kept free of library includes so rmibench_stats_test can check them in
// isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace rmibench {

// Percentile of already sorted samples at fraction `p` in [0, 1], linearly
// interpolated between closest ranks (the estimator numpy and
// statistics.median use): p = 0.5 of an even count is the mean of the two
// middle samples.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("percentile outside [0,1]");
  }
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, p);
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

// Distance between the first and third quartile as a share of the median,
// with the quartiles cut exactly as Python's statistics.quantiles(values,
// n=4) cuts them (its default "exclusive" method).  This is the spread a
// run-to-run comparison of the benchmark's figures is judged by.
inline double quartile_spread(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("spread needs two values");
  std::sort(values.begin(), values.end());
  const auto n = static_cast<long>(values.size());
  const long m = n + 1;
  auto cut = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (values[j - 1] * static_cast<double>(4 - delta) +
            values[j] * static_cast<double>(delta)) / 4.0;
  };
  const double mid = percentile_sorted(values, 0.5);
  if (mid == 0.0) throw std::invalid_argument("spread around a zero median");
  return (cut(3) - cut(1)) / std::fabs(mid);
}

// Host time of one traced RMI, split by layer.  Everything is a mean per
// RMI except the two wire figures, which are per frame.
struct LayerSplit {
  double wall_us = 0.0;          // traced invoke() wall time
  double serialize_us = 0.0;     // Serialize spans (both directions)
  double deserialize_us = 0.0;   // Deserialize spans (both directions)
  double handler_us = 0.0;       // inside the benchmark's handler
  double frames = 0.0;           // frames the transport carried
  double encode_ns = 0.0;        // wire::encode_frame per frame
  double decode_ns = 0.0;        // wire::decode_frame per frame
};

// What the measured layers leave unexplained: promise set-up, inbox
// hand-off and dispatcher hops (plus the tracing itself).  Not clamped —
// a negative value means the parts were over-counted.
inline double residual_us(const LayerSplit& s) {
  return s.wall_us - s.serialize_us - s.deserialize_us - s.handler_us -
         s.frames * (s.encode_ns + s.decode_ns) / 1000.0;
}

}  // namespace rmibench
