// Distance metrics over Points.
//
// The paper uses Euclidean distance for numeric datasets (Uniform, Clustered,
// Cities) and Hamming distance for the categorical Cameras dataset, and
// derives theoretical bounds for Euclidean and Manhattan distances in 2-D.
// All metrics here satisfy the metric axioms (identity, symmetry, triangle
// inequality), which the M-tree requires for correct pruning.

#ifndef DISC_METRIC_METRIC_H_
#define DISC_METRIC_METRIC_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>

#include "metric/point.h"
#include "util/status.h"

namespace disc {

/// Known metric families, used for factory construction and for selecting
/// the matching theoretical bounds (see core/bounds.h).
enum class MetricKind {
  kEuclidean,
  kManhattan,
  kChebyshev,
  kHamming,
};

/// Returns e.g. "euclidean" for kEuclidean.
const char* MetricKindToString(MetricKind kind);

/// Abstract distance function. Implementations must be metrics in the
/// mathematical sense; the M-tree's covering-radius pruning is unsound
/// otherwise.
class DistanceMetric {
 public:
  virtual ~DistanceMetric() = default;

  /// Distance between two points of equal dimension.
  virtual double Distance(const Point& a, const Point& b) const = 0;

  /// The family this metric belongs to.
  virtual MetricKind kind() const = 0;

  /// Human-readable name.
  std::string name() const { return MetricKindToString(kind()); }
};

// Each built-in metric's loop is its static Kernel(a, b, dim) over raw
// coordinate arrays — the one loop per metric. The Point form and the
// virtual Distance() (metric.cc) forward to it, and the M-tree's range
// searches call it directly on their packed node coordinates once they have
// picked the metric by exact dynamic type, so every path returns
// bit-identical distances. The build compiles with -ffp-contract=off: no FMA
// contraction may change the accumulation.

/// L2 distance.
class EuclideanMetric final : public DistanceMetric {
 public:
  static double Kernel(const double* pa, const double* pb, size_t dim) {
    double sum = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      double d = pa[i] - pb[i];
      sum += d * d;
    }
    return std::sqrt(sum);
  }
  static double Kernel(const Point& a, const Point& b) {
    assert(a.dim() == b.dim());
    return Kernel(a.data(), b.data(), a.dim());
  }
  double Distance(const Point& a, const Point& b) const override;
  MetricKind kind() const override { return MetricKind::kEuclidean; }
};

/// L1 distance.
class ManhattanMetric final : public DistanceMetric {
 public:
  static double Kernel(const double* pa, const double* pb, size_t dim) {
    double sum = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      sum += std::fabs(pa[i] - pb[i]);
    }
    return sum;
  }
  static double Kernel(const Point& a, const Point& b) {
    assert(a.dim() == b.dim());
    return Kernel(a.data(), b.data(), a.dim());
  }
  double Distance(const Point& a, const Point& b) const override;
  MetricKind kind() const override { return MetricKind::kManhattan; }
};

/// L-infinity distance.
class ChebyshevMetric final : public DistanceMetric {
 public:
  static double Kernel(const double* pa, const double* pb, size_t dim) {
    double best = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      best = std::max(best, std::fabs(pa[i] - pb[i]));
    }
    return best;
  }
  static double Kernel(const Point& a, const Point& b) {
    assert(a.dim() == b.dim());
    return Kernel(a.data(), b.data(), a.dim());
  }
  double Distance(const Point& a, const Point& b) const override;
  MetricKind kind() const override { return MetricKind::kChebyshev; }
};

/// Number of coordinates on which the two points differ. Coordinates are
/// compared exactly, which is correct for the integer category codes used by
/// categorical datasets.
class HammingMetric final : public DistanceMetric {
 public:
  static double Kernel(const double* pa, const double* pb, size_t dim) {
    double count = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      if (pa[i] != pb[i]) count += 1.0;
    }
    return count;
  }
  static double Kernel(const Point& a, const Point& b) {
    assert(a.dim() == b.dim());
    return Kernel(a.data(), b.data(), a.dim());
  }
  double Distance(const Point& a, const Point& b) const override;
  MetricKind kind() const override { return MetricKind::kHamming; }
};

/// Constructs a metric of the given family.
std::unique_ptr<DistanceMetric> MakeMetric(MetricKind kind);

/// Parses "euclidean" / "manhattan" / "chebyshev" / "hamming".
Result<MetricKind> ParseMetricKind(const std::string& name);

}  // namespace disc

#endif  // DISC_METRIC_METRIC_H_
