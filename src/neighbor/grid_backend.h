// GridBackend: the exact dataset-scan neighbor engine, and the one place that
// chooses how G_P,r is built from a dataset. Exact — identical neighbor sets
// to the brute-force scan.
//
// BuildNeighborhoods picks the uniform-grid accelerator when it applies
// (GridCompatible: a Minkowski metric, dim <= 3, n >= 256, r > 0) and the
// exact O(n^2) pairwise scan otherwise; both are the shared builders in
// neighbor/adjacency.h. NeighborhoodGraph's dataset constructor is this
// backend plus FromBackend. The scan fallback is what
// CreateNeighborBackend's max_exact_points cap guards against at daemon
// scale. Point queries keep no index: each is one exact scan of the dataset.
//
// Accounting: each point query charges one range query, one node access
// and one distance computation per object it compares. A batched grid
// build charges n range queries, n * 3^dim cell probes and the exact
// candidate-pair count; a batched scan charges n range queries, n node
// accesses and n(n-1)/2 distance computations.

#ifndef DISC_NEIGHBOR_GRID_BACKEND_H_
#define DISC_NEIGHBOR_GRID_BACKEND_H_

#include <vector>

#include "neighbor/backend.h"

namespace disc {

class GridBackend final : public NeighborBackend {
 public:
  GridBackend(const Dataset& dataset, const DistanceMetric& metric)
      : NeighborBackend(dataset, metric) {}

  NeighborBackendKind kind() const override {
    return NeighborBackendKind::kGrid;
  }

  Status BuildNeighborhoods(double radius, ThreadPool* pool,
                            AdjacencyLists* adjacency,
                            size_t* num_edges) const override;

 protected:
  void DoRangeQuery(const Point& center, ObjectId exclude, double radius,
                    std::vector<ObjectId>* out,
                    AccessStats* sink) const override;
};

}  // namespace disc

#endif  // DISC_NEIGHBOR_GRID_BACKEND_H_
