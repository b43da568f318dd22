#include "neighbor/grid_backend.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace disc {

Status GridBackend::BuildNeighborhoods(double radius, ThreadPool* pool,
                                       AdjacencyLists* adjacency,
                                       size_t* num_edges) const {
  const size_t n = size();
  adjacency->assign(n, {});
  size_t edges = 0;
  AccessStats batch;
  batch.range_queries = n;
  if (GridCompatible(metric_, dataset_.dim(), n) && radius > 0) {
    edges = BuildAdjacencyWithGrid(dataset_, metric_, radius, pool, adjacency,
                                   &batch.distance_computations);
    const uint64_t num_offsets =
        static_cast<uint64_t>(std::pow(3.0, dataset_.dim()));
    batch.node_accesses = static_cast<uint64_t>(n) * num_offsets;
  } else {
    edges = BuildAdjacencyBruteForce(dataset_, metric_, radius, pool,
                                     adjacency);
    batch.node_accesses = n;
    batch.distance_computations =
        n > 1 ? static_cast<uint64_t>(n) * (n - 1) / 2 : 0;
  }
  stats_ += batch;
  for (auto& list : *adjacency) std::sort(list.begin(), list.end());
  if (num_edges != nullptr) *num_edges = edges;
  return Status::OK();
}

void GridBackend::DoRangeQuery(const Point& center, ObjectId exclude,
                               double radius, std::vector<ObjectId>* out,
                               AccessStats* sink) const {
  sink->range_queries += 1;
  sink->node_accesses += 1;
  for (ObjectId j = 0; j < dataset_.size(); ++j) {
    if (j == exclude) continue;
    ++sink->distance_computations;
    if (metric_.Distance(center, dataset_.point(j)) <= radius) {
      out->push_back(j);
    }
  }
}

}  // namespace disc
