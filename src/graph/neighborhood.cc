#include "graph/neighborhood.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "neighbor/grid_backend.h"

namespace disc {

NeighborhoodGraph::NeighborhoodGraph(const Dataset& dataset,
                                     const DistanceMetric& metric,
                                     double radius, ThreadPool* pool)
    : NeighborhoodGraph(
          FromBackend(GridBackend(dataset, metric), radius, pool).value()) {}

Result<NeighborhoodGraph> NeighborhoodGraph::FromBackend(
    const NeighborBackend& backend, double radius, ThreadPool* pool) {
  AdjacencyLists adjacency;
  size_t num_edges = 0;
  DISC_RETURN_NOT_OK(
      backend.BuildNeighborhoods(radius, pool, &adjacency, &num_edges));
  return NeighborhoodGraph(radius, std::move(adjacency), num_edges);
}

size_t NeighborhoodGraph::MaxDegree() const {
  size_t best = 0;
  for (const auto& list : adjacency_) best = std::max(best, list.size());
  return best;
}

bool NeighborhoodGraph::HasEdge(ObjectId a, ObjectId b) const {
  const auto& list = adjacency_[a];
  return std::binary_search(list.begin(), list.end(), b);
}

}  // namespace disc
