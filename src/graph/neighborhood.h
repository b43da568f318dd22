// Neighborhood graph G_{P,r}: vertex per object, edge when dist <= r.
//
// Section 2.2 of the paper reduces Minimum r-DisC Diverse Subset to Minimum
// Independent Dominating Set on this graph. The graph module is the
// M-tree-free substrate: it provides ground truth for tests, powers the
// brute-force reference algorithms, and backs the structural verifiers.
//
// Construction is the r-neighborhood computation that dominates every DisC
// pass (N_r(p) for all p, §4–§6), and there is one way to do it:
// FromBackend, which adopts NeighborBackend::BuildNeighborhoods
// (neighbor/backend.h). Exact backends (the M-tree, grid and exact-shard
// engines) give the exact graph; approximate (LSH) backends give a subgraph,
// which is how sharded and approximate engines plug into everything defined
// on this graph. The dataset constructor is shorthand for FromBackend over a
// GridBackend, which picks the grid accelerator or the exact O(n^2) scan.
// Every build is an ordered reduction over an optional util/parallel.h
// pool: the object range splits into chunks, and per-chunk results merge on
// the calling thread in ascending chunk order, so the graph and the
// backend's accounting are byte-identical for every thread count.

#ifndef DISC_GRAPH_NEIGHBORHOOD_H_
#define DISC_GRAPH_NEIGHBORHOOD_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "metric/metric.h"
#include "neighbor/backend.h"
#include "util/status.h"

namespace disc {

class ThreadPool;  // util/parallel.h

/// Adjacency-list representation of G_{P,r}. Neighbor lists are sorted by id
/// and exclude the vertex itself, matching N_r(p_i) in the paper.
class NeighborhoodGraph {
 public:
  /// Builds the graph from the dataset through a GridBackend: exactly one
  /// distance computation per compared unordered pair, using the
  /// uniform-grid accelerator for low-dimensional Minkowski metrics and the
  /// exact O(n^2) scan otherwise; both produce identical graphs.
  NeighborhoodGraph(const Dataset& dataset, const DistanceMetric& metric,
                    double radius, ThreadPool* pool = nullptr);

  /// Builds the graph through a neighbor backend (neighbor/backend.h).
  /// Exact backends produce the exact graph; approximate backends produce a
  /// subgraph (every reported edge is distance-verified, some true edges may
  /// be missing — the recall the CI quality gate measures). Accounting goes
  /// to the backend's stats().
  static Result<NeighborhoodGraph> FromBackend(const NeighborBackend& backend,
                                               double radius,
                                               ThreadPool* pool = nullptr);

  size_t num_vertices() const { return adjacency_.size(); }
  size_t num_edges() const { return num_edges_; }
  double radius() const { return radius_; }

  /// N_r(v): sorted ids at distance <= r, excluding v.
  const std::vector<ObjectId>& neighbors(ObjectId v) const {
    return adjacency_[v];
  }

  /// |N_r(v)|.
  size_t degree(ObjectId v) const { return adjacency_[v].size(); }

  /// Max degree Delta over all vertices (0 for the empty graph).
  size_t MaxDegree() const;

  bool HasEdge(ObjectId a, ObjectId b) const;

 private:
  /// Adopts an already-built adjacency structure (FromBackend).
  NeighborhoodGraph(double radius, AdjacencyLists adjacency, size_t num_edges)
      : radius_(radius),
        num_edges_(num_edges),
        adjacency_(std::move(adjacency)) {}

  double radius_;
  size_t num_edges_ = 0;
  AdjacencyLists adjacency_;
};

}  // namespace disc

#endif  // DISC_GRAPH_NEIGHBORHOOD_H_
