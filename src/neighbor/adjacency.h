// Shared adjacency builders for the r-neighborhood computation.
//
// These free functions are the two M-tree-free ways to compute N_r(p) for
// every object: the exact O(n^2) pairwise scan and the uniform-grid
// accelerator. GridBackend::BuildNeighborhoods (neighbor/grid_backend.h) is
// the one place that chooses between them, and every graph built from a
// dataset goes through it. The brute-force scan is also the reference
// oracle the tests hold every backend to, so there is exactly one copy of
// each builder.
//
// Both builders are one util/parallel.h ordered reduction at any thread
// count (a null pool runs the same chunks in order on the calling thread):
// the object range splits into chunks by a pure function of (0, n, grain),
// per-chunk edge buffers merge in ascending chunk order, and the appended
// adjacency entries are byte-identical for every thread count. Appended
// neighbor lists are NOT sorted — callers sort once at the end.

#ifndef DISC_NEIGHBOR_ADJACENCY_H_
#define DISC_NEIGHBOR_ADJACENCY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "metric/metric.h"

namespace disc {

class ThreadPool;  // util/parallel.h

/// Adjacency-list shape shared by NeighborhoodGraph and the neighbor
/// backends: entry v holds N_r(v) as object ids, excluding v itself.
using AdjacencyLists = std::vector<std::vector<ObjectId>>;

/// Whether the uniform-grid accelerator applies: it requires that
/// dist(p, q) <= r implies every coordinate difference is <= r (true for
/// Euclidean / Manhattan / Chebyshev, not Hamming), pays off only for large
/// inputs, and enumerates 3^dim cells per point, so dimensionality is capped
/// at 3.
bool GridCompatible(const DistanceMetric& metric, size_t dim, size_t n);

/// Exact O(n^2) pairwise scan: one distance computation per unordered pair;
/// each edge (i, j), i < j, is appended to both endpoints' lists in
/// (i asc, j asc) order. `adjacency` must already hold dataset.size()
/// (possibly non-empty) lists. Returns the number of undirected edges added.
size_t BuildAdjacencyBruteForce(const Dataset& dataset,
                                const DistanceMetric& metric, double radius,
                                ThreadPool* pool, AdjacencyLists* adjacency);

/// Uniform-grid accelerated scan (requires GridCompatible and radius > 0):
/// hashes points into cells of side r and compares only same-or-adjacent
/// cell pairs — still exactly one distance computation per unordered
/// candidate pair, and the same append order and return value contract as
/// BuildAdjacencyBruteForce. Produces the identical edge set.
/// `distance_computations` receives the number of metric evaluations
/// performed (the candidate-pair count), accumulated in chunk order so the
/// total is thread-count independent.
size_t BuildAdjacencyWithGrid(const Dataset& dataset,
                              const DistanceMetric& metric, double radius,
                              ThreadPool* pool, AdjacencyLists* adjacency,
                              uint64_t* distance_computations);

}  // namespace disc

#endif  // DISC_NEIGHBOR_ADJACENCY_H_
