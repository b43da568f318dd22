#include "neighbor/adjacency.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace disc {

namespace {

using EdgeList = std::vector<std::pair<ObjectId, ObjectId>>;

// Appends (i, j) pairs (i < j) to both endpoints' adjacency lists.
size_t MergeEdges(const EdgeList& edges, AdjacencyLists* adjacency) {
  for (const auto& [i, j] : edges) {
    (*adjacency)[i].push_back(j);
    (*adjacency)[j].push_back(i);
  }
  return edges.size();
}

// The coordinates of p's grid cell: cells have side r along every axis.
void CellOf(const Point& p, double radius, std::vector<int64_t>* cell) {
  for (size_t d = 0; d < cell->size(); ++d) {
    (*cell)[d] = static_cast<int64_t>(std::floor(p[d] / radius));
  }
}

// Packs up to 3 grid-cell coordinates (21 bits each, offset to stay
// positive) into one hash key.
uint64_t PackGridCell(const std::vector<int64_t>& cell) {
  uint64_t key = 0;
  for (int64_t coord : cell) {
    int64_t c = coord + (1 << 20);
    key = (key << 21) | static_cast<uint64_t>(c & ((1 << 21) - 1));
  }
  return key;
}

}  // namespace

bool GridCompatible(const DistanceMetric& metric, size_t dim, size_t n) {
  if (metric.kind() == MetricKind::kHamming) return false;
  // The grid pays off for large low-dimensional inputs; cell enumeration is
  // 3^dim per point, so cap the dimensionality.
  return dim >= 1 && dim <= 3 && n >= 256;
}

size_t BuildAdjacencyBruteForce(const Dataset& dataset,
                                const DistanceMetric& metric, double radius,
                                ThreadPool* pool, AdjacencyLists* adjacency) {
  const size_t n = dataset.size();
  size_t num_edges = 0;
  // One distance computation per unordered pair: j starts above i (the
  // regression test in tests/neighborhood_test.cc pins the call count to
  // n(n-1)/2). Chunks of rows collect (i, j) pairs into private buffers;
  // merging in ascending chunk order gives the (i asc, j asc) edge sequence
  // for any thread count.
  ParallelOrderedReduce<EdgeList>(
      pool, 0, n, RecommendedGrain(n, pool),
      [&](size_t chunk_begin, size_t chunk_end) {
        EdgeList edges;
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          const Point& p = dataset.point(i);
          for (size_t j = i + 1; j < n; ++j) {
            if (metric.Distance(p, dataset.point(j)) <= radius) {
              edges.emplace_back(static_cast<ObjectId>(i),
                                 static_cast<ObjectId>(j));
            }
          }
        }
        return edges;
      },
      [&](EdgeList& edges) { num_edges += MergeEdges(edges, adjacency); });
  return num_edges;
}

size_t BuildAdjacencyWithGrid(const Dataset& dataset,
                              const DistanceMetric& metric, double radius,
                              ThreadPool* pool, AdjacencyLists* adjacency,
                              uint64_t* distance_computations) {
  const size_t n = dataset.size();
  const size_t dim = dataset.dim();
  size_t num_edges = 0;
  *distance_computations = 0;

  // Hash points into cells of side r; any neighbor pair lies in the same or
  // an adjacent cell along every axis.
  std::unordered_map<uint64_t, std::vector<ObjectId>> cells;
  cells.reserve(n);
  std::vector<int64_t> cell(dim);
  for (ObjectId i = 0; i < n; ++i) {
    CellOf(dataset.point(i), radius, &cell);
    cells[PackGridCell(cell)].push_back(i);
  }

  // Enumerate each point's 3^dim neighboring cells; the cell map is shared
  // read-only once populated. One distance computation per unordered
  // candidate pair (the j <= i skip dedupes the two enumerations that see
  // the pair). Each chunk counts its candidate pairs, so the reported
  // distance-computation total is thread-count independent.
  const size_t num_offsets = static_cast<size_t>(std::pow(3.0, dim));
  struct ChunkEdges {
    EdgeList edges;
    uint64_t distance_calls = 0;
  };
  ParallelOrderedReduce<ChunkEdges>(
      pool, 0, n, RecommendedGrain(n, pool),
      [&](size_t chunk_begin, size_t chunk_end) {
        ChunkEdges chunk;
        std::vector<int64_t> base(dim);
        std::vector<int64_t> probe(dim);
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          const Point& p = dataset.point(i);
          CellOf(p, radius, &base);
          for (size_t mask = 0; mask < num_offsets; ++mask) {
            size_t rem = mask;
            for (size_t d = 0; d < dim; ++d) {
              probe[d] = base[d] + static_cast<int64_t>(rem % 3) - 1;
              rem /= 3;
            }
            auto it = cells.find(PackGridCell(probe));
            if (it == cells.end()) continue;
            for (ObjectId j : it->second) {
              if (j <= i) continue;  // each unordered pair once
              ++chunk.distance_calls;
              if (metric.Distance(p, dataset.point(j)) <= radius) {
                chunk.edges.emplace_back(static_cast<ObjectId>(i), j);
              }
            }
          }
        }
        return chunk;
      },
      [&](ChunkEdges& chunk) {
        num_edges += MergeEdges(chunk.edges, adjacency);
        *distance_computations += chunk.distance_calls;
      });
  return num_edges;
}

}  // namespace disc
