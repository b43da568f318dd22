// Bulk loading: builds the whole M-tree at once instead of inserting objects
// one at a time, in the style of Ciaccia & Patella's BulkLoading algorithm.
//
// Phase 1 clusters the objects into leaf-sized groups by sampled-recursive
// partitioning: sample k seeds, assign every object to its nearest seed, and
// recurse into groups still larger than the node capacity. Phase 2 turns the
// groups into leaves (pivot = group seed, covering radius = farthest member)
// and then assembles the internal levels bottom-up by clustering the pivots
// of the level below, so every level satisfies the same covering-radius and
// parent-distance invariants the insert path maintains (MTree::Validate
// checks both builds against the identical rules).
//
// Compared with insert-at-a-time the bulk path performs no node splits and
// no per-object root-to-leaf descents, which makes construction cheaper, and
// the seeded clustering yields tighter balls, which makes downstream range
// queries cheaper too (measured in bench_ablation_mtree).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mtree/mtree.h"
#include "mtree/mtree_internal.h"
#include "util/parallel.h"

namespace disc {

namespace {

// One object assigned to a cluster, with its distance to the cluster seed
// (reused as the leaf entry's parent_dist, so assignment distances are never
// recomputed).
struct Member {
  ObjectId id;
  double dist_to_seed;
};

// A group of at most node_capacity objects clustered around `seed` (which is
// itself a member, at distance 0).
struct Cluster {
  ObjectId seed;
  std::vector<Member> members;
};

// Sampled-recursive partitioner. Works on plain object ids, so the same
// instance clusters dataset objects into leaves and node pivots into
// internal levels.
//
// Parallelism: the nearest-seed assignment — the n*k distance computations
// that dominate the build — is one ordered reduction over the pool (a null
// pool runs its chunks in order on the calling thread). Seed sampling stays
// on the calling thread (it is the sole consumer of the random state, and
// its draw order must not depend on scheduling), each assignment chunk runs
// under a private stats sink, and chunk results merge in ascending order, so
// clusters, the random stream, and stats totals are byte-identical at any
// thread count.
class SeedPartitioner {
 public:
  SeedPartitioner(const MTree& tree, size_t max_group, uint64_t* rng,
                  ThreadPool* pool)
      : tree_(tree), max_group_(max_group), rng_(rng), pool_(pool) {}

  std::vector<Cluster> Partition(std::vector<ObjectId> ids) {
    std::vector<Cluster> out;
    Recurse(std::move(ids), &out);
    return out;
  }

 private:
  void Recurse(std::vector<ObjectId> ids, std::vector<Cluster>* out) {
    const size_t n = ids.size();
    if (n <= max_group_) {
      EmitChunks(ids, out);
      return;
    }

    // Sample k distinct seeds with a partial Fisher-Yates shuffle. k is the
    // number of max_group_-sized groups the ids would ideally form, but
    // capped low: assignment costs n*k distances per recursion step, so a
    // small fanout with one extra recursion level is far cheaper than
    // matching the final fanout in one step (n*F*log_F(n) vs n*n/cap).
    constexpr size_t kMaxSeeds = 8;
    const size_t ideal = (n + max_group_ - 1) / max_group_;
    const size_t k =
        std::min({max_group_, kMaxSeeds, std::max<size_t>(2, ideal)});
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(NextRandom(rng_) % (n - i));
      std::swap(ids[i], ids[j]);
    }

    // Assign every id to its nearest seed (ties toward the earlier seed).
    // Per-id seed choices are independent: each chunk writes its own slice
    // of `best` under a private stats sink, and the sinks charge the tree in
    // ascending chunk order — the same choices and totals at any thread
    // count.
    std::vector<std::pair<size_t, double>> best(n);  // (seed index, dist)
    ParallelOrderedReduce<AccessStats>(
        pool_, 0, n, RecommendedGrain(n, pool_),
        [&](size_t chunk_begin, size_t chunk_end) {
          AccessStats stats;
          for (size_t i = chunk_begin; i < chunk_end; ++i) {
            size_t seed = 0;
            double seed_dist = std::numeric_limits<double>::infinity();
            for (size_t s = 0; s < k; ++s) {
              double d = tree_.Distance(ids[i], ids[s], &stats);
              if (d < seed_dist) {
                seed_dist = d;
                seed = s;
              }
            }
            best[i] = {seed, seed_dist};
          }
          return stats;
        },
        [&](AccessStats& stats) { tree_.stats() += stats; });
    std::vector<std::vector<Member>> groups(k);
    for (size_t i = 0; i < n; ++i) {
      groups[best[i].first].push_back(Member{ids[i], best[i].second});
    }

    for (size_t s = 0; s < k; ++s) {
      if (groups[s].empty()) continue;
      if (groups[s].size() == n) {
        // Degenerate geometry (e.g. all points coincide): assignment made no
        // progress, so split positionally instead of spatially.
        EmitChunks(ids, out);
        return;
      }
      if (groups[s].size() <= max_group_) {
        out->push_back(Cluster{ids[s], std::move(groups[s])});
      } else {
        std::vector<ObjectId> sub;
        sub.reserve(groups[s].size());
        for (const Member& m : groups[s]) sub.push_back(m.id);
        Recurse(std::move(sub), out);
      }
    }
  }

  // Fallback that always makes progress: consecutive runs of at most
  // max_group_ ids, each seeded by its first element.
  void EmitChunks(const std::vector<ObjectId>& ids,
                  std::vector<Cluster>* out) {
    for (size_t begin = 0; begin < ids.size(); begin += max_group_) {
      const size_t end = std::min(ids.size(), begin + max_group_);
      Cluster cluster;
      cluster.seed = ids[begin];
      cluster.members.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        cluster.members.push_back(
            Member{ids[i], tree_.Distance(ids[i], cluster.seed)});
      }
      out->push_back(std::move(cluster));
    }
  }

  const MTree& tree_;
  size_t max_group_;
  uint64_t* rng_;
  ThreadPool* pool_;
};

}  // namespace

Status MTree::BulkLoad(ThreadPool* pool) {
  DISC_RETURN_NOT_OK(CheckBuildPreconditions());
  InitObjectState();
  const size_t n = dataset_.size();
  const size_t capacity = options_.node_capacity;

  if (n <= capacity) {
    // Everything fits in one leaf, which doubles as the root (pivot-less,
    // infinite radius — the same degenerate shape the insert path produces).
    root_ = std::make_unique<Node>(/*leaf=*/true);
    first_leaf_ = root_.get();
    num_nodes_ = 1;
    ++stats_.node_accesses;
    root_->objects.reserve(n);
    root_->coords.reserve(n * dataset_.dim());
    for (ObjectId id = 0; id < n; ++id) {
      root_->objects.push_back(LeafEntry{id, 0.0});
      root_->AppendCoords(dataset_.point(id));
      leaf_of_[id] = root_.get();
    }
    root_->white_count = static_cast<uint32_t>(n);
    built_ = true;
    ResetColors();
    return Status::OK();
  }

  SeedPartitioner partitioner(*this, capacity, &rng_state_, pool);

  // ---- Phase 1: cluster objects into leaf-sized groups ----
  std::vector<ObjectId> ids(n);
  for (ObjectId id = 0; id < n; ++id) ids[id] = id;
  std::vector<Cluster> clusters = partitioner.Partition(std::move(ids));

  // ---- Phase 2a: materialize the leaf level (and the leaf chain) ----
  // Each cluster becomes one leaf, built independently on the workers (the
  // clusters partition the objects, so the leaf_of_ writes are disjoint);
  // the chunk-ordered merge then threads the leaf chain and the counters in
  // cluster order, identical at any thread count.
  std::vector<std::unique_ptr<Node>> level;
  level.reserve(clusters.size());
  Node* prev_leaf = nullptr;
  ParallelOrderedReduce<std::vector<std::unique_ptr<Node>>>(
      pool, 0, clusters.size(), RecommendedGrain(clusters.size(), pool),
      [&](size_t chunk_begin, size_t chunk_end) {
        std::vector<std::unique_ptr<Node>> built;
        built.reserve(chunk_end - chunk_begin);
        for (size_t c = chunk_begin; c < chunk_end; ++c) {
          Cluster& cluster = clusters[c];
          auto leaf = std::make_unique<Node>(/*leaf=*/true);
          leaf->pivot = cluster.seed;
          double radius = 0.0;
          leaf->objects.reserve(cluster.members.size());
          leaf->coords.reserve(cluster.members.size() * dataset_.dim());
          for (const Member& m : cluster.members) {
            leaf->objects.push_back(LeafEntry{m.id, m.dist_to_seed});
            leaf->AppendCoords(dataset_.point(m.id));
            leaf_of_[m.id] = leaf.get();
            radius = std::max(radius, m.dist_to_seed);
          }
          leaf->radius = radius;
          leaf->white_count = static_cast<uint32_t>(cluster.members.size());
          built.push_back(std::move(leaf));
        }
        return built;
      },
      [&](std::vector<std::unique_ptr<Node>>& built) {
        for (std::unique_ptr<Node>& leaf : built) {
          ++num_nodes_;
          ++stats_.node_accesses;  // the new leaf is written
          leaf->prev_leaf = prev_leaf;
          if (prev_leaf != nullptr) {
            prev_leaf->next_leaf = leaf.get();
          } else {
            first_leaf_ = leaf.get();
          }
          prev_leaf = leaf.get();
          level.push_back(std::move(leaf));
        }
      });

  // ---- Phase 2b: assemble internal levels bottom-up ----
  // Each pass clusters the current level's pivots and wraps every cluster in
  // a parent node whose covering radius bounds its children via the triangle
  // inequality (parent_dist + child radius).
  while (level.size() > capacity) {
    std::unordered_map<ObjectId, size_t> index_of_pivot;
    index_of_pivot.reserve(level.size());
    std::vector<ObjectId> pivots;
    pivots.reserve(level.size());
    for (size_t i = 0; i < level.size(); ++i) {
      index_of_pivot.emplace(level[i]->pivot, i);
      pivots.push_back(level[i]->pivot);
    }

    std::vector<Cluster> groups = partitioner.Partition(std::move(pivots));
    if (groups.size() >= level.size()) {
      // All-singleton clustering (pathological ties) would never converge;
      // group the nodes positionally instead.
      groups.clear();
      for (size_t begin = 0; begin < level.size(); begin += capacity) {
        const size_t end = std::min(level.size(), begin + capacity);
        Cluster group;
        group.seed = level[begin]->pivot;
        for (size_t i = begin; i < end; ++i) {
          group.members.push_back(
              Member{level[i]->pivot, Distance(level[i]->pivot, group.seed)});
        }
        groups.push_back(std::move(group));
      }
    }

    std::vector<std::unique_ptr<Node>> next_level;
    next_level.reserve(groups.size());
    for (Cluster& group : groups) {
      auto parent = std::make_unique<Node>(/*leaf=*/false);
      ++num_nodes_;
      ++stats_.node_accesses;  // the new internal node is written
      parent->pivot = group.seed;
      double radius = 0.0;
      parent->children.reserve(group.members.size());
      for (const Member& m : group.members) {
        std::unique_ptr<Node>& child = level[index_of_pivot.at(m.id)];
        radius = std::max(radius, m.dist_to_seed + child->radius);
        parent->white_count += child->white_count;
        child->parent = parent.get();
        parent->AppendCoords(dataset_.point(child->pivot));
        parent->children.push_back(RoutingEntry{
            child->pivot, child->radius, m.dist_to_seed, std::move(child)});
      }
      parent->radius = radius;
      next_level.push_back(std::move(parent));
    }
    level = std::move(next_level);
  }

  // ---- Phase 2c: the root adopts the surviving top level ----
  root_ = std::make_unique<Node>(/*leaf=*/false);
  ++num_nodes_;
  ++stats_.node_accesses;  // the root is written
  root_->children.reserve(level.size());
  for (std::unique_ptr<Node>& child : level) {
    root_->white_count += child->white_count;
    child->parent = root_.get();
    root_->AppendCoords(dataset_.point(child->pivot));
    root_->children.push_back(
        RoutingEntry{child->pivot, child->radius, 0.0, std::move(child)});
  }

  built_ = true;
  ResetColors();
  return Status::OK();
}

}  // namespace disc
