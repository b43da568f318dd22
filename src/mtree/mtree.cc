#include "mtree/mtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "metric/metric.h"
#include "mtree/mtree_internal.h"
#include "util/parallel.h"

namespace disc {

MTree::MTree(const Dataset& dataset, const DistanceMetric& metric,
             MTreeOptions options)
    : dataset_(dataset),
      metric_(metric),
      options_(options),
      rng_state_(options.random_seed ^ 0x9e3779b97f4a7c15ULL) {}

MTree::~MTree() = default;

double MTree::Distance(ObjectId a, ObjectId b, AccessStats* sink) const {
  ++SinkOrStats(sink)->distance_computations;
  return metric_.Distance(dataset_.point(a), dataset_.point(b));
}

double MTree::DistanceToPoint(const Point& q, ObjectId b,
                              AccessStats* stats) const {
  ++stats->distance_computations;
  return metric_.Distance(q, dataset_.point(b));
}

const char* BuildStrategyToString(BuildStrategy strategy) {
  switch (strategy) {
    case BuildStrategy::kInsertAtATime:
      return "insert";
    case BuildStrategy::kBulkLoad:
      return "bulk";
  }
  return "unknown";
}

Status MTree::Build(ThreadPool* pool) {
  if (options_.build.strategy == BuildStrategy::kBulkLoad) {
    return BulkLoad(pool);
  }
  DISC_RETURN_NOT_OK(CheckBuildPreconditions());
  for (ObjectId id = 0; id < dataset_.size(); ++id) {
    Insert(id);
  }
  built_ = true;
  ResetColors();
  return Status::OK();
}

Status MTree::BuildWithNeighborCounts(double radius,
                                      std::vector<uint32_t>* counts,
                                      ThreadPool* pool) {
  DISC_RETURN_NOT_OK(CheckBuildPreconditions());
  if (radius < 0) {
    return Status::InvalidArgument("radius must be non-negative");
  }
  if (options_.build.strategy == BuildStrategy::kBulkLoad) {
    // The bulk loader has no insert loop to fold the counting into; build
    // first, then count with one range query per object. The counts are
    // identical to the insert path's (both are exact neighborhood sizes).
    DISC_RETURN_NOT_OK(BulkLoad(pool));
    ComputeNeighborCountsPostBuild(radius, counts, pool);
    return Status::OK();
  }
  counts->assign(dataset_.size(), 0);
  std::vector<Neighbor> found;
  for (ObjectId id = 0; id < dataset_.size(); ++id) {
    if (root_ != nullptr) {
      // Query the partial tree before inserting: every already-present
      // neighbor contributes 1 to the new object's count and gains 1 itself.
      // The tree is mid-construction by design, so the built_ precondition
      // does not apply here.
      found.clear();
      RangeQuery(dataset_.point(id), radius, QueryFilter::kAll,
                 /*pruned=*/false, &found);
      (*counts)[id] = static_cast<uint32_t>(found.size());
      for (const Neighbor& nb : found) ++(*counts)[nb.id];
    }
    Insert(id);
  }
  built_ = true;
  ResetColors();
  return Status::OK();
}

namespace {

// The distance a range search evaluates, from the query center to the
// entry at `coords` (a slice of a node's packed block) whose object is `id`.
// KernelDistance runs a built-in metric's loop on the packed coordinates;
// VirtualDistance makes the metric's virtual call on the dataset's Point,
// so wrappers (call counters, caches) see each evaluation.
// A nonzero kDim fixes the dimension at compile time, so the kernel's loop
// unrolls; the loop and its operation order are the same either way.
template <typename Metric, size_t kDim>
struct KernelDistance {
  size_t dim;
  double operator()(const Point& center, const double* coords,
                    ObjectId) const {
    return Metric::Kernel(center.data(), coords, kDim != 0 ? kDim : dim);
  }
};

struct VirtualDistance {
  const DistanceMetric& metric;
  const Dataset& dataset;
  double operator()(const Point& center, const double*, ObjectId id) const {
    return metric.Distance(center, dataset.point(id));
  }
};

// Calls `fn(dist)` with the distance every range search of `metric` uses:
// a built-in metric's kernel, picked by exact dynamic type (the built-in
// metrics are final) so the search inlines it — with the dimension fixed
// for the paper's 2-D workloads — or the virtual call for any other metric.
template <typename Fn>
void WithRangeDistance(const DistanceMetric& metric, const Dataset& dataset,
                       Fn&& fn) {
  const std::type_info& type = typeid(metric);
  const size_t dim = dataset.dim();
  auto kernel = [&]<typename Metric>() {
    if (dim == 2) {
      fn(KernelDistance<Metric, 2>{dim});
    } else {
      fn(KernelDistance<Metric, 0>{dim});
    }
  };
  if (type == typeid(EuclideanMetric)) {
    kernel.template operator()<EuclideanMetric>();
  } else if (type == typeid(ManhattanMetric)) {
    kernel.template operator()<ManhattanMetric>();
  } else if (type == typeid(ChebyshevMetric)) {
    kernel.template operator()<ChebyshevMetric>();
  } else if (type == typeid(HammingMetric)) {
    kernel.template operator()<HammingMetric>();
  } else {
    fn(VirtualDistance{metric, dataset});
  }
}

// What a range search does with a block of evaluated leaf entries — object
// ids and their distances, in entry order — returning how many lie in the
// ball: the queries append those, the count pass needs only their number.
// Neither branches on the distances.
struct AppendNeighbor {
  std::vector<Neighbor>* out;
  uint32_t operator()(const ObjectId* objects, const double* dists,
                      size_t count, double radius) const {
    // Write every candidate, advance past the in-ball ones, then drop the
    // tail.
    const size_t base = out->size();
    out->resize(base + count);
    Neighbor* const dst = out->data() + base;
    size_t in_ball = 0;
    for (size_t i = 0; i < count; ++i) {
      dst[in_ball] = Neighbor{objects[i], dists[i]};
      in_ball += dists[i] <= radius;
    }
    out->resize(base + in_ball);
    return static_cast<uint32_t>(in_ball);
  }
};

struct CountOnly {
  uint32_t operator()(const ObjectId*, const double* dists, size_t count,
                      double radius) const {
    uint32_t in_ball = 0;
    for (size_t i = 0; i < count; ++i) in_ball += dists[i] <= radius;
    return in_ball;
  }
};

// Leaf entries are filtered, charged and evaluated in blocks of this many,
// so the survivor buffers live on the stack at any node capacity.
constexpr size_t kLeafScanBlock = 64;

}  // namespace

void MTree::ComputeNeighborCountsPostBuild(double radius,
                                           std::vector<uint32_t>* counts,
                                           ThreadPool* pool,
                                           AccessStats* sink) {
  assert(built_);
  AccessStats* const target = SinkOrStats(sink);
  const size_t n = dataset_.size();
  counts->assign(n, 0);
  const size_t grain = RecommendedGrain(n, pool);
  // Each chunk counts under a private AccessStats and writes its own slice
  // of `counts`; the chunk sinks are added to `target` in chunk order. A
  // null or 1-thread pool runs the chunks in order on the calling thread,
  // so every thread count gives the same counts and totals.
  WithRangeDistance(metric_, dataset_, [&](const auto& dist) {
    ParallelOrderedReduce<AccessStats>(
        pool, 0, n, grain,
        [&](size_t chunk_begin, size_t chunk_end) {
          AccessStats local;
          for (size_t id = chunk_begin; id < chunk_end; ++id) {
            const ObjectId center = static_cast<ObjectId>(id);
            ++local.range_queries;
            (*counts)[id] = RangeSearchNode(
                root_.get(), dataset_.point(center), radius,
                std::numeric_limits<double>::quiet_NaN(), QueryFilter::kAll,
                /*pruned=*/false, center, dist, CountOnly{}, /*spec=*/nullptr,
                &local);
          }
          return local;
        },
        [&](AccessStats& local) { *target += local; });
  });
}

Status MTree::CheckBuildPreconditions() const {
  if (built_ || root_ != nullptr) {
    return Status::FailedPrecondition("tree already built");
  }
  if (options_.node_capacity < 2) {
    return Status::InvalidArgument("node capacity must be at least 2, got " +
                                   std::to_string(options_.node_capacity));
  }
  if (dataset_.empty()) {
    return Status::InvalidArgument(
        "cannot build an M-tree over an empty dataset");
  }
  return Status::OK();
}

void MTree::InitObjectState() {
  leaf_of_.assign(dataset_.size(), nullptr);
  colors_.assign(dataset_.size(), Color::kWhite);
  closest_black_dist_.assign(dataset_.size(),
                             std::numeric_limits<double>::infinity());
  total_white_ = dataset_.size();
}

void MTree::Insert(ObjectId id) {
  const Point& p = dataset_.point(id);
  if (root_ == nullptr) {
    root_ = std::make_unique<Node>(/*leaf=*/true);
    first_leaf_ = root_.get();
    num_nodes_ = 1;
    InitObjectState();
  }

  Node* node = root_.get();
  ++stats_.node_accesses;
  while (!node->is_leaf) {
    // Choose the child needing the least covering-radius enlargement,
    // preferring children that already contain the point.
    size_t best = 0;
    double best_inside = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_dist = 0.0;
    bool found_inside = false;
    for (size_t i = 0; i < node->children.size(); ++i) {
      RoutingEntry& entry = node->children[i];
      double d = DistanceToPoint(p, entry.pivot, &stats_);
      if (d <= entry.radius) {
        if (!found_inside || d < best_inside) {
          found_inside = true;
          best_inside = d;
          best = i;
          best_dist = d;
        }
      } else if (!found_inside) {
        double enlarge = d - entry.radius;
        if (enlarge < best_enlarge) {
          best_enlarge = enlarge;
          best = i;
          best_dist = d;
        }
      }
    }
    RoutingEntry& chosen = node->children[best];
    if (best_dist > chosen.radius) {
      chosen.radius = best_dist;
      chosen.child->radius = best_dist;
    }
    node = chosen.child.get();
    ++stats_.node_accesses;
  }

  double parent_dist = node->pivot == kInvalidObject
                           ? 0.0
                           : DistanceToPoint(p, node->pivot, &stats_);
  node->objects.push_back(LeafEntry{id, parent_dist});
  node->AppendCoords(p);
  leaf_of_[id] = node;
  AdjustWhiteCount(node, +1);

  if (node->objects.size() > options_.node_capacity) {
    SplitNode(node);
  }
}

void MTree::AdjustWhiteCount(Node* leaf, int delta) {
  for (Node* n = leaf; n != nullptr; n = n->parent) {
    n->white_count = static_cast<uint32_t>(
        static_cast<int64_t>(n->white_count) + delta);
  }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

void MTree::RangeQuery(const Point& center, double radius, QueryFilter filter,
                       bool pruned, std::vector<Neighbor>* out,
                       AccessStats* sink) const {
  // No built_ precondition: BuildWithNeighborCounts queries the partial
  // tree before inserting each object.
  assert(root_ != nullptr);
  AccessStats* const stats = SinkOrStats(sink);
  ++stats->range_queries;
  WithRangeDistance(metric_, dataset_, [&](const auto& dist) {
    RangeSearchNode(root_.get(), center, radius,
                    std::numeric_limits<double>::quiet_NaN(), filter, pruned,
                    kInvalidObject, dist, AppendNeighbor{out},
                    /*spec=*/nullptr, stats);
  });
}

// Speculation bookkeeping for traced queries: the trace being recorded plus
// the black-center simulation (the center's leaf-to-root ancestor path,
// empty when no assumption applies — the center was not white, or the query
// is a bottom-up one).
struct MTree::SpecState {
  QueryTrace* trace = nullptr;
  std::vector<const Node*> black_path;
};

void MTree::RangeQueryAround(ObjectId center, double radius,
                             QueryFilter filter, bool pruned,
                             std::vector<Neighbor>* out, QueryTrace* trace,
                             AccessStats* sink) const {
  assert(built_);
  AccessStats* const stats = SinkOrStats(sink);
  ++stats->range_queries;
  SpecState spec;
  spec.trace = trace;
  if (trace != nullptr && colors_[center] == Color::kWhite) {
    for (const Node* n = leaf_of_[center]; n != nullptr; n = n->parent) {
      spec.black_path.push_back(n);
    }
  }
  WithRangeDistance(metric_, dataset_, [&](const auto& dist) {
    RangeSearchNode(root_.get(), dataset_.point(center), radius,
                    std::numeric_limits<double>::quiet_NaN(), filter, pruned,
                    center, dist, AppendNeighbor{out},
                    trace == nullptr ? nullptr : &spec, stats);
  });
}

uint32_t MTree::EffectiveWhiteCount(const Node* node,
                                    const SpecState* spec) const {
  uint32_t wc = node->white_count;
  if (spec != nullptr && wc > 0) {
    for (const Node* p : spec->black_path) {
      if (p == node) return wc - 1;
    }
  }
  return wc;
}

template <typename Dist, typename Hit>
uint32_t MTree::RangeSearchNode(const Node* node, const Point& center,
                                double radius, double dist_to_pivot,
                                QueryFilter filter, bool pruned,
                                ObjectId exclude, const Dist& dist,
                                const Hit& hit, SpecState* spec,
                                AccessStats* stats) const {
  ++stats->node_accesses;
  const bool have_parent_dist = !std::isnan(dist_to_pivot);
  const size_t dim = dataset_.dim();
  assert(center.dim() == dim);
  const double* const coords = node->coords.data();
  uint32_t hits = 0;
  if (node->is_leaf) {
    // Filter, charge, evaluate: each block's entries that pass the exclude,
    // white and parent-distance filters are compacted into `survivors`
    // (entry indices) and `objects` without a data-dependent branch, then
    // exactly those are charged and measured, in entry order.
    const bool white_gated = filter == QueryFilter::kWhiteOnly;
    const LeafEntry* const entries = node->objects.data();
    const size_t count = node->objects.size();
    uint32_t survivors[kLeafScanBlock];
    ObjectId objects[kLeafScanBlock];
    double dists[kLeafScanBlock];
    for (size_t begin = 0; begin < count; begin += kLeafScanBlock) {
      const size_t end = std::min(count, begin + kLeafScanBlock);
      size_t kept = 0;
      for (size_t k = begin; k < end; ++k) {
        const LeafEntry& entry = entries[k];
        bool keep = entry.object != exclude;
        if (white_gated) keep &= colors_[entry.object] == Color::kWhite;
        // Triangle-inequality shortcut via the precomputed parent distance.
        // Objects it skips never cost a distance computation whatever their
        // color, so only objects surviving it go into the trace.
        if (have_parent_dist) {
          keep &= !(std::fabs(dist_to_pivot - entry.parent_dist) > radius);
        }
        survivors[kept] = static_cast<uint32_t>(k);
        objects[kept] = entry.object;
        kept += keep;
      }
      stats->distance_computations += kept;
      if (white_gated && spec != nullptr) {
        spec->trace->whites.insert(spec->trace->whites.end(), objects,
                                   objects + kept);
      }
      for (size_t i = 0; i < kept; ++i) {
        dists[i] = dist(center, coords + survivors[i] * dim, objects[i]);
      }
      hits += hit(objects, dists, kept, radius);
    }
    return hits;
  }
  for (size_t k = 0; k < node->children.size(); ++k) {
    const RoutingEntry& entry = node->children[k];
    bool white_gated = false;
    if (pruned) {
      const uint32_t wc = spec == nullptr
                              ? entry.child->white_count
                              : EffectiveWhiteCount(entry.child.get(), spec);
      if (wc == 0) continue;
      white_gated = true;
    }
    if (have_parent_dist &&
        std::fabs(dist_to_pivot - entry.parent_dist) > radius + entry.radius) {
      continue;
    }
    // Past the geometric shortcut the pivot distance is computed
    // unconditionally, so a white-gated child that loses its last white
    // object invalidates the speculation (the untraced query would skip the
    // computation). Shortcut-skipped children cost nothing either way.
    if (white_gated && spec != nullptr) {
      spec->trace->nodes.push_back(entry.child.get());
    }
    ++stats->distance_computations;
    const double d = dist(center, coords + k * dim, entry.pivot);
    if (d <= radius + entry.radius) {
      hits += RangeSearchNode(entry.child.get(), center, radius, d, filter,
                              pruned, exclude, dist, hit, spec, stats);
    }
  }
  return hits;
}

void MTree::LeafMatesWithin(ObjectId center, double radius,
                            std::vector<Neighbor>* out,
                            AccessStats* sink) const {
  assert(built_);
  AccessStats* const stats = SinkOrStats(sink);
  const Node* leaf = leaf_of_[center];
  ++stats->node_accesses;
  const Point& q = dataset_.point(center);
  for (const LeafEntry& entry : leaf->objects) {
    if (entry.object == center) continue;
    double d = DistanceToPoint(q, entry.object, stats);
    if (d <= radius) out->push_back(Neighbor{entry.object, d});
  }
}

void MTree::RangeQueryBottomUp(ObjectId center, double radius,
                               QueryFilter filter, bool pruned,
                               bool stop_at_grey, std::vector<Neighbor>* out,
                               QueryTrace* trace, AccessStats* sink) const {
  assert(built_);
  AccessStats* const stats = SinkOrStats(sink);
  ++stats->range_queries;
  const Point& q = dataset_.point(center);
  const AppendNeighbor hit{out};
  SpecState spec;
  spec.trace = trace;
  SpecState* const spec_ptr = trace == nullptr ? nullptr : &spec;

  // Search the object's own leaf first, then climb: at every ancestor,
  // search the sibling subtrees that intersect the query ball. Climbing to
  // the root makes this exactly equivalent to the top-down query; with
  // stop_at_grey (Fast-C), the climb ends at the first all-grey ancestor,
  // deliberately accepting that whites in distant leaves are missed (§5.1).
  WithRangeDistance(metric_, dataset_, [&](const auto& dist) {
    const Node* node = leaf_of_[center];
    const double d_node = node->pivot == kInvalidObject
                              ? std::numeric_limits<double>::quiet_NaN()
                              : DistanceToPoint(q, node->pivot, stats);
    RangeSearchNode(node, q, radius, d_node, filter, pruned, center, dist,
                    hit, spec_ptr, stats);

    const size_t dim = dataset_.dim();
    while (node->parent != nullptr) {
      const Node* parent = node->parent;
      if (stop_at_grey) {
        // parent->white_count == 0 means the whole climbed-into subtree is
        // grey. A break needs no trace entry: the counter can only fall
        // further, so a later query would break too. A climb-past is a
        // commitment the validation must re-check.
        if (parent->white_count == 0) break;
        if (trace != nullptr) trace->nodes.push_back(parent);
      }
      ++stats->node_accesses;  // reading the parent's entries
      for (size_t k = 0; k < parent->children.size(); ++k) {
        const RoutingEntry& entry = parent->children[k];
        if (entry.child.get() == node) continue;  // already covered below
        if (pruned) {
          if (entry.child->white_count == 0) continue;
          // No geometric shortcut on this path — the pivot distance is
          // computed right away, so the gate goes straight into the trace.
          if (trace != nullptr) trace->nodes.push_back(entry.child.get());
        }
        ++stats->distance_computations;
        const double d = dist(q, parent->coords.data() + k * dim, entry.pivot);
        if (d <= radius + entry.radius) {
          RangeSearchNode(entry.child.get(), q, radius, d, filter, pruned,
                          center, dist, hit, spec_ptr, stats);
        }
      }
      node = parent;
    }
  });
}

bool MTree::SpeculationValid(const QueryTrace& trace) const {
  for (const Node* node : trace.nodes) {
    if (node->white_count == 0) return false;
  }
  for (ObjectId id : trace.whites) {
    if (colors_[id] != Color::kWhite) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Colors & zooming support
// ---------------------------------------------------------------------------

MTree::ColorState MTree::SaveColorState() const {
  assert(built_);
  return ColorState{colors_, closest_black_dist_};
}

Status MTree::RestoreColorState(const ColorState& state) {
  assert(built_);
  if (state.colors.size() != dataset_.size() ||
      state.closest_black_dist.size() != dataset_.size()) {
    return Status::InvalidArgument(
        "color state size does not match the dataset (" +
        std::to_string(state.colors.size()) + " colors, " +
        std::to_string(state.closest_black_dist.size()) + " distances, " +
        std::to_string(dataset_.size()) + " objects)");
  }
  colors_ = state.colors;
  closest_black_dist_ = state.closest_black_dist;
  total_white_ = 0;
  for (Color c : colors_) {
    if (c == Color::kWhite) ++total_white_;
  }
  RecomputeWhiteCounts(root_.get());
  return Status::OK();
}

void MTree::ResetColors() {
  assert(built_);
  colors_.assign(dataset_.size(), Color::kWhite);
  total_white_ = dataset_.size();
  ResetClosestBlackDistances();
  RecomputeWhiteCounts(root_.get());
}

uint32_t MTree::RecomputeWhiteCounts(Node* node) {
  if (node->is_leaf) {
    uint32_t count = 0;
    for (const LeafEntry& entry : node->objects) {
      if (colors_[entry.object] == Color::kWhite) ++count;
    }
    node->white_count = count;
    return count;
  }
  uint32_t count = 0;
  for (RoutingEntry& entry : node->children) {
    count += RecomputeWhiteCounts(entry.child.get());
  }
  node->white_count = count;
  return count;
}

void MTree::SetColor(ObjectId id, Color color) {
  Color old = colors_[id];
  if (old == color) return;
  colors_[id] = color;
  bool was_white = old == Color::kWhite;
  bool is_white = color == Color::kWhite;
  if (was_white && !is_white) {
    AdjustWhiteCount(leaf_of_[id], -1);
    --total_white_;
  } else if (!was_white && is_white) {
    AdjustWhiteCount(leaf_of_[id], +1);
    ++total_white_;
  }
}

std::vector<ObjectId> MTree::ObjectsWithColor(Color color) const {
  std::vector<ObjectId> result;
  for (ObjectId id = 0; id < colors_.size(); ++id) {
    if (colors_[id] == color) result.push_back(id);
  }
  return result;
}

void MTree::ObserveBlackNeighbor(ObjectId id, double dist) {
  if (dist < closest_black_dist_[id]) closest_black_dist_[id] = dist;
}

void MTree::ClearClosestBlackDistance(ObjectId id) {
  closest_black_dist_[id] = std::numeric_limits<double>::infinity();
}

void MTree::ResetClosestBlackDistances() {
  closest_black_dist_.assign(dataset_.size(),
                             std::numeric_limits<double>::infinity());
}

void MTree::RecomputeClosestBlackDistances(double radius) {
  assert(built_);
  ResetClosestBlackDistances();
  std::vector<Neighbor> found;
  for (ObjectId id = 0; id < colors_.size(); ++id) {
    if (colors_[id] != Color::kBlack) continue;
    found.clear();
    RangeQueryAround(id, radius, QueryFilter::kAll, /*pruned=*/false, &found);
    for (const Neighbor& nb : found) ObserveBlackNeighbor(nb.id, nb.dist);
  }
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

std::vector<ObjectId> MTree::LeafOrder() const {
  assert(built_);
  std::vector<ObjectId> order;
  order.reserve(dataset_.size());
  for (const Node* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next_leaf) {
    for (const LeafEntry& entry : leaf->objects) {
      order.push_back(entry.object);
    }
  }
  return order;
}

void MTree::ScanLeaves(bool skip_grey_leaves,
                       const std::function<void(ObjectId)>& fn) const {
  assert(built_);
  for (const Node* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next_leaf) {
    if (skip_grey_leaves && leaf->white_count == 0) continue;
    ++stats_.node_accesses;
    for (const LeafEntry& entry : leaf->objects) {
      fn(entry.object);
    }
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

size_t MTree::num_leaves() const {
  size_t count = 0;
  for (const Node* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next_leaf) {
    ++count;
  }
  return count;
}

size_t MTree::height() const {
  if (root_ == nullptr) return 0;
  size_t h = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children.front().child.get();
    ++h;
  }
  return h;
}

uint64_t MTree::PointQueryAccesses(const Point& q) const {
  // Visits every node whose covering ball contains q (no early exit), which
  // is what the fat-factor of Traina et al. measures: an overlap-free tree
  // visits exactly one node per level.
  uint64_t accesses = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    ++accesses;
    if (node->is_leaf) continue;
    for (const RoutingEntry& entry : node->children) {
      double d = metric_.Distance(q, dataset_.point(entry.pivot));
      if (d <= entry.radius) stack.push_back(entry.child.get());
    }
  }
  return accesses;
}

double MTree::FatFactor() const {
  assert(built_);
  const size_t n = dataset_.size();
  const size_t h = height();
  const size_t m = num_nodes_;
  if (m <= h) return 0.0;
  uint64_t total = 0;
  for (ObjectId id = 0; id < n; ++id) {
    total += PointQueryAccesses(dataset_.point(id));
  }
  double z = static_cast<double>(total);
  return (z - static_cast<double>(n) * h) /
         (static_cast<double>(n) * static_cast<double>(m - h));
}

// ---------------------------------------------------------------------------
// Validation (tests)
// ---------------------------------------------------------------------------

Status MTree::Validate() const {
  if (!built_) return Status::FailedPrecondition("tree not built");

  // Uniform leaf depth.
  size_t leaf_depth = height();

  size_t node_count = 0;
  DISC_RETURN_NOT_OK(ValidateNode(root_.get(), 1, leaf_depth, &node_count));
  if (node_count != num_nodes_) {
    return Status::Corruption("node counter records " +
                              std::to_string(num_nodes_) + " nodes, tree has " +
                              std::to_string(node_count));
  }

  // Leaf chain covers every object exactly once.
  std::vector<char> seen(dataset_.size(), 0);
  size_t chained = 0;
  const Node* prev = nullptr;
  for (const Node* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next_leaf) {
    if (leaf->prev_leaf != prev) {
      return Status::Corruption("leaf chain prev pointer broken");
    }
    prev = leaf;
    for (const LeafEntry& entry : leaf->objects) {
      if (entry.object >= dataset_.size() || seen[entry.object]) {
        return Status::Corruption("leaf chain enumerates object " +
                                  std::to_string(entry.object) + " twice");
      }
      seen[entry.object] = 1;
      ++chained;
      if (leaf_of_[entry.object] != leaf) {
        return Status::Corruption("leaf_of map stale for object " +
                                  std::to_string(entry.object));
      }
    }
  }
  if (chained != dataset_.size()) {
    return Status::Corruption("leaf chain holds " + std::to_string(chained) +
                              " of " + std::to_string(dataset_.size()) +
                              " objects");
  }

  // White counters match colors.
  size_t whites = 0;
  for (Color c : colors_) {
    if (c == Color::kWhite) ++whites;
  }
  if (whites != total_white_) {
    return Status::Corruption("total white counter out of sync");
  }
  if (root_->white_count != whites) {
    return Status::Corruption("root white counter out of sync");
  }
  return Status::OK();
}

Status MTree::ValidateContainment(const Node* node, ObjectId pivot,
                                  double radius) const {
  if (node->is_leaf) {
    for (const LeafEntry& entry : node->objects) {
      double d = metric_.Distance(dataset_.point(entry.object),
                                  dataset_.point(pivot));
      if (d > radius + 1e-9) {
        return Status::Corruption("object " + std::to_string(entry.object) +
                                  " escapes covering radius of pivot " +
                                  std::to_string(pivot));
      }
    }
    return Status::OK();
  }
  for (const RoutingEntry& entry : node->children) {
    DISC_RETURN_NOT_OK(ValidateContainment(entry.child.get(), pivot, radius));
  }
  return Status::OK();
}

Status MTree::ValidateNode(const Node* node, size_t depth, size_t leaf_depth,
                           size_t* node_count) const {
  ++*node_count;
  const size_t entries = node->size();
  if (node != root_.get() && entries == 0) {
    return Status::Corruption("non-root node is empty");
  }
  if (entries > options_.node_capacity) {
    return Status::Corruption("node exceeds capacity");
  }
  // The packed coordinate block mirrors the entries' objects or pivots.
  const size_t dim = dataset_.dim();
  if (node->coords.size() != entries * dim) {
    return Status::Corruption(
        "coordinate block holds " + std::to_string(node->coords.size()) +
        " values for " + std::to_string(entries) + " entries of dim " +
        std::to_string(dim));
  }
  for (size_t k = 0; k < entries; ++k) {
    const ObjectId id =
        node->is_leaf ? node->objects[k].object : node->children[k].pivot;
    if (std::memcmp(node->coords.data() + k * dim,
                    dataset_.point(id).data(), dim * sizeof(double)) != 0) {
      return Status::Corruption("coordinate block entry " + std::to_string(k) +
                                " differs from object " + std::to_string(id));
    }
  }
  if (node->is_leaf) {
    if (depth != leaf_depth) {
      return Status::Corruption("leaf at depth " + std::to_string(depth) +
                                ", expected " + std::to_string(leaf_depth));
    }
    uint32_t whites = 0;
    for (const LeafEntry& entry : node->objects) {
      if (colors_[entry.object] == Color::kWhite) ++whites;
      if (node->pivot != kInvalidObject) {
        double d = metric_.Distance(dataset_.point(entry.object),
                                    dataset_.point(node->pivot));
        if (std::fabs(d - entry.parent_dist) > 1e-9) {
          return Status::Corruption("leaf entry parent_dist incorrect");
        }
        if (d > node->radius + 1e-9) {
          return Status::Corruption("object outside leaf covering radius");
        }
      }
    }
    if (whites != node->white_count) {
      return Status::Corruption("leaf white counter out of sync");
    }
    return Status::OK();
  }

  uint32_t white_sum = 0;
  for (const RoutingEntry& entry : node->children) {
    const Node* child = entry.child.get();
    if (child->parent != node) {
      return Status::Corruption("child parent pointer broken");
    }
    if (child->pivot != entry.pivot) {
      return Status::Corruption("child pivot mirror out of sync");
    }
    if (std::fabs(child->radius - entry.radius) > 1e-12) {
      return Status::Corruption("child radius mirror out of sync");
    }
    if (node->pivot != kInvalidObject) {
      double d = metric_.Distance(dataset_.point(entry.pivot),
                                  dataset_.point(node->pivot));
      if (std::fabs(d - entry.parent_dist) > 1e-9) {
        return Status::Corruption("routing entry parent_dist incorrect");
      }
    }
    // Covering property: every object stored below the child lies within the
    // child's covering radius. (Child *balls* need not nest inside parent
    // balls — insertion enlarges radii only along the descent path — so only
    // object containment is an invariant.)
    DISC_RETURN_NOT_OK(ValidateContainment(child, entry.pivot, entry.radius));
    white_sum += child->white_count;
    DISC_RETURN_NOT_OK(ValidateNode(child, depth + 1, leaf_depth, node_count));
  }
  if (white_sum != node->white_count) {
    return Status::Corruption("internal white counter out of sync");
  }
  return Status::OK();
}

}  // namespace disc
