// Node splitting: promote two pivots, partition the overflowing node's
// entries between them, and wire the two new nodes into the parent
// (recursively splitting the parent on overflow). The promote/partition
// policy combinations reproduce the fat-factor spectrum of Figure 10.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "mtree/mtree.h"
#include "mtree/mtree_internal.h"

namespace disc {

void MTree::SplitNode(Node* node) {
  const bool is_leaf = node->is_leaf;
  const size_t count = node->size();
  assert(count > options_.node_capacity);
  ++stats_.node_accesses;  // the overflowing node is rewritten

  // Collect the ids the entries are centered on (objects for leaves, child
  // pivots for internal nodes).
  std::vector<ObjectId> ids(count);
  if (is_leaf) {
    for (size_t i = 0; i < count; ++i) ids[i] = node->objects[i].object;
  } else {
    for (size_t i = 0; i < count; ++i) ids[i] = node->children[i].pivot;
  }

  // ---- Promote ----
  ObjectId pivot_a = kInvalidObject, pivot_b = kInvalidObject;
  switch (options_.split_policy.promote) {
    case PromotePolicy::kKeepParent: {
      // Keep the node's existing pivot; promote the entry farthest from it.
      // A freshly split root has no pivot: fall back to the first entry.
      pivot_a = node->pivot != kInvalidObject ? node->pivot : ids[0];
      double best = -1.0;
      for (ObjectId id : ids) {
        if (id == pivot_a) continue;
        double d = Distance(pivot_a, id);
        if (d > best) {
          best = d;
          pivot_b = id;
        }
      }
      break;
    }
    case PromotePolicy::kMaxDistance: {
      double best = -1.0;
      for (size_t i = 0; i < count; ++i) {
        for (size_t j = i + 1; j < count; ++j) {
          double d = Distance(ids[i], ids[j]);
          if (d > best) {
            best = d;
            pivot_a = ids[i];
            pivot_b = ids[j];
          }
        }
      }
      break;
    }
    case PromotePolicy::kRandom: {
      size_t i = static_cast<size_t>(NextRandom(&rng_state_) % count);
      size_t j = static_cast<size_t>(NextRandom(&rng_state_) % (count - 1));
      if (j >= i) ++j;
      pivot_a = ids[i];
      pivot_b = ids[j];
      break;
    }
  }
  assert(pivot_a != kInvalidObject && pivot_b != kInvalidObject);
  assert(pivot_a != pivot_b);

  // ---- Partition ----
  // Distances from every entry's center to both pivots.
  std::vector<double> da(count), db(count);
  for (size_t i = 0; i < count; ++i) {
    da[i] = Distance(ids[i], pivot_a);
    db[i] = Distance(ids[i], pivot_b);
  }

  std::vector<char> to_a(count, 0);
  switch (options_.split_policy.partition) {
    case PartitionPolicy::kClosestPivot: {
      size_t size_a = 0, size_b = 0;
      for (size_t i = 0; i < count; ++i) {
        bool a_side;
        if (da[i] != db[i]) {
          a_side = da[i] < db[i];
        } else {
          a_side = size_a <= size_b;  // deterministic tie-break
        }
        to_a[i] = a_side;
        (a_side ? size_a : size_b)++;
      }
      // Minimum-fill guarantee (standard M-tree utilization bound): without
      // it, the keep-parent policy produces chronically underfilled siblings
      // and ~25% more nodes, which dominates query cost at large radii.
      // Top up the small side with the entries whose pivot-distance margin
      // is smallest (they fit the small side's ball almost as well).
      const size_t min_fill = std::max<size_t>(1, count / 3);
      while (std::min(size_a, size_b) < min_fill) {
        const bool fill_a = size_a < size_b;
        size_t best = count;  // invalid
        double best_margin = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < count; ++i) {
          if (to_a[i] == fill_a) continue;
          double margin = fill_a ? da[i] - db[i] : db[i] - da[i];
          if (margin < best_margin) {
            best_margin = margin;
            best = i;
          }
        }
        to_a[best] = fill_a;
        (fill_a ? size_a : size_b)++;
        (fill_a ? size_b : size_a)--;
      }
      break;
    }
    case PartitionPolicy::kBalanced: {
      // Sort by how much closer the entry is to pivot A, then give the first
      // half to A — equal fanout regardless of geometry.
      std::vector<size_t> order(count);
      for (size_t i = 0; i < count; ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return (da[x] - db[x]) < (da[y] - db[y]);
      });
      for (size_t k = 0; k < count; ++k) {
        to_a[order[k]] = k < (count + 1) / 2;
      }
      break;
    }
  }

  // ---- Rebuild the two nodes ----
  // `node` is reused for side A (it keeps its slot in the parent and, for
  // leaves, its place in the leaf chain); `sibling` is fresh for side B.
  auto sibling = std::make_unique<Node>(is_leaf);
  Node* sib = sibling.get();
  ++num_nodes_;
  ++stats_.node_accesses;  // the new sibling is written

  double radius_a = 0.0, radius_b = 0.0;
  if (is_leaf) {
    std::vector<LeafEntry> entries = std::move(node->objects);
    node->objects.clear();
    node->coords.clear();
    uint32_t white_a = 0, white_b = 0;
    for (size_t i = 0; i < count; ++i) {
      Node* target = to_a[i] ? node : sib;
      double pd = to_a[i] ? da[i] : db[i];
      target->objects.push_back(LeafEntry{entries[i].object, pd});
      target->AppendCoords(dataset_.point(entries[i].object));
      leaf_of_[entries[i].object] = target;
      bool white =
          colors_.empty() || colors_[entries[i].object] == Color::kWhite;
      if (white) (to_a[i] ? white_a : white_b)++;
      (to_a[i] ? radius_a : radius_b) =
          std::max(to_a[i] ? radius_a : radius_b, pd);
    }
    node->white_count = white_a;
    sib->white_count = white_b;
    // Splice the sibling into the leaf chain right after `node`.
    sib->next_leaf = node->next_leaf;
    sib->prev_leaf = node;
    if (node->next_leaf != nullptr) node->next_leaf->prev_leaf = sib;
    node->next_leaf = sib;
  } else {
    std::vector<RoutingEntry> entries = std::move(node->children);
    node->children.clear();
    node->coords.clear();
    uint32_t white_a = 0, white_b = 0;
    for (size_t i = 0; i < count; ++i) {
      Node* target = to_a[i] ? node : sib;
      double pd = to_a[i] ? da[i] : db[i];
      double reach = pd + entries[i].radius;  // upper bound via triangle ineq.
      (to_a[i] ? radius_a : radius_b) =
          std::max(to_a[i] ? radius_a : radius_b, reach);
      (to_a[i] ? white_a : white_b) += entries[i].child->white_count;
      entries[i].parent_dist = pd;
      entries[i].child->parent = target;
      target->AppendCoords(dataset_.point(entries[i].pivot));
      target->children.push_back(std::move(entries[i]));
    }
    node->white_count = white_a;
    sib->white_count = white_b;
  }

  node->pivot = pivot_a;
  node->radius = radius_a;
  sib->pivot = pivot_b;
  sib->radius = radius_b;

  // ---- Wire into the parent ----
  if (node == root_.get()) {
    auto new_root = std::make_unique<Node>(/*leaf=*/false);
    ++num_nodes_;
    ++stats_.node_accesses;  // the new root is written
    new_root->white_count = node->white_count + sib->white_count;
    std::unique_ptr<Node> old_root = std::move(root_);
    old_root->parent = new_root.get();
    sib->parent = new_root.get();
    new_root->children.push_back(
        RoutingEntry{pivot_a, radius_a, 0.0, std::move(old_root)});
    new_root->children.push_back(
        RoutingEntry{pivot_b, radius_b, 0.0, std::move(sibling)});
    new_root->AppendCoords(dataset_.point(pivot_a));
    new_root->AppendCoords(dataset_.point(pivot_b));
    root_ = std::move(new_root);
    return;
  }

  Node* parent = node->parent;
  ++stats_.node_accesses;  // the parent is rewritten
  sib->parent = parent;
  size_t slot = 0;
  while (slot < parent->children.size() &&
         parent->children[slot].child.get() != node) {
    ++slot;
  }
  assert(slot < parent->children.size());

  RoutingEntry& entry_a = parent->children[slot];
  entry_a.pivot = pivot_a;
  entry_a.radius = radius_a;
  entry_a.parent_dist =
      parent->pivot == kInvalidObject ? 0.0 : Distance(pivot_a, parent->pivot);

  RoutingEntry entry_b;
  entry_b.pivot = pivot_b;
  entry_b.radius = radius_b;
  entry_b.parent_dist =
      parent->pivot == kInvalidObject ? 0.0 : Distance(pivot_b, parent->pivot);
  entry_b.child = std::move(sibling);
  parent->children.insert(parent->children.begin() + slot + 1,
                          std::move(entry_b));
  // Keep the parent's coordinate block in step: slot now routes through
  // pivot_a, and pivot_b's coordinates go in right after it.
  const size_t dim = dataset_.dim();
  const Point& coords_a = dataset_.point(pivot_a);
  const Point& coords_b = dataset_.point(pivot_b);
  std::copy(coords_a.data(), coords_a.data() + dim,
            parent->coords.begin() + slot * dim);
  parent->coords.insert(parent->coords.begin() + (slot + 1) * dim,
                        coords_b.data(), coords_b.data() + dim);

  if (parent->children.size() > options_.node_capacity) {
    SplitNode(parent);
  }
}

}  // namespace disc
