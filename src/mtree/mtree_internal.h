// Internal node layout of the M-tree, shared by mtree.cc and split.cc.
// Not part of the public API.

#ifndef DISC_MTREE_MTREE_INTERNAL_H_
#define DISC_MTREE_MTREE_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "mtree/mtree.h"

namespace disc {

/// xorshift64: deterministic stream shared by PromotePolicy::kRandom and the
/// bulk loader's seed sampling. Both consume MTree::rng_state_, so a tree's
/// shape is a pure function of (dataset, options).
inline uint64_t NextRandom(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

/// Internal-node entry: routes to a child subtree whose objects all lie
/// within `radius` of `pivot`.
struct MTree::RoutingEntry {
  ObjectId pivot = kInvalidObject;
  double radius = 0.0;       // covering radius of the subtree
  double parent_dist = 0.0;  // d(pivot, owning node's pivot); 0 at the root
  std::unique_ptr<Node> child;
};

/// Leaf entry: one indexed object.
struct MTree::LeafEntry {
  ObjectId object = kInvalidObject;
  double parent_dist = 0.0;  // d(object, owning leaf's pivot)
};

struct MTree::Node {
  explicit Node(bool leaf) : is_leaf(leaf) {}

  bool is_leaf;
  Node* parent = nullptr;

  /// The object this node is centered on (the pivot of the routing entry
  /// pointing at it). kInvalidObject for the root.
  ObjectId pivot = kInvalidObject;
  /// Mirror of the parent routing entry's covering radius (+inf at the root);
  /// kept on the node so bottom-up climbs need not search the parent.
  double radius = std::numeric_limits<double>::infinity();

  std::vector<RoutingEntry> children;  // internal nodes only
  std::vector<LeafEntry> objects;      // leaf nodes only

  /// Packed coordinates of the entries, in entry order: a leaf's block holds
  /// objects[k]'s coordinates at k*dim, an internal node's block holds
  /// children[k].pivot's. Range searches read distances' second operand from
  /// here instead of chasing each object's Point, so every mutation of
  /// `objects` or `children` (bulk load, Insert, SplitNode, new roots) keeps
  /// the block in step. Costs size()*dim doubles per node: about
  /// n*dim*8 bytes over the leaves (320 KB at n=20k, dim=2).
  std::vector<double> coords;

  // Leaf chain (§5: "we link together all leaf nodes").
  Node* next_leaf = nullptr;
  Node* prev_leaf = nullptr;

  /// Leaf: number of white objects stored here. Internal: sum over children.
  /// Zero means the subtree is "grey" in the sense of the §5.1 pruning rule.
  uint32_t white_count = 0;

  size_t size() const { return is_leaf ? objects.size() : children.size(); }

  /// Appends `p` as the block's next entry.
  void AppendCoords(const Point& p) {
    coords.insert(coords.end(), p.data(), p.data() + p.dim());
  }
};

}  // namespace disc

#endif  // DISC_MTREE_MTREE_INTERNAL_H_
