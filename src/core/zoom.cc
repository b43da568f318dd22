#include "core/zoom.h"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/internal.h"
#include "core/speculation.h"
#include "util/indexed_heap.h"

namespace disc {

namespace {

// Restriction of an operation to a subset of objects (local zooming).
// A null membership vector means "everything" (global zooming).
struct Region {
  const std::vector<char>* member = nullptr;

  bool contains(ObjectId id) const {
    return member == nullptr || (*member)[id] != 0;
  }
};

// The greedy selection both zoom directions end with (Algorithm 2; lines
// 12-19 of Algorithm 3): seed the heap with every candidate white's white
// neighborhood size at r_new, then run the shared Greedy-DisC loop with
// grey-style updates. All queries can use the pruning rule because white
// counters are live again. Zooming runs serially: no pool, width 1.
// `observe_all` widens the selection query from pruned/white-only to
// unpruned/all-colors: same whites found (so the same selection sequence
// and the same heap maintenance), but already-grey neighbors of the new
// black also observe their exact distance instead of keeping an upper
// bound from some earlier black (see ZoomIn).
void GreedyCover(MTree* tree, double r_new, const std::vector<ObjectId>& whites,
                 bool observe_all, std::vector<ObjectId>* solution) {
  IndexedMaxHeap heap(tree->size());
  std::vector<Neighbor> found;
  for (ObjectId w : whites) {
    found.clear();
    tree->RangeQueryAround(w, r_new, QueryFilter::kWhiteOnly, /*pruned=*/true,
                           &found);
    heap.Push(w, static_cast<int64_t>(found.size()));
  }
  SelectionSpeculator select(
      tree, r_new, observe_all ? QueryFilter::kAll : QueryFilter::kWhiteOnly,
      /*pruned=*/!observe_all, SelectionSpeculator::QueryKind::kAround,
      /*width=*/1, /*pool=*/nullptr);
  internal::GreedyUpdate grey_style;  // white-only, pruned
  grey_style.radius = r_new;
  internal::GreedySelect(tree, &heap, &select, grey_style, /*pool=*/nullptr,
                         solution);
}

// Shared zoom-in machinery. Candidates are the region's grey objects whose
// closest black representative is farther than the new (smaller) radius.
// Returns only the *newly added* objects; callers merge with the kept ones.
std::vector<ObjectId> ZoomInCore(MTree* tree, double r_new, bool greedy,
                                 bool observe_all, const Region& region) {
  std::vector<ObjectId> added;
  if (!greedy) {
    // Zoom-In: one pass of the leaf chain. A grey object that lost its
    // representative turns black on the spot; its range query records it as
    // the new closest black of everything it now covers, so later objects in
    // the pass see up-to-date distances.
    std::vector<Neighbor> found;
    tree->ScanLeaves(/*skip_grey_leaves=*/false, [&](ObjectId id) {
      if (tree->color(id) != Color::kGrey || !region.contains(id)) return;
      if (tree->closest_black_dist(id) <= r_new) return;
      tree->SetColor(id, Color::kBlack);
      added.push_back(id);
      found.clear();
      tree->RangeQueryAround(id, r_new, QueryFilter::kAll, /*pruned=*/false,
                             &found);
      for (const Neighbor& nb : found) {
        tree->ObserveBlackNeighbor(nb.id, nb.dist);
      }
    });
    return added;
  }

  // Greedy-Zoom-In (Algorithm 2): whiten the uncovered objects, then run the
  // greedy selection over them.
  std::vector<ObjectId> whitened;
  tree->ScanLeaves(/*skip_grey_leaves=*/false, [&](ObjectId id) {
    if (tree->color(id) != Color::kGrey || !region.contains(id)) return;
    if (tree->closest_black_dist(id) <= r_new) return;
    tree->SetColor(id, Color::kWhite);
    whitened.push_back(id);
  });
  GreedyCover(tree, r_new, whitened, observe_all, &added);
  return added;
}

// Shared zoom-out machinery (Algorithm 3). Returns the region's new
// solution; callers merge with any out-of-region selection.
std::vector<ObjectId> ZoomOutCore(MTree* tree, double r_new,
                                  ZoomOutVariant variant,
                                  const Region& region) {
  const size_t n = tree->size();

  // Recolor: black -> red (awaiting confirmation), grey -> white. Old
  // closest-black observations in the region are stale now.
  std::vector<ObjectId> reds;
  for (ObjectId id = 0; id < n; ++id) {
    if (!region.contains(id)) continue;
    if (tree->color(id) == Color::kBlack) {
      tree->SetColor(id, Color::kRed);
      reds.push_back(id);
    } else if (tree->color(id) == Color::kGrey) {
      tree->SetColor(id, Color::kWhite);
    }
    tree->ClearClosestBlackDistance(id);
  }

  std::vector<ObjectId> solution;
  std::vector<Neighbor> found;

  // ---- Pass 1: confirm or drop the old selection -----------------------
  // `alive[i]` tracks which reds are still undecided.
  std::vector<char> alive(reds.size(), 1);
  std::vector<size_t> red_index(n, std::numeric_limits<size_t>::max());
  for (size_t i = 0; i < reds.size(); ++i) red_index[reds[i]] = i;

  // Red-red adjacency at the new radius, for the most/fewest-red variants
  // and for dropping covered reds in O(deg).
  std::vector<std::vector<size_t>> red_adj(reds.size());
  for (size_t i = 0; i < reds.size(); ++i) {
    for (size_t j = i + 1; j < reds.size(); ++j) {
      if (tree->Distance(reds[i], reds[j]) <= r_new) {
        red_adj[i].push_back(j);
        red_adj[j].push_back(i);
      }
    }
  }

  IndexedMaxHeap red_heap(reds.size());
  switch (variant) {
    case ZoomOutVariant::kArbitrary:
      break;  // leaf order, no heap
    case ZoomOutVariant::kGreedyMostRed:
      for (size_t i = 0; i < reds.size(); ++i) {
        red_heap.Push(i, static_cast<int64_t>(red_adj[i].size()));
      }
      break;
    case ZoomOutVariant::kGreedyFewestRed:
      for (size_t i = 0; i < reds.size(); ++i) {
        red_heap.Push(i, -static_cast<int64_t>(red_adj[i].size()));
      }
      break;
    case ZoomOutVariant::kGreedyMostWhite:
      // A white-count query per red object: this is what makes variant (c)
      // expensive (Figure 15).
      for (size_t i = 0; i < reds.size(); ++i) {
        found.clear();
        tree->RangeQueryAround(reds[i], r_new, QueryFilter::kWhiteOnly,
                               /*pruned=*/true, &found);
        red_heap.Push(i, static_cast<int64_t>(found.size()));
      }
      break;
  }

  // Confirms red #i into the new solution and greys everything it covers.
  auto select_red = [&](size_t i) {
    ObjectId pi = reds[i];
    alive[i] = 0;
    tree->SetColor(pi, Color::kBlack);
    solution.push_back(pi);
    found.clear();
    tree->RangeQueryAround(pi, r_new, QueryFilter::kAll, /*pruned=*/false,
                           &found);
    for (const Neighbor& nb : found) {
      if (!region.contains(nb.id)) continue;
      Color c = tree->color(nb.id);
      if (c == Color::kRed) {
        // A competing old pick is too close at r': drop it.
        size_t j = red_index[nb.id];
        alive[j] = 0;
        tree->SetColor(nb.id, Color::kGrey);
        if (red_heap.contains(j)) red_heap.Remove(j);
        if (variant == ZoomOutVariant::kGreedyMostRed ||
            variant == ZoomOutVariant::kGreedyFewestRed) {
          for (size_t k : red_adj[j]) {
            if (!red_heap.contains(k)) continue;
            red_heap.Adjust(
                k, variant == ZoomOutVariant::kGreedyFewestRed ? +1 : -1);
          }
        }
      } else if (c == Color::kWhite) {
        tree->SetColor(nb.id, Color::kGrey);
        if (variant == ZoomOutVariant::kGreedyMostWhite) {
          // Remaining reds near this white lose a potential covert.
          for (size_t k = 0; k < reds.size(); ++k) {
            if (!alive[k] || !red_heap.contains(k)) continue;
            if (tree->Distance(nb.id, reds[k]) <= r_new) {
              red_heap.Adjust(k, -1);
            }
          }
        }
      }
      tree->ObserveBlackNeighbor(nb.id, nb.dist);
    }
  };

  if (variant == ZoomOutVariant::kArbitrary) {
    // Leaf order over the red objects.
    tree->ScanLeaves(/*skip_grey_leaves=*/false, [&](ObjectId id) {
      if (tree->color(id) != Color::kRed) return;
      select_red(red_index[id]);
    });
  } else {
    while (!red_heap.empty()) {
      size_t i = red_heap.PopTop();
      // Heap members are alive by construction (dropped reds are removed).
      select_red(i);
    }
    // The "fewest red" adjustment above can only have touched alive reds;
    // removals keep the heap consistent, so every red is now decided.
  }

  // ---- Pass 2: cover the newly exposed areas ---------------------------
  if (variant == ZoomOutVariant::kArbitrary) {
    tree->ScanLeaves(/*skip_grey_leaves=*/false, [&](ObjectId id) {
      if (tree->color(id) != Color::kWhite || !region.contains(id)) return;
      tree->SetColor(id, Color::kBlack);
      solution.push_back(id);
      found.clear();
      tree->RangeQueryAround(id, r_new, QueryFilter::kAll, /*pruned=*/false,
                             &found);
      for (const Neighbor& nb : found) {
        if (region.contains(nb.id) && tree->color(nb.id) == Color::kWhite) {
          tree->SetColor(nb.id, Color::kGrey);
        }
        tree->ObserveBlackNeighbor(nb.id, nb.dist);
      }
    });
    return solution;
  }

  // Greedy second pass (Algorithm 3 lines 12-19): standard greedy selection
  // over the remaining whites. Outside the region nothing is white, so the
  // region's whites are exactly the heap and the shared loop's "white and
  // still in the heap" rule keeps the pass inside the region.
  std::vector<ObjectId> whites;
  for (ObjectId id = 0; id < n; ++id) {
    if (tree->color(id) == Color::kWhite && region.contains(id)) {
      whites.push_back(id);
    }
  }
  GreedyCover(tree, r_new, whites, /*observe_all=*/false, &solution);
  return solution;
}

}  // namespace

const char* ZoomOutVariantToString(ZoomOutVariant variant) {
  switch (variant) {
    case ZoomOutVariant::kArbitrary:
      return "arbitrary";
    case ZoomOutVariant::kGreedyMostRed:
      return "greedy-a";
    case ZoomOutVariant::kGreedyFewestRed:
      return "greedy-b";
    case ZoomOutVariant::kGreedyMostWhite:
      return "greedy-c";
  }
  return "unknown";
}

DiscResult ZoomIn(MTree* tree, double new_radius, bool greedy,
                  bool observe_all) {
  internal::RunScope scope(tree);
  // S^r' keeps all of S^r (Lemma 5), then adds the re-exposed objects.
  std::vector<ObjectId> solution = tree->ObjectsWithColor(Color::kBlack);
  std::vector<ObjectId> added =
      ZoomInCore(tree, new_radius, greedy, observe_all, Region{});
  solution.insert(solution.end(), added.begin(), added.end());
  return scope.Finish(std::move(solution));
}

DiscResult ZoomOut(MTree* tree, double new_radius, ZoomOutVariant variant) {
  internal::RunScope scope(tree);
  return scope.Finish(ZoomOutCore(tree, new_radius, variant, Region{}));
}

DiscResult LocalZoom(MTree* tree, ObjectId center, double old_radius,
                     double new_radius, bool greedy) {
  internal::RunScope scope(tree);

  // The operation's input is N_old_radius(center) plus the center itself.
  std::vector<char> member(tree->size(), 0);
  member[center] = 1;
  std::vector<Neighbor> in_region;
  tree->RangeQueryAround(center, old_radius, QueryFilter::kAll,
                         /*pruned=*/false, &in_region);
  for (const Neighbor& nb : in_region) member[nb.id] = 1;
  Region region{&member};

  // Out-of-region selection is untouched.
  std::vector<ObjectId> solution;
  for (ObjectId id : tree->ObjectsWithColor(Color::kBlack)) {
    if (!region.contains(id)) solution.push_back(id);
  }

  if (new_radius < old_radius) {
    // Local zoom-in: previously selected region objects stay (superset
    // property holds within the region as well).
    for (ObjectId id : tree->ObjectsWithColor(Color::kBlack)) {
      if (region.contains(id)) solution.push_back(id);
    }
    std::vector<ObjectId> added =
        ZoomInCore(tree, new_radius, greedy, /*observe_all=*/false, region);
    solution.insert(solution.end(), added.begin(), added.end());
  } else {
    std::vector<ObjectId> region_solution = ZoomOutCore(
        tree, new_radius,
        greedy ? ZoomOutVariant::kGreedyMostRed : ZoomOutVariant::kArbitrary,
        region);
    solution.insert(solution.end(), region_solution.begin(),
                    region_solution.end());
  }
  return scope.Finish(std::move(solution));
}

}  // namespace disc
