#include "neighbor/exact_backend.h"

#include <utility>
#include <vector>

namespace disc {

Result<std::unique_ptr<ExactMTreeBackend>> ExactMTreeBackend::Create(
    const Dataset& dataset, const DistanceMetric& metric,
    MTreeOptions options) {
  auto tree = std::make_unique<MTree>(dataset, metric, options);
  DISC_RETURN_NOT_OK(tree->Build());
  // Construction costs stay out of the query accounting.
  tree->ResetStats();
  return std::unique_ptr<ExactMTreeBackend>(
      new ExactMTreeBackend(dataset, metric, std::move(tree)));
}

void ExactMTreeBackend::DoRangeQuery(const Point& center, ObjectId exclude,
                                     double radius,
                                     std::vector<ObjectId>* out,
                                     AccessStats* sink) const {
  std::vector<Neighbor> found;
  if (exclude != kInvalidObject) {
    tree_->RangeQueryAround(exclude, radius, QueryFilter::kAll,
                            /*pruned=*/false, &found, /*trace=*/nullptr, sink);
  } else {
    tree_->RangeQuery(center, radius, QueryFilter::kAll, /*pruned=*/false,
                      &found, sink);
  }
  out->reserve(out->size() + found.size());
  for (const Neighbor& nb : found) out->push_back(nb.id);
}

}  // namespace disc
