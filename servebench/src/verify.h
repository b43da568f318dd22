// The output check, run off the clock after the timed phase: every distinct
// ok reply is recomputed on a replica DiscEngine and compared byte for
// byte, wall_ms aside.
//
//  * plain DIVERSIFY: the cold solve (Reset, Diversify). A pooled server
//    engine may already hold the radius's neighborhood counts, which drops
//    the count pass from the reported stats, so that variant is accepted
//    too; from_cache answers carry the cold solution with zero stats;
//  * adapted DIVERSIFY: Diversify(seed_radius) then a zoom to r, which the
//    protocol documents as byte-identical;
//  * ZOOM: the session's recipe (its last DIVERSIFY and the zooms since)
//    replayed, then the zoom. When the recipe starts from a cached solution
//    whose recomputed closest-black distances the server engine banked, the
//    zoom-in skips the recomputation; that variant is accepted too;
//  * OPEN: every field before the pool-dependent "reused"; CLOSE: exact.

#ifndef SERVEBENCH_VERIFY_H_
#define SERVEBENCH_VERIFY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.h"

namespace servebench {

struct CheckResult {
  /// Per item: 1 when the reply matched the replica.
  std::vector<uint8_t> item_ok;
  size_t mismatched_items = 0;
  /// The first mismatch, for the diagnostic line.
  std::string first_mismatch;
};

/// Checks `items` on `threads` worker threads, each with its own replica
/// engines (EngineConfig::threads = 1, max_exact_points as the server's).
CheckResult CheckOutputs(const std::vector<CheckItem>& items, size_t threads,
                         size_t max_exact_points);

}  // namespace servebench

#endif  // SERVEBENCH_VERIFY_H_
