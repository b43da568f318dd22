// The batch planner/executor behind the BATCH envelope and POST /batch.
//
// A batch is an ordered list of protocol command lines executed as one
// request unit on one connection: exactly one response line per command,
// in command order, with per-command error isolation — a malformed or
// failing command yields its error line without aborting its siblings.
// The contract the server tests pin: a batch's response lines are
// byte-identical to issuing the same commands sequentially on the same
// connection.
//
// Behind that surface sits a planner (the coalescing variant): DIVERSIFY
// commands are grouped by adapt family (pool key + algorithm + pruning —
// handlers.h's ComputePlan::adapt_family), and each family pays for at
// most ONE cold solve per batch. The family's first adapt-eligible command
// executes cold (its outcome is memoized and retained as the family
// anchor); every later family member at another radius is served through
// DiscEngine::AdaptFrom — adopt the nearest-radius seed, zoom to the
// requested radius — which the engine guarantees byte-identical to running
// that chain cold. Seeding, leading and adopting are the per-command
// path's own steps (server/handlers.h: SeedFromMemo, LeadFlight,
// AdoptOutcome), so the same commands produce the same bytes batched or
// not; the retained in-batch anchors, ranked by the same NearestSeed rule
// as the memo, additionally guarantee the one-cold-solve property even
// when the manager's memo LRU evicts under pressure.
//
// Cold solves inside a batch still flow through the session manager's
// single-flight table: they memoize, advertise their family, and fan out
// to concurrent same-key requests from other connections. A batch never
// *waits* on another connection's flight, though — parking the worker that
// executes the batch could deadlock a fully loaded pool — it computes on
// its own engine instead (byte-identical by the flight-key contract).

#ifndef DISC_SERVER_BATCH_H_
#define DISC_SERVER_BATCH_H_

#include <string>
#include <vector>

#include "server/handlers.h"

namespace disc {

/// Executes a batch's command lines in order against the connection state
/// `lease` (mutated in place: an OPEN installs into it, a CLOSE releases
/// it) and returns exactly one response line per command. `coalesce`
/// true is the event loop's semantics (planner + single-flight table +
/// §5.2 adaptation, matching its per-command path); false is plain
/// sequential dispatch through DispatchCommand, always cold. Never throws:
/// a command whose execution throws is answered with InternalErrorLine,
/// the event loop's per-command barrier line, and its siblings still run.
std::vector<std::string> ExecuteBatch(const CommandContext& ctx,
                                      const std::vector<std::string>& lines,
                                      EngineLease* lease, bool coalesce);

}  // namespace disc

#endif  // DISC_SERVER_BATCH_H_
