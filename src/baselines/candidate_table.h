// Shared plumbing for the baseline algorithms (Figure 2's matrix).
//
// Every baseline works off the same primitives as the NC engine - the
// access layer, the candidate pool, and bound evaluation - but implements
// its published control loop independently, so cost comparisons between
// NC and a baseline compare genuinely different schedulers rather than
// two spellings of one engine.

#ifndef NC_BASELINES_CANDIDATE_TABLE_H_
#define NC_BASELINES_CANDIDATE_TABLE_H_

#include <span>
#include <vector>

#include "access/source.h"
#include "common/score.h"
#include "common/status.h"
#include "core/candidate.h"
#include "core/result.h"
#include "core/topk_collector.h"
#include "scoring/scoring_function.h"

namespace nc {

// The predicates of `model` that support the given access type, ascending.
std::vector<PredicateId> SortedCapable(const CostModel& model);
std::vector<PredicateId> RandomCapable(const CostModel& model);

// Returns Unsupported unless every predicate supports sorted access
// (and random access, when `need_random` is set). Baselines use this to
// declare their scenario requirements up front.
Status RequireUniformCapabilities(const SourceSet& sources, bool need_sorted,
                                  bool need_random, const char* algorithm);

// --- Budget support (access/budget.h) ----------------------------------
// True when the access layer would refuse the next access on predicate
// `next_predicate` (cost cap, deadline, or per-predicate quota). The
// baselines' crashing access wrappers abort on a refusal, so every
// baseline access site tests this first and settles with a certified
// anytime answer (BuildCertifiedResult) instead. Unlike NC, the published
// control loops are rigid - they cannot steer around one quota-spent
// predicate - so any bar ends the whole run.
bool BudgetBarred(const SourceSet& sources, PredicateId next_predicate);

// The TerminationReason behind a bar observed on `next_predicate`. Also
// records the refused access in AccessStats::budget_refusals - call it
// exactly once, at the access site that stopped the run.
TerminationReason BudgetBarReason(SourceSet* sources,
                                  PredicateId next_predicate);

// Proven [lower, upper] interval of a partially evaluated row: unknown
// predicates (unset bits of `known_mask`) read as 0 for the lower bound
// and as ceilings[j] for the upper bound.
CertifiedRow PartialRow(const ScoringFunction& scoring, ObjectId object,
                        const std::vector<Score>& row, uint64_t known_mask,
                        std::span<const Score> ceilings);

// Certified rows for every candidate in `pool` (exact for complete
// candidates, [Lower, Upper-vs-ceilings] otherwise) - shared by the
// pool-based baselines when a budget bar stops the run.
void PoolCertifiedRows(const CandidatePool& pool, BoundEvaluator& bounds,
                       std::span<const Score> ceilings,
                       std::vector<CertifiedRow>* rows);

}  // namespace nc

#endif  // NC_BASELINES_CANDIDATE_TABLE_H_
