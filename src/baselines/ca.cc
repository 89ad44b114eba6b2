#include "baselines/ca.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "core/candidate.h"

namespace nc {

namespace {

size_t DeriveH(const CostModel& model) {
  double cs_total = 0.0;
  double cr_total = 0.0;
  for (PredicateId i = 0; i < model.num_predicates(); ++i) {
    cs_total += model.sorted_cost[i];
    cr_total += model.random_cost[i];
  }
  if (cs_total <= 0.0) return 1;
  const double ratio = cr_total / cs_total;
  return static_cast<size_t>(std::max(1.0, std::floor(ratio)));
}

}  // namespace

Status RunCA(SourceSet* sources, const ScoringFunction& scoring, size_t k,
             size_t h, TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources, /*need_sorted=*/true,
                                                /*need_random=*/true, "CA"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (h == 0) h = DeriveH(sources->cost_model());
  const size_t m = sources->num_predicates();
  CandidatePool pool(m);
  BoundEvaluator bounds(&scoring);
  std::vector<Score> ceilings(m);
  const auto emit_certified = [&](TerminationReason reason) {
    for (PredicateId i = 0; i < m; ++i) ceilings[i] = sources->last_seen(i);
    std::vector<CertifiedRow> rows;
    PoolCertifiedRows(pool, bounds, ceilings, &rows);
    const Score unseen = pool.size() < sources->num_objects()
                             ? scoring.Evaluate(ceilings)
                             : kMinScore;
    BuildCertifiedResult(rows, unseen, k, reason, out);
    return Status::OK();
  };

  while (true) {
    // h rounds of round-robin sorted access.
    bool live = false;
    for (size_t round = 0; round < h; ++round) {
      for (PredicateId i = 0; i < m; ++i) {
        if (sources->exhausted(i)) continue;
        if (BudgetBarred(*sources, i)) {
          return emit_certified(BudgetBarReason(sources, i));
        }
        const std::optional<SortedHit> hit = sources->SortedAccess(i);
        if (!hit.has_value()) continue;
        live = true;
        const uint32_t slot = pool.GetOrCreate(hit->object);
        if (!pool.IsEvaluated(slot, i)) pool.SetScore(slot, i, hit->score);
      }
    }

    for (PredicateId i = 0; i < m; ++i) ceilings[i] = sources->last_seen(i);

    // Probe phase: completely evaluate the most promising incomplete
    // candidate.
    uint32_t best = CandidatePool::kNoSlot;
    Score best_upper = -1.0;
    for (uint32_t slot = 0; slot < pool.size(); ++slot) {
      if (pool.IsComplete(slot)) continue;
      const Score upper = bounds.Upper(pool, slot, ceilings);
      if (upper > best_upper ||
          (upper == best_upper && best != CandidatePool::kNoSlot &&
           pool.id(slot) > pool.id(best))) {
        best = slot;
        best_upper = upper;
      }
    }
    if (best != CandidatePool::kNoSlot) {
      for (PredicateId i = 0; i < m; ++i) {
        if (!pool.IsEvaluated(best, i)) {
          if (BudgetBarred(*sources, i)) {
            return emit_certified(BudgetBarReason(sources, i));
          }
          pool.SetScore(best, i, sources->RandomAccess(i, pool.id(best)));
        }
      }
    }

    // Halting: k complete candidates whose exact scores dominate every
    // upper bound and the unseen ceiling.
    TopKCollector collector(k);
    Score max_incomplete_upper = -1.0;
    for (uint32_t slot = 0; slot < pool.size(); ++slot) {
      if (pool.IsComplete(slot)) {
        collector.Offer(pool.id(slot), bounds.Exact(pool, slot));
      } else {
        max_incomplete_upper = std::max(max_incomplete_upper,
                                        bounds.Upper(pool, slot, ceilings));
      }
    }
    const bool unseen_possible = pool.size() < sources->num_objects();
    Score cap = max_incomplete_upper;
    if (unseen_possible) cap = std::max(cap, scoring.Evaluate(ceilings));
    if (collector.full() && collector.kth_score() >= cap) {
      *out = collector.Take();
      return Status::OK();
    }
    if (!live && best == CandidatePool::kNoSlot) {
      // Nothing left to read or probe: rank what we have.
      *out = collector.Take();
      return Status::OK();
    }
  }
}

}  // namespace nc
