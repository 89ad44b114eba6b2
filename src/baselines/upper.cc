#include "baselines/upper.h"

#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "core/bound_heap.h"
#include "core/candidate.h"

namespace nc {

Status RunUpper(SourceSet* sources, const ScoringFunction& scoring, size_t k,
                const std::vector<double>& expected_scores, TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources,
                                                /*need_sorted=*/false,
                                                /*need_random=*/true,
                                                "Upper"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const size_t m = sources->num_predicates();
  const size_t n = sources->num_objects();
  std::vector<double> expected = expected_scores;
  if (expected.empty()) expected.assign(m, 0.5);
  if (expected.size() != m) {
    return Status::InvalidArgument("expected_scores size mismatch");
  }

  const bool discovery = sources->cost_model().any_sorted();
  CandidatePool pool(m);
  BoundEvaluator bounds(&scoring);
  std::vector<Score> ceilings(m);
  const auto refresh_ceilings = [&] {
    for (PredicateId i = 0; i < m; ++i) ceilings[i] = sources->last_seen(i);
  };
  refresh_ceilings();

  LazyBoundHeap heap;
  const Score initial = scoring.Evaluate(std::vector<Score>(m, kMaxScore));
  if (discovery) {
    heap.Push(kUnseenObject, initial);
  } else {
    for (ObjectId u = 0; u < n; ++u) {
      heap.Push(u, initial, pool.GetOrCreate(u));
    }
  }

  // Only a sorted access lowers the ceilings; they are refreshed after
  // each one, so bound evaluations read them as is.
  const auto bound_fn =
      [&](const LazyBoundHeap::Entry& e) -> std::optional<Score> {
    if (e.object == kUnseenObject) {
      if (pool.size() >= n) return std::nullopt;
      return scoring.Evaluate(ceilings);
    }
    return bounds.Current(pool, e.slot, ceilings);
  };
  const auto emit_certified = [&](TerminationReason reason) {
    std::vector<CertifiedRow> rows;
    PoolCertifiedRows(pool, bounds, ceilings, &rows);
    const Score unseen = (discovery && pool.size() < n)
                             ? scoring.Evaluate(ceilings)
                             : kMinScore;
    BuildCertifiedResult(rows, unseen, k, reason, out);
    return Status::OK();
  };

  PredicateId rr_sorted = 0;
  const auto is_complete = [&](const LazyBoundHeap::Entry& e) {
    return e.object != kUnseenObject && pool.IsComplete(e.slot);
  };
  while (true) {
    const std::optional<LazyBoundHeap::Entry> unsatisfied =
        heap.PopUnsettled(k, bound_fn, is_complete);
    if (!unsatisfied.has_value()) {
      out->entries.clear();
      for (const LazyBoundHeap::Entry& e : heap.settled()) {
        out->entries.push_back(TopKEntry{e.object, e.bound});
      }
      return Status::OK();
    }
    const ObjectId target = unsatisfied->object;

    if (target == kUnseenObject) {
      // Discover a candidate: round-robin over the sorted-capable lists.
      for (size_t tries = 0; tries < m; ++tries) {
        const PredicateId i = rr_sorted % m;
        rr_sorted = (rr_sorted + 1) % m;
        if (!sources->has_sorted(i) || sources->exhausted(i)) continue;
        if (BudgetBarred(*sources, i)) {
          return emit_certified(BudgetBarReason(sources, i));
        }
        const std::optional<SortedHit> hit = sources->SortedAccess(i);
        NC_CHECK(hit.has_value());
        refresh_ceilings();
        bool created = false;
        const uint32_t slot = pool.GetOrCreate(hit->object, &created);
        if (!pool.IsEvaluated(slot, i)) pool.SetScore(slot, i, hit->score);
        if (created) {
          heap.Push(hit->object, bounds.Upper(pool, slot, ceilings), slot);
        }
        break;
      }
    } else {
      // Probe the predicate with the best expected bound-drop per cost.
      const uint32_t slot = unsatisfied->slot;
      PredicateId best = m;
      double best_rate = -1.0;
      for (PredicateId i = 0; i < m; ++i) {
        if (pool.IsEvaluated(slot, i)) continue;
        const double cost = sources->cost_model().random_cost[i];
        const double drop = ceilings[i] - expected[i];
        const double rate = cost > 0.0 ? drop / cost : drop * 1e12;
        if (rate > best_rate) {
          best = i;
          best_rate = rate;
        }
      }
      NC_CHECK(best < m);
      if (BudgetBarred(*sources, best)) {
        return emit_certified(BudgetBarReason(sources, best));
      }
      pool.SetScore(slot, best, sources->RandomAccess(best, target));
    }
    heap.Restore();
  }
}

}  // namespace nc
