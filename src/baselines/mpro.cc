#include "baselines/mpro.h"

#include <vector>

#include "baselines/candidate_table.h"
#include "common/check.h"
#include "core/bound_heap.h"
#include "core/candidate.h"

namespace nc {

Status RunMPro(SourceSet* sources, const ScoringFunction& scoring, size_t k,
               const std::vector<PredicateId>& schedule, TopKResult* out) {
  NC_CHECK(out != nullptr);
  NC_RETURN_IF_ERROR(RequireUniformCapabilities(*sources,
                                                /*need_sorted=*/false,
                                                /*need_random=*/true,
                                                "MPro"));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const size_t m = sources->num_predicates();
  const size_t n = sources->num_objects();

  std::vector<PredicateId> order = schedule;
  if (order.empty()) {
    order.resize(m);
    for (PredicateId i = 0; i < m; ++i) order[i] = i;
  }
  if (order.size() != m) {
    return Status::InvalidArgument("schedule must cover every predicate");
  }

  CandidatePool pool(m);
  BoundEvaluator bounds(&scoring);
  // Probes only - no sorted streams - so ceilings stay at 1.
  const std::vector<Score> ceilings(m, kMaxScore);

  LazyBoundHeap heap;
  const Score initial = scoring.Evaluate(ceilings);
  for (ObjectId u = 0; u < n; ++u) {
    heap.Push(u, initial, pool.GetOrCreate(u));
  }

  const auto bound_fn =
      [&](const LazyBoundHeap::Entry& e) -> std::optional<Score> {
    return bounds.Current(pool, e.slot, ceilings);
  };
  // The whole universe is seeded into the pool, so no unseen ceiling.
  const auto emit_certified = [&](TerminationReason reason) {
    std::vector<CertifiedRow> rows;
    PoolCertifiedRows(pool, bounds, ceilings, &rows);
    BuildCertifiedResult(rows, kMinScore, k, reason, out);
    return Status::OK();
  };

  const auto is_complete = [&](const LazyBoundHeap::Entry& e) {
    return pool.IsComplete(e.slot);
  };
  while (true) {
    const std::optional<LazyBoundHeap::Entry> next_probe =
        heap.PopUnsettled(k, bound_fn, is_complete);
    if (!next_probe.has_value()) {
      out->entries.clear();
      for (const LazyBoundHeap::Entry& e : heap.settled()) {
        out->entries.push_back(TopKEntry{e.object, e.bound});
      }
      return Status::OK();
    }
    // Probe the next unevaluated predicate in global-schedule order.
    const uint32_t slot = next_probe->slot;
    for (PredicateId i : order) {
      if (!pool.IsEvaluated(slot, i)) {
        if (BudgetBarred(*sources, i)) {
          return emit_certified(BudgetBarReason(sources, i));
        }
        pool.SetScore(slot, i, sources->RandomAccess(i, next_probe->object));
        break;
      }
    }
    heap.Restore();
  }
}

}  // namespace nc
