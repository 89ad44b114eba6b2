#include "baselines/candidate_table.h"

#include <algorithm>

#include "common/check.h"

namespace nc {

std::vector<PredicateId> SortedCapable(const CostModel& model) {
  std::vector<PredicateId> out;
  for (PredicateId i = 0; i < model.num_predicates(); ++i) {
    if (model.has_sorted(i)) out.push_back(i);
  }
  return out;
}

std::vector<PredicateId> RandomCapable(const CostModel& model) {
  std::vector<PredicateId> out;
  for (PredicateId i = 0; i < model.num_predicates(); ++i) {
    if (model.has_random(i)) out.push_back(i);
  }
  return out;
}

bool BudgetBarred(const SourceSet& sources, PredicateId next_predicate) {
  return sources.access_barred(next_predicate);
}

TerminationReason BudgetBarReason(SourceSet* sources,
                                  PredicateId next_predicate) {
  // The access the caller was about to issue was refused by the budget;
  // account it like a Try*-level refusal (nothing was billed).
  sources->NoteBudgetRefusal();
  if (sources->cost_budget_exhausted()) {
    return TerminationReason::kCostBudget;
  }
  if (sources->deadline_exceeded()) return TerminationReason::kDeadline;
  NC_CHECK(sources->quota_exhausted(next_predicate));
  return TerminationReason::kQuota;
}

CertifiedRow PartialRow(const ScoringFunction& scoring, ObjectId object,
                        const std::vector<Score>& row, uint64_t known_mask,
                        std::span<const Score> ceilings) {
  const size_t m = row.size();
  std::vector<Score> filled(m);
  CertifiedRow out;
  out.object = object;
  for (PredicateId i = 0; i < m; ++i) {
    filled[i] = ((known_mask >> i) & 1) != 0 ? row[i] : 0.0;
  }
  out.lower = scoring.Evaluate(filled);
  for (PredicateId i = 0; i < m; ++i) {
    filled[i] = ((known_mask >> i) & 1) != 0 ? row[i] : ceilings[i];
  }
  out.upper = scoring.Evaluate(filled);
  return out;
}

void PoolCertifiedRows(const CandidatePool& pool, BoundEvaluator& bounds,
                       std::span<const Score> ceilings,
                       std::vector<CertifiedRow>* rows) {
  rows->clear();
  rows->reserve(pool.size());
  for (uint32_t slot = 0; slot < pool.size(); ++slot) {
    const ObjectId id = pool.id(slot);
    if (pool.IsComplete(slot)) {
      const Score exact = bounds.Exact(pool, slot);
      rows->push_back(CertifiedRow{id, exact, exact});
    } else {
      rows->push_back(CertifiedRow{id, bounds.Lower(pool, slot),
                                   bounds.Upper(pool, slot, ceilings)});
    }
  }
}

Status RequireUniformCapabilities(const SourceSet& sources, bool need_sorted,
                                  bool need_random, const char* algorithm) {
  const CostModel& model = sources.cost_model();
  for (PredicateId i = 0; i < model.num_predicates(); ++i) {
    if (need_sorted && !model.has_sorted(i)) {
      return Status::Unsupported(std::string(algorithm) +
                                 " requires sorted access on predicate " +
                                 std::to_string(i));
    }
    if (need_random && !model.has_random(i)) {
      return Status::Unsupported(std::string(algorithm) +
                                 " requires random access on predicate " +
                                 std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace nc
