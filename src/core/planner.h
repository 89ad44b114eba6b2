// The cost-based query optimizer: end-to-end planning and execution.
//
// CostBasedPlanner ties Section 7 together: it acquires samples (real or
// dummy-uniform), derives the global random-access schedule, searches
// depth space with the configured scheme, and hands back the SR/G plan
// NC should run. RunOptimizedNC additionally executes the plan.

#ifndef NC_CORE_PLANNER_H_
#define NC_CORE_PLANNER_H_

#include <cstdint>
#include <string>

#include "access/source.h"
#include "common/status.h"
#include "core/optimizer.h"
#include "core/result.h"
#include "scoring/scoring_function.h"

namespace nc {

enum class SampleMode {
  // Draw the sample from the queried database (offline samples / a-priori
  // knowledge, Section 7.3).
  kFromData,
  // Generate dummy uniform samples - the paper's worst-case validation
  // mode when real samples are unavailable or too costly.
  kDummyUniform,
};

enum class SearchScheme {
  kNaive,
  kStrategies,
  kHClimb,
};

const char* SearchSchemeName(SearchScheme scheme);

struct PlannerOptions {
  size_t sample_size = 100;
  // Independent sample draws averaged per cost estimate; more replicas
  // cut estimation variance (k' is usually tiny) at proportional
  // optimization overhead.
  size_t sample_replicas = 3;
  SampleMode sample_mode = SampleMode::kFromData;
  SearchScheme scheme = SearchScheme::kHClimb;
  double grid_step = 0.1;
  size_t hclimb_restarts = 4;
  uint64_t seed = 7;

  // Section 7.2 approximates the joint (H, schedule) optimization in two
  // steps: fix the schedule by sampled benefit/cost ranking, then search
  // depths. Setting this flag searches depths under *every* schedule
  // permutation instead (m! times the overhead; rejected for m > 6) -
  // useful for validating the two-step approximation.
  bool joint_schedule_search = false;
};

class CostBasedPlanner {
 public:
  // `scoring` must outlive the planner.
  CostBasedPlanner(const ScoringFunction* scoring, PlannerOptions options);

  // Plans a top-k query over `sources` at its current cost model. On OK,
  // *out carries the chosen SR/G configuration, its estimated cost, and
  // the optimization overhead in simulations.
  Status Plan(const SourceSet& sources, size_t k, OptimizerResult* out);

  // The plan-cache key of the same query: everything Plan reads besides
  // this planner's own scoring function and options. That is the
  // sample-scaled retrieval size k' = ceil(k s / n), with s the effective
  // sample size (min(s, n) for data samples); n; the address of the
  // Dataset the samples are drawn from (none for dummy-uniform samples),
  // so a Dataset must not be edited in place while plans for it are
  // cached; and the exact bits of the cost model's unit costs, page
  // sizes and attribute groups. Plan never sees k except through k', so
  // equal keys mean bit-identical plans. Refuses an invalid query exactly
  // as Plan does, so a caller that validates through the key never
  // serves one from a cache.
  Status PlanKey(const SourceSet& sources, size_t k, std::string* key) const;

 private:
  Status ValidateQuery(const SourceSet& sources, size_t k) const;
  // True when Plan draws its samples from the sources' Dataset.
  bool SamplesFromData(const SourceSet& sources) const;
  // Objects per sample: what k' scales k by.
  size_t SampleObjects(const SourceSet& sources) const;

  const ScoringFunction* scoring_;
  PlannerOptions options_;
};

// Plans and executes in one step: the convenience entry point examples
// use. `plan_out` (optional) receives the chosen plan.
Status RunOptimizedNC(SourceSet* sources, const ScoringFunction& scoring,
                      size_t k, const PlannerOptions& options,
                      TopKResult* out, OptimizerResult* plan_out = nullptr);

}  // namespace nc

#endif  // NC_CORE_PLANNER_H_
