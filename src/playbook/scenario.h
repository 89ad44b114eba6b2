// Declarative chaos-and-workload scenarios: the playbook's unit of work.
//
// The engine's scenario space is the cross product of everything the
// stack can vary - dataset shape, scoring function, k, cost regime,
// fault profile, replica topology, budget, routing/hedging, and server
// worker count - but until now each bench and test hand-rolled its own
// struct for the corner it exercised. ScenarioSpec is the one shared
// description: benches iterate catalogs of specs (playbook/catalog.h),
// the variant generator (playbook/variant.h) perturbs them, and the
// runner (playbook/runner.h) executes them under invariant oracles.
//
// Serialized form: a versioned, locale-safe "ncplay 1" document in the
// record grammar shared with "ncckpt" / "nchub" (common/record_text.h):
// one `key value...` record per line, keys in sorted order, every double
// as a C-hexfloat (so +-inf cost cells and correlations round-trip
// byte-exactly), closed by "end". Serialize is canonical and
// deterministic; ParseScenario(Serialize(s)) == s and re-serializing
// reproduces the input byte for byte (pinned in playbook_test.cc).
// Parsing is atomic: records accumulate into temporaries and *out is
// only written when the whole document (and its semantic validation)
// succeeded; every malformed line is rejected with its line number.

#ifndef NC_PLAYBOOK_SCENARIO_H_
#define NC_PLAYBOOK_SCENARIO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "access/budget.h"
#include "access/cost_model.h"
#include "access/fault.h"
#include "common/status.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "replica/replica.h"
#include "scoring/scoring_function.h"

namespace nc::playbook {

// "min" / "max" / "avg" / "product" / "geomean" (the ScoringFunction
// name() values), and the reverse lookups the parser uses. FromName
// helpers return false on an unknown name with *out untouched.
const char* ScoringKindName(ScoringKind kind);
bool ScoringKindFromName(std::string_view name, ScoringKind* out);
bool ScoreDistributionFromName(std::string_view name, ScoreDistribution* out);
bool RoutingPolicyFromName(std::string_view name, RoutingPolicy* out);

// One replica endpoint of the scenario's (uniform per-predicate) fleet
// topology: its cost multiplier, latency model, and fault behavior.
struct ReplicaSpec {
  double cost_multiplier = 1.0;
  ReplicaLatencyModel latency;
  FaultProfile faults;

  Status Validate() const;
};

struct ScenarioSpec {
  // Identifier: one token of [A-Za-z0-9_.:-]+, used in reports, repro
  // commands, and baseline keys.
  std::string name = "scenario";

  // --- Dataset shape ----------------------------------------------------
  size_t num_objects = 1000;
  size_t num_predicates = 2;
  ScoreDistribution distribution = ScoreDistribution::kUniform;
  double correlation = 0.0;
  double gaussian_mean = 0.5;
  double gaussian_stddev = 0.2;
  double zipf_skew = 2.0;
  uint64_t data_seed = 42;

  // --- Query ------------------------------------------------------------
  ScoringKind scoring = ScoringKind::kAverage;
  size_t k = 10;

  // --- Cost regime (Eq. 1 unit costs; kImpossibleCost = unsupported) ---
  std::vector<double> sorted_cost;  // size num_predicates
  std::vector<double> random_cost;  // size num_predicates
  std::vector<size_t> sorted_page_size;  // empty, or size num_predicates
  std::vector<int> attribute_groups;     // empty, or size num_predicates

  // --- Fault profile (the per-predicate default injector) --------------
  FaultProfile fault;

  // --- Replica topology (empty = plain single-source predicates) ------
  // The same replica set fronts every predicate.
  std::vector<ReplicaSpec> replicas;
  RoutingPolicy routing = RoutingPolicy::kPrimaryOnly;
  double hedge_delay = 0.0;
  bool adaptive_hedge = false;

  // --- Budget -----------------------------------------------------------
  QueryBudget budget;

  // --- Cross-query cache (cache/cache.h) --------------------------------
  // Attach a shared AccessCache to the variant's stack: engine-mode
  // variants own a private one, server-mode variants enable the
  // QueryServer's shared one. cache_hit_cost is what a cache-served
  // access bills the query (Eq. 1 units; 0 = free hits). Excluded from
  // checkpoints, so kill_at_access rejects it at Validate time.
  bool cache_enabled = false;
  double cache_hit_cost = 0.0;

  // --- Execution plan ---------------------------------------------------
  // Empty = SRGConfig::Default(num_predicates); otherwise explicit depths
  // (in [0, 1]) and a schedule permutation, both sized num_predicates.
  std::vector<double> srg_depths;
  std::vector<PredicateId> srg_schedule;

  // 0 = run in-process through NCEngine; >= 1 = serve through a
  // QueryServer with that many workers.
  size_t workers = 0;

  // > 0: snapshot an engine checkpoint at this access count and have the
  // runner prove the killed variant resumes bit-identically. Engine mode
  // only (the runner rejects kill with workers > 0 at Validate time).
  size_t kill_at_access = 0;

  // --- Seeds ------------------------------------------------------------
  uint64_t fault_seed = 1;
  uint64_t jitter_seed = 0;
  uint64_t fleet_seed = 0;

  // --- Semantics --------------------------------------------------------
  // OK iff every field is well-formed and mutually consistent (vector
  // arities, cost-model validity, fault rates, replica models, budget
  // shape, SRG ranges, kill/worker exclusivity, adaptive-hedge/kill
  // exclusivity - adaptive hedge timing reads the telemetry hub, whose
  // mid-run state a checkpoint deliberately excludes, so a killed
  // adaptive run cannot promise bit-identical resume).
  Status Validate() const;

  // True when nothing in the scenario can fail an access: the default
  // fault profile and every replica's profile are all-zero. Fault-free
  // variants must answer bit-identically to brute force - the
  // instance-optimality oracle.
  bool fault_free() const;

  bool has_fleet() const { return !replicas.empty(); }

  // --- Builders (Validate() must hold) ----------------------------------
  Dataset MakeDataset() const;
  CostModel MakeCostModel() const;
  std::unique_ptr<ScoringFunction> MakeScoring() const;
  SRGConfig MakeSRGConfig() const;
  // Configures every predicate of `fleet` with this scenario's replica
  // set. No-op when has_fleet() is false.
  Status ConfigureFleet(ReplicaFleet* fleet) const;

  // One-line human summary for logs and packet headers.
  std::string Signature() const;

  // Canonical "ncplay 1" document (sorted keys, hexfloat doubles,
  // trailing "end\n"). Deterministic: equal specs serialize identically.
  std::string Serialize() const;
};

// Parses a Serialize() document. InvalidArgument naming the offending
// line on malformed input ("ncplay line N: ..."); a document that fails
// semantic validation names its "end" line ("ncplay line N: invalid
// scenario: ..."). *out is written only on success.
Status ParseScenario(const std::string& text, ScenarioSpec* out);

}  // namespace nc::playbook

#endif  // NC_PLAYBOOK_SCENARIO_H_
