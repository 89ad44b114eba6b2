#include "playbook/scenario.h"

#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/numeric.h"
#include "common/record_text.h"

namespace nc::playbook {
namespace {

bool ValidNameToken(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':' ||
              c == '-';
    if (!ok) return false;
  }
  return true;
}

bool ZeroProfile(const FaultProfile& p) {
  return p.transient_rate == 0.0 && p.timeout_rate == 0.0 &&
         p.death_rate == 0.0 && p.die_after_attempts == 0;
}

}  // namespace

const char* ScoringKindName(ScoringKind kind) {
  switch (kind) {
    case ScoringKind::kMin:
      return "min";
    case ScoringKind::kMax:
      return "max";
    case ScoringKind::kAverage:
      return "avg";
    case ScoringKind::kProduct:
      return "product";
    case ScoringKind::kGeometricMean:
      return "geomean";
  }
  return "?";
}

bool ScoringKindFromName(std::string_view name, ScoringKind* out) {
  for (ScoringKind kind :
       {ScoringKind::kMin, ScoringKind::kMax, ScoringKind::kAverage,
        ScoringKind::kProduct, ScoringKind::kGeometricMean}) {
    if (name == ScoringKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool ScoreDistributionFromName(std::string_view name, ScoreDistribution* out) {
  for (ScoreDistribution dist :
       {ScoreDistribution::kUniform, ScoreDistribution::kGaussian,
        ScoreDistribution::kZipf}) {
    if (name == ScoreDistributionName(dist)) {
      *out = dist;
      return true;
    }
  }
  return false;
}

bool RoutingPolicyFromName(std::string_view name, RoutingPolicy* out) {
  for (RoutingPolicy policy :
       {RoutingPolicy::kPrimaryOnly, RoutingPolicy::kRoundRobin,
        RoutingPolicy::kLeastLatency, RoutingPolicy::kCheapestHealthy}) {
    if (name == RoutingPolicyName(policy)) {
      *out = policy;
      return true;
    }
  }
  return false;
}

Status ReplicaSpec::Validate() const {
  if (!std::isfinite(cost_multiplier) || cost_multiplier <= 0.0) {
    return Status::InvalidArgument("replica cost_multiplier must be > 0");
  }
  NC_RETURN_IF_ERROR(latency.Validate());
  NC_RETURN_IF_ERROR(faults.Validate());
  return Status::OK();
}

Status ScenarioSpec::Validate() const {
  if (!ValidNameToken(name)) {
    return Status::InvalidArgument(
        "scenario name must be one token of [A-Za-z0-9_.:-]+");
  }
  if (num_objects == 0) {
    return Status::InvalidArgument("num_objects must be > 0");
  }
  if (num_predicates == 0) {
    return Status::InvalidArgument("num_predicates must be > 0");
  }
  if (!(correlation >= -1.0 && correlation <= 1.0)) {
    return Status::InvalidArgument("correlation must be in [-1, 1]");
  }
  if (!std::isfinite(gaussian_mean) || !std::isfinite(gaussian_stddev) ||
      gaussian_stddev <= 0.0) {
    return Status::InvalidArgument("gaussian parameters malformed");
  }
  if (!std::isfinite(zipf_skew) || zipf_skew <= 0.0) {
    return Status::InvalidArgument("zipf_skew must be finite and > 0");
  }
  if (k == 0 || k > num_objects) {
    return Status::InvalidArgument("k must be in [1, num_objects]");
  }
  if (sorted_cost.size() != num_predicates ||
      random_cost.size() != num_predicates) {
    return Status::InvalidArgument(
        "cost vectors must cover every predicate");
  }
  CostModel cost = MakeCostModel();
  NC_RETURN_IF_ERROR(cost.Validate());
  NC_RETURN_IF_ERROR(fault.Validate());
  for (const ReplicaSpec& replica : replicas) {
    NC_RETURN_IF_ERROR(replica.Validate());
  }
  if (has_fleet()) {
    if (!std::isfinite(hedge_delay) || hedge_delay < 0.0) {
      return Status::InvalidArgument("hedge_delay must be finite and >= 0");
    }
  } else if (hedge_delay != 0.0 || adaptive_hedge ||
             routing != RoutingPolicy::kPrimaryOnly) {
    return Status::InvalidArgument(
        "routing/hedge settings require a replica topology");
  }
  NC_RETURN_IF_ERROR(budget.Validate(num_predicates));
  if (srg_depths.empty() != srg_schedule.empty()) {
    return Status::InvalidArgument(
        "srg depths and schedule must be set together");
  }
  if (!srg_depths.empty()) {
    NC_RETURN_IF_ERROR(MakeSRGConfig().Validate(num_predicates));
  }
  if (kill_at_access > 0 && workers > 0) {
    return Status::InvalidArgument(
        "kill_at_access requires engine mode (workers == 0)");
  }
  // Adaptive hedge timing reads the telemetry hub, whose mid-run state a
  // checkpoint deliberately excludes (checkpoints re-warm from the live
  // hub), so a killed adaptive run cannot promise bit-identical resume.
  if (kill_at_access > 0 && adaptive_hedge) {
    return Status::InvalidArgument(
        "kill_at_access cannot be combined with adaptive hedging");
  }
  // Cache state is shared across queries and deliberately excluded from
  // checkpoints, so a killed cached run cannot promise bit-identical
  // resumed accrued cost: the resumed run's hits would depend on what
  // else touched the cache meanwhile.
  if (kill_at_access > 0 && cache_enabled) {
    return Status::InvalidArgument(
        "kill_at_access cannot be combined with the access cache");
  }
  if (!std::isfinite(cache_hit_cost) || cache_hit_cost < 0.0) {
    return Status::InvalidArgument("cache_hit_cost must be finite and >= 0");
  }
  if (!cache_enabled && cache_hit_cost != 0.0) {
    return Status::InvalidArgument(
        "cache_hit_cost requires cache_enabled (the canonical document "
        "drops it otherwise)");
  }
  return Status::OK();
}

bool ScenarioSpec::fault_free() const {
  if (!ZeroProfile(fault)) return false;
  for (const ReplicaSpec& replica : replicas) {
    if (!ZeroProfile(replica.faults)) return false;
  }
  return true;
}

Dataset ScenarioSpec::MakeDataset() const {
  GeneratorOptions options;
  options.num_objects = num_objects;
  options.num_predicates = num_predicates;
  options.distribution = distribution;
  options.correlation = correlation;
  options.gaussian_mean = gaussian_mean;
  options.gaussian_stddev = gaussian_stddev;
  options.zipf_skew = zipf_skew;
  options.seed = data_seed;
  return GenerateDataset(options);
}

CostModel ScenarioSpec::MakeCostModel() const {
  CostModel cost(sorted_cost, random_cost);
  cost.sorted_page_size = sorted_page_size;
  cost.attribute_groups = attribute_groups;
  return cost;
}

std::unique_ptr<ScoringFunction> ScenarioSpec::MakeScoring() const {
  return MakeScoringFunction(scoring, num_predicates);
}

SRGConfig ScenarioSpec::MakeSRGConfig() const {
  if (srg_depths.empty()) return SRGConfig::Default(num_predicates);
  SRGConfig config;
  config.depths = srg_depths;
  config.schedule = srg_schedule;
  return config;
}

Status ScenarioSpec::ConfigureFleet(ReplicaFleet* fleet) const {
  if (!has_fleet()) return Status::OK();
  ReplicaSetConfig config;
  for (const ReplicaSpec& replica : replicas) {
    ReplicaEndpoint endpoint;
    endpoint.cost_multiplier = replica.cost_multiplier;
    endpoint.latency = replica.latency;
    endpoint.faults = replica.faults;
    config.replicas.push_back(std::move(endpoint));
  }
  config.routing = routing;
  config.hedge.delay = hedge_delay;
  config.hedge.adaptive = adaptive_hedge;
  for (PredicateId i = 0; i < num_predicates; ++i) {
    NC_RETURN_IF_ERROR(fleet->Configure(i, config));
  }
  return Status::OK();
}

std::string ScenarioSpec::Signature() const {
  std::string out = name;
  out += " n=" + std::to_string(num_objects);
  out += " m=" + std::to_string(num_predicates);
  out += " k=" + std::to_string(k);
  out += " F=";
  out += ScoringKindName(scoring);
  out += " dist=";
  out += ScoreDistributionName(distribution);
  out += " cost=" + MakeCostModel().ToString();
  if (!ZeroProfile(fault)) {
    out += " fault=(t=" + FormatDouble(fault.transient_rate) +
           ",o=" + FormatDouble(fault.timeout_rate) +
           ",d=" + FormatDouble(fault.death_rate) +
           ",die@" + std::to_string(fault.die_after_attempts) + ")";
  }
  if (has_fleet()) {
    out += " replicas=" + std::to_string(replicas.size());
    out += "/";
    out += RoutingPolicyName(routing);
    if (adaptive_hedge) {
      out += "/hedge=adaptive";
    } else if (hedge_delay > 0.0) {
      out += "/hedge=" + FormatDouble(hedge_delay);
    }
  }
  if (!budget.unlimited()) out += " budget=[" + budget.ToString() + "]";
  if (workers > 0) out += " workers=" + std::to_string(workers);
  if (kill_at_access > 0) {
    out += " kill@" + std::to_string(kill_at_access);
  }
  if (cache_enabled) {
    out += " cache";
    if (cache_hit_cost > 0.0) out += "=" + FormatDouble(cache_hit_cost);
  }
  return out;
}

std::string ScenarioSpec::Serialize() const {
  // Records in sorted key order; optional records (cache/groups/pages/
  // quota/replica/srg) are omitted when empty so the canonical form is
  // minimal and parse(serialize(s)) == s holds byte for byte.
  RecordWriter w("ncplay", 1);
  w.Record("budget").Double(budget.max_cost).Double(budget.deadline);
  if (cache_enabled) w.Record("cache").Flag(true).Double(cache_hit_cost);
  w.Record("cost").UInt(num_predicates);
  for (size_t i = 0; i < num_predicates; ++i) {
    w.Double(sorted_cost[i]).Double(random_cost[i]);
  }
  w.Record("data").UInt(num_objects).UInt(num_predicates);
  w.Token(ScoreDistributionName(distribution)).Double(correlation);
  w.UInt(data_seed);
  w.Record("dist").Double(gaussian_mean).Double(gaussian_stddev);
  w.Double(zipf_skew);
  w.Record("fault").Double(fault.transient_rate).Double(fault.timeout_rate);
  w.Double(fault.death_rate).UInt(fault.die_after_attempts);
  if (!attribute_groups.empty()) w.Record("groups").UInts(attribute_groups);
  w.Record("hedge").Double(hedge_delay).Flag(adaptive_hedge);
  w.Record("kill").UInt(kill_at_access);
  w.Record("name").Token(name);
  if (!sorted_page_size.empty()) w.Record("pages").UInts(sorted_page_size);
  w.Record("query").Token(ScoringKindName(scoring)).UInt(k);
  if (!budget.predicate_quota.empty()) {
    w.Record("quota").UInts(budget.predicate_quota);
  }
  for (size_t r = 0; r < replicas.size(); ++r) {
    const ReplicaSpec& replica = replicas[r];
    w.Record("replica").UInt(r).Double(replica.cost_multiplier);
    w.Double(replica.latency.multiplier).Double(replica.latency.jitter);
    w.Double(replica.latency.tail_probability);
    w.Double(replica.latency.tail_multiplier);
    w.Double(replica.faults.transient_rate);
    w.Double(replica.faults.timeout_rate).Double(replica.faults.death_rate);
    w.UInt(replica.faults.die_after_attempts);
  }
  w.Record("routing").Token(RoutingPolicyName(routing));
  w.Record("seeds").UInt(fault_seed).UInt(jitter_seed).UInt(fleet_seed);
  if (!srg_depths.empty()) {
    w.Record("srg").Doubles(srg_depths);
    for (const PredicateId i : srg_schedule) w.UInt(i);
  }
  w.Record("workers").UInt(workers);
  w.Record("end");
  return w.Finish();
}

Status ParseScenario(const std::string& text, ScenarioSpec* out) {
  // Parse into a fresh temporary; *out is only assigned after the whole
  // document, its footer, and semantic validation all succeed.
  ScenarioSpec spec;
  spec.name.clear();
  RecordReader r("ncplay", text);
  uint64_t version = 0;
  NC_RETURN_IF_ERROR(r.Header({1}, &version));

  // Every record but "replica" appears at most once.
  std::set<std::string, std::less<>> seen;
  RecordCursor c;
  for (;;) {
    if (r.AtEnd()) return r.FailAtEnd("missing \"end\"");
    NC_RETURN_IF_ERROR(r.Next(&c));
    const std::string key(c.key());
    if (key == "end") break;
    if (key != "replica" && !seen.insert(key).second) {
      return r.Fail("duplicate " + key);
    }
    if (key == "budget") {
      spec.budget.max_cost = c.Double();
      spec.budget.deadline = c.Double();
    } else if (key == "cache") {
      spec.cache_enabled = c.Flag();
      spec.cache_hit_cost = c.Double();
    } else if (key == "cost") {
      const uint64_t m = c.Count(2);
      spec.sorted_cost.resize(m);
      spec.random_cost.resize(m);
      for (uint64_t i = 0; i < m; ++i) {
        spec.sorted_cost[i] = c.Double();
        spec.random_cost[i] = c.Double();
      }
    } else if (key == "data") {
      spec.num_objects = c.UInt();
      spec.num_predicates = c.UInt();
      const std::string_view dist = c.Token();
      if (c.ok() && !ScoreDistributionFromName(dist, &spec.distribution)) {
        return r.Fail("unknown score distribution");
      }
      spec.correlation = c.Double();
      spec.data_seed = c.UInt();
    } else if (key == "dist") {
      spec.gaussian_mean = c.Double();
      spec.gaussian_stddev = c.Double();
      spec.zipf_skew = c.Double();
    } else if (key == "fault") {
      spec.fault.transient_rate = c.Double();
      spec.fault.timeout_rate = c.Double();
      spec.fault.death_rate = c.Double();
      spec.fault.die_after_attempts = c.UInt();
    } else if (key == "groups") {
      // Source group ids are ints; a wider one would wrap on the cast.
      spec.attribute_groups.resize(c.Count());
      for (int& group : spec.attribute_groups) {
        const uint64_t v = c.UInt();
        if (v > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
          c.Fail();
        }
        group = static_cast<int>(v);
      }
      if (spec.attribute_groups.empty()) c.Fail();
    } else if (key == "hedge") {
      spec.hedge_delay = c.Double();
      spec.adaptive_hedge = c.Flag();
    } else if (key == "kill") {
      spec.kill_at_access = c.UInt();
    } else if (key == "name") {
      spec.name = std::string(c.Token());
      if (!ValidNameToken(spec.name)) c.Fail();
    } else if (key == "pages") {
      c.UInts(&spec.sorted_page_size);
      if (spec.sorted_page_size.empty()) c.Fail();
    } else if (key == "query") {
      const std::string_view kind = c.Token();
      if (c.ok() && !ScoringKindFromName(kind, &spec.scoring)) {
        return r.Fail("unknown scoring function");
      }
      spec.k = c.UInt();
    } else if (key == "quota") {
      c.UInts(&spec.budget.predicate_quota);
      if (spec.budget.predicate_quota.empty()) c.Fail();
    } else if (key == "replica") {
      // Replica records must arrive in index order 0, 1, 2, ... so the
      // canonical document admits exactly one serialization.
      const uint64_t index = c.UInt();
      if (c.ok() && index != spec.replicas.size()) {
        return r.Fail("replica records must be sequential from 0");
      }
      ReplicaSpec& replica = spec.replicas.emplace_back();
      replica.cost_multiplier = c.Double();
      replica.latency.multiplier = c.Double();
      replica.latency.jitter = c.Double();
      replica.latency.tail_probability = c.Double();
      replica.latency.tail_multiplier = c.Double();
      replica.faults.transient_rate = c.Double();
      replica.faults.timeout_rate = c.Double();
      replica.faults.death_rate = c.Double();
      replica.faults.die_after_attempts = c.UInt();
    } else if (key == "routing") {
      const std::string_view policy = c.Token();
      if (c.ok() && !RoutingPolicyFromName(policy, &spec.routing)) {
        return r.Fail("unknown routing policy");
      }
    } else if (key == "seeds") {
      spec.fault_seed = c.UInt();
      spec.jitter_seed = c.UInt();
      spec.fleet_seed = c.UInt();
    } else if (key == "srg") {
      const uint64_t m = c.Count(2);
      spec.srg_depths.resize(m);
      spec.srg_schedule.resize(m);
      for (double& depth : spec.srg_depths) depth = c.Double();
      for (PredicateId& i : spec.srg_schedule) i = c.UIntAs<PredicateId>();
      if (m == 0) c.Fail();
    } else if (key == "workers") {
      spec.workers = c.UInt();
    } else {
      return r.Fail("unknown record \"" + key + "\"");
    }
    if (!c.Done()) return r.Fail("malformed " + key + " record");
  }
  if (!c.Done()) return r.Fail("malformed end record");
  NC_RETURN_IF_ERROR(r.Finish());
  for (const char* required :
       {"budget", "cost", "data", "dist", "fault", "hedge", "kill", "name",
        "query", "routing", "seeds", "workers"}) {
    if (seen.count(required) == 0) {
      return r.FailAtEnd(std::string("missing record \"") + required + "\"");
    }
  }
  const Status valid = spec.Validate();
  if (!valid.ok()) return r.Fail("invalid scenario: " + valid.message());
  *out = std::move(spec);
  return Status::OK();
}

}  // namespace nc::playbook
