#include "core/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "access/score_provider.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "data/sampling.h"

namespace nc {
namespace {

Dataset MakeData(uint64_t seed, size_t n = 400, size_t m = 2) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

TEST(PlannerTest, PlanIsValidConfig) {
  const Dataset data = MakeData(1);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  PlannerOptions options;
  CostBasedPlanner planner(&avg, options);
  OptimizerResult plan;
  ASSERT_TRUE(planner.Plan(sources, 5, &plan).ok());
  EXPECT_TRUE(plan.config.Validate(2).ok());
  EXPECT_GT(plan.simulations, 0u);
  EXPECT_GE(plan.estimated_cost, 0.0);
}

TEST(PlannerTest, RunOptimizedNCCorrectAcrossSchemes) {
  const Dataset data = MakeData(2);
  MinFunction fmin(2);
  const TopKResult expected = BruteForceTopK(data, fmin, 5);
  for (const SearchScheme scheme :
       {SearchScheme::kNaive, SearchScheme::kStrategies,
        SearchScheme::kHClimb}) {
    SourceSet sources(&data, CostModel::Uniform(2, 1.0, 5.0));
    PlannerOptions options;
    options.scheme = scheme;
    TopKResult result;
    OptimizerResult plan;
    ASSERT_TRUE(
        RunOptimizedNC(&sources, fmin, 5, options, &result, &plan).ok())
        << SearchSchemeName(scheme);
    EXPECT_EQ(result, expected) << SearchSchemeName(scheme);
  }
}

TEST(PlannerTest, DummySamplesAlsoWork) {
  const Dataset data = MakeData(3);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 10.0));
  PlannerOptions options;
  options.sample_mode = SampleMode::kDummyUniform;
  TopKResult result;
  ASSERT_TRUE(RunOptimizedNC(&sources, avg, 5, options, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, avg, 5));
}

TEST(PlannerTest, MinQueryGetsFocusedPlan) {
  // The paper's headline adaptation: for F = min a focused configuration
  // (deep sorted access on one predicate, little on the other) wins. The
  // found plan must be meaningfully asymmetric.
  const Dataset data = MakeData(4, 2000, 2);
  MinFunction fmin(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  PlannerOptions options;
  options.sample_size = 200;
  CostBasedPlanner planner(&fmin, options);
  OptimizerResult plan;
  ASSERT_TRUE(planner.Plan(sources, 5, &plan).ok());
  const double spread =
      std::abs(plan.config.depths[0] - plan.config.depths[1]);
  EXPECT_GT(spread, 0.3) << plan.config.ToString();
}

TEST(PlannerTest, AvgQueryPlanCompetitiveWithGridBest) {
  // For F = avg the cost surface over depths is a near-plateau under lazy
  // probing, so no particular shape is identifiable; what matters is that
  // the sampled plan's *actual* cost lands near the best grid point's.
  const Dataset data = MakeData(5, 2000, 2);
  AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 1.0);

  const auto actual_cost = [&](const SRGConfig& config) {
    SourceSet sources(&data, cost);
    SRGPolicy policy(config);
    EngineOptions options;
    options.k = 10;
    TopKResult ignored;
    NC_CHECK(RunNC(&sources, &avg, &policy, options, &ignored).ok());
    return sources.accrued_cost();
  };

  double best_grid = std::numeric_limits<double>::infinity();
  for (const double h0 : {0.0, 0.5, 0.9, 1.0}) {
    for (const double h1 : {0.0, 0.5, 0.9, 1.0}) {
      SRGConfig config;
      config.depths = {h0, h1};
      config.schedule = {0, 1};
      best_grid = std::min(best_grid, actual_cost(config));
    }
  }

  SourceSet sources(&data, cost);
  PlannerOptions options;
  options.sample_size = 200;
  CostBasedPlanner planner(&avg, options);
  OptimizerResult plan;
  ASSERT_TRUE(planner.Plan(sources, 10, &plan).ok());
  EXPECT_LE(actual_cost(plan.config), best_grid * 1.20)
      << plan.config.ToString();
}

TEST(PlannerTest, ExpensiveRandomPushesDepthsDown) {
  // When probes cost 100x, good plans rely on sorted access; depths should
  // sit lower (more sorted) than in the probe-friendly scenario.
  const Dataset data = MakeData(6, 2000, 2);
  AverageFunction avg(2);
  PlannerOptions options;
  options.sample_size = 200;
  CostBasedPlanner planner(&avg, options);

  SourceSet cheap_probe(&data, CostModel::Uniform(2, 1.0, 0.1));
  OptimizerResult cheap_plan;
  ASSERT_TRUE(planner.Plan(cheap_probe, 10, &cheap_plan).ok());

  SourceSet pricey_probe(&data, CostModel::Uniform(2, 1.0, 100.0));
  OptimizerResult pricey_plan;
  ASSERT_TRUE(planner.Plan(pricey_probe, 10, &pricey_plan).ok());

  const double cheap_depth =
      (cheap_plan.config.depths[0] + cheap_plan.config.depths[1]) / 2;
  const double pricey_depth =
      (pricey_plan.config.depths[0] + pricey_plan.config.depths[1]) / 2;
  EXPECT_LT(pricey_depth, cheap_depth + 1e-9)
      << "cheap=" << cheap_plan.config.ToString()
      << " pricey=" << pricey_plan.config.ToString();
}

TEST(PlannerTest, PlanRejectsZeroK) {
  const Dataset data = MakeData(7, 50);
  AverageFunction avg(2);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  CostBasedPlanner planner(&avg, PlannerOptions{});
  OptimizerResult plan;
  EXPECT_EQ(planner.Plan(sources, 0, &plan).code(),
            StatusCode::kInvalidArgument);
}

TEST(PlannerTest, PlanRejectsArityMismatch) {
  const Dataset data = MakeData(8, 50, 2);
  AverageFunction avg(3);
  SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  CostBasedPlanner planner(&avg, PlannerOptions{});
  OptimizerResult plan;
  EXPECT_EQ(planner.Plan(sources, 5, &plan).code(),
            StatusCode::kInvalidArgument);
}

TEST(PlannerTest, ProbeOnlyScenarioPlansAndRuns) {
  const Dataset data = MakeData(9, 300, 3);
  MinFunction fmin(3);
  SourceSet sources(&data, CostModel::Uniform(3, kImpossibleCost, 1.0));
  PlannerOptions options;
  TopKResult result;
  OptimizerResult plan;
  ASSERT_TRUE(
      RunOptimizedNC(&sources, fmin, 5, options, &result, &plan).ok());
  EXPECT_EQ(result, BruteForceTopK(data, fmin, 5));
  EXPECT_EQ(sources.stats().TotalSorted(), 0u);
}

TEST(PlannerTest, JointScheduleSearchMatchesOrBeatsTwoStep) {
  // The paper approximates the joint (H, schedule) optimization in two
  // steps; the exhaustive joint search can only improve the *estimate*.
  const Dataset data = MakeData(10, 600, 3);
  MinFunction fmin(3);
  SourceSet sources(&data, CostModel({1.0, 1.0, 1.0}, {1.0, 8.0, 2.0}));

  PlannerOptions two_step;
  two_step.sample_size = 150;
  CostBasedPlanner planner_two_step(&fmin, two_step);
  OptimizerResult plan_two_step;
  ASSERT_TRUE(planner_two_step.Plan(sources, 5, &plan_two_step).ok());

  PlannerOptions joint = two_step;
  joint.joint_schedule_search = true;
  CostBasedPlanner planner_joint(&fmin, joint);
  OptimizerResult plan_joint;
  ASSERT_TRUE(planner_joint.Plan(sources, 5, &plan_joint).ok());

  EXPECT_LE(plan_joint.estimated_cost, plan_two_step.estimated_cost + 1e-9);
  // The joint search sweeps m! = 6 permutations: meaningfully more
  // simulations.
  EXPECT_GT(plan_joint.simulations, plan_two_step.simulations);

  // The joint plan executes correctly too.
  SRGPolicy policy(plan_joint.config);
  EngineOptions engine_options;
  engine_options.k = 5;
  TopKResult result;
  ASSERT_TRUE(RunNC(&sources, &fmin, &policy, engine_options, &result).ok());
  EXPECT_EQ(result, BruteForceTopK(data, fmin, 5));
}

TEST(PlannerTest, JointScheduleSearchRejectsLargeM) {
  const Dataset data = MakeData(11, 50, 2);
  AverageFunction avg(7);
  Dataset wide(50, 7);
  for (ObjectId u = 0; u < 50; ++u) {
    for (PredicateId i = 0; i < 7; ++i) {
      wide.SetScore(u, i, data.score(u % 50, i % 2));
    }
  }
  SourceSet sources(&wide, CostModel::Uniform(7, 1.0, 1.0));
  PlannerOptions options;
  options.joint_schedule_search = true;
  CostBasedPlanner planner(&avg, options);
  OptimizerResult plan;
  EXPECT_EQ(planner.Plan(sources, 3, &plan).code(),
            StatusCode::kInvalidArgument);
}

// Every field of a plan, as raw bytes: equal strings mean bit-identical
// plans, down to the sign of a zero.
std::string PlanBytes(const OptimizerResult& plan) {
  std::string bytes;
  const auto append = [&bytes](const auto& value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  const auto append_all = [&](const auto& values) {
    append(values.size());
    for (const auto& value : values) append(value);
  };
  append_all(plan.config.depths);
  append_all(plan.config.schedule);
  append(plan.estimated_cost);
  append(plan.simulations);
  append(plan.prediction.valid);
  append_all(plan.prediction.sorted_accesses);
  append_all(plan.prediction.random_accesses);
  append_all(plan.prediction.cost);
  append(plan.prediction.total_cost);
  return bytes;
}

std::string KeyOf(const CostBasedPlanner& planner, const SourceSet& sources,
                  size_t k) {
  std::string key;
  NC_CHECK(planner.PlanKey(sources, k, &key).ok());
  return key;
}

// The invariant a plan cache rests on: Plan sees k only through the
// sample-scaled k' = ceil(k s / n), so every k sharing a k' gets the same
// plan bit for bit, and PlanKey tells k' values apart exactly.
TEST(PlannerTest, KeysEqualExactlyWhenScaledKDoesAndPlansMatch) {
  struct Case {
    const char* name;
    size_t n;
    SampleMode mode = SampleMode::kFromData;
    bool provider = false;
    size_t replicas = 3;
    bool joint = false;
    bool min = false;
  };
  const std::vector<Case> cases = {
      {"data", 400},
      {"dummy", 400, SampleMode::kDummyUniform},
      {"provider", 400, SampleMode::kFromData, /*provider=*/true},
      {"n_below_s", 60},
      {"dummy_n_below_s", 60, SampleMode::kDummyUniform},
      {"one_replica", 400, SampleMode::kFromData, false, /*replicas=*/1},
      {"joint", 400, SampleMode::kFromData, false, 1, /*joint=*/true},
      {"min", 400, SampleMode::kFromData, false, 3, false, /*min=*/true},
      {"min_dummy_joint", 400, SampleMode::kDummyUniform, false, 1, true,
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Dataset data = MakeData(20, c.n, 3);
    DatasetScoreProvider provider(&data);
    const CostModel cost({1.0, 2.0, 1.0}, {3.0, 1.0, 0.5});
    const std::unique_ptr<SourceSet> sources =
        c.provider ? std::make_unique<SourceSet>(&provider, cost)
                   : std::make_unique<SourceSet>(&data, cost);
    const std::unique_ptr<ScoringFunction> scoring =
        c.min ? std::unique_ptr<ScoringFunction>(new MinFunction(3))
              : std::unique_ptr<ScoringFunction>(new AverageFunction(3));
    PlannerOptions options;
    options.sample_size = 100;
    options.sample_mode = c.mode;
    options.sample_replicas = c.replicas;
    options.joint_schedule_search = c.joint;
    CostBasedPlanner planner(scoring.get(), options);
    const bool from_data = c.mode == SampleMode::kFromData && !c.provider;
    const size_t s = from_data ? std::min<size_t>(100, c.n) : 100;

    std::vector<size_t> k_primes;
    std::vector<std::string> keys;
    std::vector<std::string> plans;
    for (size_t k = 1; k <= 8; ++k) {
      k_primes.push_back(ScaledSampleK(k, c.n, s));
      keys.push_back(KeyOf(planner, *sources, k));
      OptimizerResult plan;
      ASSERT_TRUE(planner.Plan(*sources, k, &plan).ok()) << "k=" << k;
      plans.push_back(PlanBytes(plan));
    }
    size_t shared = 0;
    for (size_t a = 0; a < keys.size(); ++a) {
      for (size_t b = a + 1; b < keys.size(); ++b) {
        EXPECT_EQ(keys[a] == keys[b], k_primes[a] == k_primes[b])
            << "k=" << a + 1 << " vs k=" << b + 1;
        if (keys[a] != keys[b]) continue;
        ++shared;
        EXPECT_EQ(plans[a], plans[b]) << "k=" << a + 1 << " vs k=" << b + 1;
      }
    }
    // n = 400 over s = 100 maps four k values onto each k'.
    if (c.n > 100) {
      EXPECT_GT(shared, 0u);
    }
  }
}

TEST(PlannerTest, KeyTracksCostBitsPagesGroupsAndSampleSource) {
  const Dataset data = MakeData(21, 400);
  const Dataset twin = MakeData(21, 400);
  AverageFunction avg(2);
  CostBasedPlanner planner(&avg, PlannerOptions{});
  const CostModel base = CostModel::Uniform(2, 1.0, 1.0000001);
  const std::string key = KeyOf(planner, SourceSet(&data, base), 5);

  // Differences a decimal rendering of the cost model would round away.
  CostModel nudged = base;
  nudged.random_cost[1] = std::nextafter(nudged.random_cost[1], 2.0);
  EXPECT_NE(KeyOf(planner, SourceSet(&data, nudged), 5), key);
  CostModel sorted = base;
  sorted.sorted_cost[0] = std::nextafter(1.0, 0.0);
  EXPECT_NE(KeyOf(planner, SourceSet(&data, sorted), 5), key);

  CostModel paged = base;
  paged.sorted_page_size = {1, 2};
  const std::string paged_key = KeyOf(planner, SourceSet(&data, paged), 5);
  EXPECT_NE(paged_key, key);
  paged.sorted_page_size = {2, 1};
  EXPECT_NE(KeyOf(planner, SourceSet(&data, paged), 5), paged_key);

  CostModel grouped = base;
  grouped.attribute_groups = {0, 0};
  const std::string grouped_key =
      KeyOf(planner, SourceSet(&data, grouped), 5);
  EXPECT_NE(grouped_key, key);
  grouped.attribute_groups = {0, 1};
  EXPECT_NE(KeyOf(planner, SourceSet(&data, grouped), 5), grouped_key);

  // Data samples are drawn from one particular Dataset; dummy-uniform
  // samples from none, so equal-sized tables share the dummy plan.
  EXPECT_EQ(KeyOf(planner, SourceSet(&data, base), 5), key);
  EXPECT_NE(KeyOf(planner, SourceSet(&twin, base), 5), key);
  PlannerOptions dummy;
  dummy.sample_mode = SampleMode::kDummyUniform;
  CostBasedPlanner dummy_planner(&avg, dummy);
  const SourceSet on_data(&data, base);
  const SourceSet on_twin(&twin, base);
  EXPECT_EQ(KeyOf(dummy_planner, on_data, 5), KeyOf(dummy_planner, on_twin, 5));
  OptimizerResult from_data;
  OptimizerResult from_twin;
  ASSERT_TRUE(dummy_planner.Plan(on_data, 5, &from_data).ok());
  ASSERT_TRUE(dummy_planner.Plan(on_twin, 5, &from_twin).ok());
  EXPECT_EQ(PlanBytes(from_data), PlanBytes(from_twin));

  // n enters k' and the full-scale prediction.
  const Dataset larger = MakeData(21, 401);
  EXPECT_NE(KeyOf(dummy_planner, SourceSet(&larger, base), 5),
            KeyOf(dummy_planner, on_data, 5));
}

TEST(PlannerTest, PlanKeyRefusesWhatPlanRefuses) {
  const Dataset data = MakeData(22, 50);
  AverageFunction avg(2);
  AverageFunction wide(3);
  const SourceSet sources(&data, CostModel::Uniform(2, 1.0, 1.0));
  std::string key = "untouched";
  EXPECT_EQ(CostBasedPlanner(&avg, PlannerOptions{})
                .PlanKey(sources, 0, &key)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CostBasedPlanner(&wide, PlannerOptions{})
                .PlanKey(sources, 5, &key)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(key, "untouched");
}

TEST(PlannerTest, SearchSchemeNames) {
  EXPECT_STREQ(SearchSchemeName(SearchScheme::kNaive), "Naive");
  EXPECT_STREQ(SearchSchemeName(SearchScheme::kStrategies), "Strategies");
  EXPECT_STREQ(SearchSchemeName(SearchScheme::kHClimb), "HClimb");
}

}  // namespace
}  // namespace nc
