// QueryServer: concurrency, isolation, backpressure, and graceful drain.
//
// The load-bearing test is the differential one: K queries answered
// concurrently by 4 workers must be bit-identical - object ids AND
// double scores - to the same K queries answered serially by a plain
// QuerySession. Run under TSan (the tsan CMake preset), the fleet
// stress test is also the data-race proof for the shared TelemetryHub.

#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "access/budget.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/planner.h"
#include "core/reference.h"
#include "core/srg_policy.h"
#include "data/generator.h"
#include "replica/replica.h"

namespace nc {
namespace {

using server::QueryRequest;
using server::QueryResponse;
using server::QueryServer;
using server::ServeOutcome;
using server::ServerConfig;
using server::WorkerStack;

Dataset MakeData(uint64_t seed, size_t n = 600) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = 2;
  g.seed = seed;
  return GenerateDataset(g);
}

PlannerOptions SmallPlanner() {
  PlannerOptions options;
  options.sample_size = 100;
  return options;
}

// The minimal stack: a private SourceSet per worker, nothing else.
class PlainStack : public WorkerStack {
 public:
  PlainStack(const Dataset* data, CostModel cost)
      : sources_(data, std::move(cost)) {}
  SourceSet& sources() override { return sources_; }

 private:
  SourceSet sources_;
};

// A worker stack with the full fault-tolerance machinery: a private
// three-replica fleet per predicate (flaky primary, cheap cache, remote
// mirror), retries, breakers, and adaptive hedging off the shared hub.
// Every RNG stream in here is born on - and confined to - one worker.
class FleetStack : public WorkerStack {
 public:
  FleetStack(const Dataset* data, CostModel cost, uint64_t seed)
      : fleet_(seed), sources_(data, std::move(cost)) {
    ReplicaEndpoint primary;
    primary.name = "primary";
    primary.faults.transient_rate = 0.15;
    primary.latency.jitter = 0.2;
    primary.latency.tail_probability = 0.05;
    primary.latency.tail_multiplier = 12.0;
    ReplicaEndpoint cache;
    cache.name = "cache";
    cache.cost_multiplier = 0.5;
    cache.latency.multiplier = 1.5;
    ReplicaEndpoint mirror;
    mirror.name = "mirror";
    mirror.latency.jitter = 0.3;
    for (PredicateId i = 0; i < 2; ++i) {
      ReplicaSetConfig config;
      config.replicas = {primary, cache, mirror};
      config.routing = RoutingPolicy::kLeastLatency;
      config.hedge.delay = 3.0;
      config.hedge.adaptive = true;
      NC_CHECK(fleet_.Configure(i, config).ok());
    }
    RetryPolicy retry;
    retry.max_attempts = 3;
    sources_.set_retry_policy(retry, /*jitter_seed=*/seed);
    CircuitBreakerPolicy breaker;
    breaker.failure_threshold = 4;
    breaker.cooldown = 6.0;
    NC_CHECK(sources_.set_circuit_breaker(breaker).ok());
    NC_CHECK(sources_.set_replica_fleet(&fleet_).ok());
  }
  SourceSet& sources() override { return sources_; }

 private:
  ReplicaFleet fleet_;  // Declared first: sources_ points at it.
  SourceSet sources_;
};

TEST(ServerTest, ConfigValidates) {
  ServerConfig config;
  config.num_workers = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.num_workers = 2;
  config.queue_capacity = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.queue_capacity = 8;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ServerTest, LifecycleAndRejections) {
  const Dataset data = MakeData(11);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  ServerConfig config;
  config.num_workers = 2;
  config.planner = SmallPlanner();
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });

  // Not started yet: refuse, don't crash.
  std::future<QueryResponse> response;
  EXPECT_EQ(server.Submit(QueryRequest{}, &response).code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(server.running());

  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);

  // Malformed request: rejected at Submit, nothing enqueued.
  QueryRequest zero_k;
  zero_k.k = 0;
  EXPECT_EQ(server.Submit(zero_k, &response).code(),
            StatusCode::kInvalidArgument);

  QueryRequest request;
  request.k = 5;
  ASSERT_TRUE(server.Submit(request, &response).ok());
  const QueryResponse served = response.get();
  EXPECT_EQ(served.outcome, ServeOutcome::kCompleted);
  EXPECT_TRUE(served.status.ok());
  EXPECT_EQ(served.result, BruteForceTopK(data, avg, 5));

  server.Shutdown(/*finish_queued=*/true);
  EXPECT_FALSE(server.running());
  // Idempotent; a stopped server refuses new queries.
  server.Shutdown(/*finish_queued=*/true);
  EXPECT_EQ(server.Submit(request, &response).code(),
            StatusCode::kUnavailable);

  // A shut-down server restarts cleanly.
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Submit(request, &response).ok());
  EXPECT_EQ(response.get().result, BruteForceTopK(data, avg, 5));
  server.Shutdown(/*finish_queued=*/true);

  const server::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_GE(stats.rejected, 2u);  // The pre-start and post-stop refusals.
}

// THE differential test: concurrent answers are bit-identical to serial
// ones. A query's answer must depend only on (k, budget, stack config) -
// never on which worker served it, in what order, or what ran alongside.
TEST(ServerTest, ConcurrentMatchesSerialBitIdentical) {
  const Dataset data = MakeData(21, 800);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  const std::vector<size_t> ks = {1, 3, 5, 8, 10, 2, 7, 4,
                                  9, 6, 5, 3, 10, 1, 8, 2};

  // Serial reference: one plain session, one stack, rewound per query -
  // exactly what each worker does, minus the concurrency.
  std::vector<TopKResult> serial(ks.size());
  {
    QuerySession session(&avg, SmallPlanner());
    SourceSet sources(&data, cost);
    for (size_t j = 0; j < ks.size(); ++j) {
      sources.Reset();
      ASSERT_TRUE(session.Query(&sources, ks[j], &serial[j]).ok());
    }
  }

  ServerConfig config;
  config.num_workers = 4;
  config.queue_capacity = ks.size();
  config.planner = SmallPlanner();
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::future<QueryResponse>> responses(ks.size());
  for (size_t j = 0; j < ks.size(); ++j) {
    QueryRequest request;
    request.k = ks[j];
    ASSERT_TRUE(server.Submit(request, &responses[j]).ok());
  }
  for (size_t j = 0; j < ks.size(); ++j) {
    const QueryResponse response = responses[j].get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(response.outcome, ServeOutcome::kCompleted);
    ASSERT_EQ(response.result.entries.size(), serial[j].entries.size());
    for (size_t r = 0; r < serial[j].entries.size(); ++r) {
      // operator== on TopKEntry is exact (object AND double score):
      // bit-identical, not approximately equal.
      EXPECT_EQ(response.result.entries[r], serial[j].entries[r])
          << "query " << j << " rank " << r;
    }
    EXPECT_GT(response.accesses, 0u);
    EXPECT_GT(response.accrued_cost, 0.0);
    EXPECT_LT(response.worker, 4u);
  }
  server.Shutdown(/*finish_queued=*/true);
  EXPECT_EQ(server.stats().completed, ks.size());
  EXPECT_EQ(server.hub().queries_observed(), ks.size());
}

// The per-query budget is the isolation primitive: one starved query is
// certified and barred; its neighbors on other workers stay exact.
TEST(ServerTest, BudgetIsolatesQueries) {
  const Dataset data = MakeData(31, 800);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  ServerConfig config;
  config.num_workers = 4;
  config.queue_capacity = 8;
  config.planner = SmallPlanner();
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());

  QueryRequest starved;
  starved.k = 10;
  starved.budget.max_cost = 6.0;  // A handful of accesses at best.
  std::future<QueryResponse> starved_response;
  ASSERT_TRUE(server.Submit(starved, &starved_response).ok());

  std::vector<std::future<QueryResponse>> rich_responses(6);
  for (auto& response : rich_responses) {
    QueryRequest rich;
    rich.k = 10;
    ASSERT_TRUE(server.Submit(rich, &response).ok());
  }

  const QueryResponse starved_served = starved_response.get();
  ASSERT_TRUE(starved_served.status.ok()) << starved_served.status;
  EXPECT_EQ(starved_served.query_outcome, QueryOutcome::kBudgetExhausted);
  ASSERT_TRUE(starved_served.result.certificate.has_value());
  EXPECT_LE(starved_served.accrued_cost, 6.0 + 4.0);  // One-access overshoot.

  const TopKResult expected = BruteForceTopK(data, avg, 10);
  for (auto& response : rich_responses) {
    const QueryResponse served = response.get();
    ASSERT_TRUE(served.status.ok()) << served.status;
    EXPECT_EQ(served.query_outcome, QueryOutcome::kExact);
    EXPECT_EQ(served.result, expected);
  }
  server.Shutdown(/*finish_queued=*/true);

  // A budget the sources reject (wrong quota arity) is a kRejected
  // response, not a crash and not a served query.
  ASSERT_TRUE(server.Start().ok());
  QueryRequest malformed;
  malformed.k = 5;
  malformed.budget.predicate_quota = {10, 10, 10};  // 3 quotas, 2 predicates.
  std::future<QueryResponse> malformed_response;
  ASSERT_TRUE(server.Submit(malformed, &malformed_response).ok());
  const QueryResponse refused = malformed_response.get();
  EXPECT_EQ(refused.outcome, ServeOutcome::kRejected);
  EXPECT_FALSE(refused.status.ok());
  server.Shutdown(/*finish_queued=*/true);
}

// The bounded admission queue is the backpressure signal.
TEST(ServerTest, FullQueueRefusesWithResourceExhausted) {
  const Dataset data = MakeData(41, 400);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  ServerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 2;
  config.planner = SmallPlanner();
  config.simulated_access_stall_us = 500;  // Keep the lone worker busy.
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::future<QueryResponse>> accepted;
  size_t refused = 0;
  for (int j = 0; j < 10; ++j) {
    QueryRequest request;
    request.k = 5;
    std::future<QueryResponse> response;
    const Status status = server.Submit(request, &response);
    if (status.ok()) {
      accepted.push_back(std::move(response));
    } else {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
      ++refused;
    }
  }
  // 10 rapid submits against capacity 2 and one slow worker: the queue
  // must have filled at least once.
  EXPECT_GE(refused, 1u);
  server.Shutdown(/*finish_queued=*/true);
  // Every accepted query was served to its natural end.
  const TopKResult expected = BruteForceTopK(data, avg, 5);
  for (auto& response : accepted) {
    const QueryResponse served = response.get();
    EXPECT_EQ(served.outcome, ServeOutcome::kCompleted);
    EXPECT_EQ(served.result, expected);
  }
  EXPECT_GE(server.stats().rejected, refused);
  EXPECT_GE(server.stats().peak_queue_depth, 2u);
}

// Graceful fast drain: the in-flight query comes back certified with a
// checkpoint that resumes - on a fresh, identically configured stack -
// to the exact uninterrupted answer; the queued query is flushed.
TEST(ServerTest, DrainCertifiesInFlightAndCheckpointResumes) {
  const Dataset data = MakeData(51, 1500);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  const size_t k = 10;
  ServerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 4;
  config.planner = SmallPlanner();
  config.simulated_access_stall_us = 1000;  // ~1ms/access: a long query.
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  ASSERT_TRUE(server.Start().ok());

  QueryRequest request;
  request.k = k;
  std::future<QueryResponse> in_flight;
  ASSERT_TRUE(server.Submit(request, &in_flight).ok());
  std::future<QueryResponse> queued;
  ASSERT_TRUE(server.Submit(request, &queued).ok());

  // Let the lone worker get well into the first query (each access
  // stalls 1ms; the full query takes hundreds).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Shutdown(/*finish_queued=*/false);

  const QueryResponse drained = in_flight.get();
  ASSERT_EQ(drained.outcome, ServeOutcome::kDrained);
  ASSERT_TRUE(drained.status.ok()) << drained.status;
  EXPECT_EQ(drained.query_outcome, QueryOutcome::kBudgetExhausted);
  ASSERT_TRUE(drained.result.certificate.has_value());
  ASSERT_FALSE(drained.drain_checkpoint.empty());

  const QueryResponse flushed = queued.get();
  EXPECT_EQ(flushed.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(flushed.status.code(), StatusCode::kUnavailable);

  EXPECT_EQ(server.stats().drained, 1u);
  EXPECT_EQ(server.stats().flushed, 1u);

  // Resume the drain checkpoint on a fresh stack configured exactly like
  // the worker's. The worker's plan is the deterministic planner output
  // for (scoring, options, cost model, k), so recompute it here.
  EngineCheckpoint checkpoint;
  ASSERT_TRUE(ParseCheckpoint(drained.drain_checkpoint, &checkpoint).ok());
  EXPECT_EQ(checkpoint.k, k);
  EXPECT_GT(checkpoint.accesses, 0u);

  SourceSet resumed_sources(&data, cost);
  CostBasedPlanner planner(&avg, SmallPlanner());
  OptimizerResult plan;
  ASSERT_TRUE(planner.Plan(resumed_sources, k, &plan).ok());
  SRGPolicy policy(plan.config);
  EngineOptions engine_options;
  engine_options.k = k;
  NCEngine engine(&resumed_sources, &avg, &policy, engine_options);
  TopKResult resumed;
  ASSERT_TRUE(engine.Resume(checkpoint, &resumed).ok());

  // Bit-identical to the uninterrupted run (and thus to brute force).
  const TopKResult expected = BruteForceTopK(data, avg, k);
  ASSERT_EQ(resumed.entries.size(), expected.entries.size());
  for (size_t r = 0; r < expected.entries.size(); ++r) {
    EXPECT_EQ(resumed.entries[r], expected.entries[r]) << "rank " << r;
  }
  EXPECT_FALSE(resumed.certificate.has_value());
}

// The TSan meat: 4 workers with full fleet stacks (per-replica fault
// injectors, breakers, hedging) all feeding ONE shared hub, submissions
// racing in from two threads. Under -DNC_SANITIZE=thread this is the
// no-data-races proof for the whole server + hub + confinement design.
TEST(ServerTest, FleetStressSharedHubUnderConcurrency) {
  const Dataset data = MakeData(61, 500);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  ServerConfig config;
  config.num_workers = 4;
  config.queue_capacity = 64;
  config.planner = SmallPlanner();
  QueryServer server(&avg, config, [&](size_t index) {
    return std::make_unique<FleetStack>(&data, cost, /*seed=*/100 + index);
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kQueriesPerThread = 12;
  std::atomic<size_t> answered{0};
  auto submit_loop = [&](size_t base_seed) {
    std::vector<std::future<QueryResponse>> responses;
    for (size_t j = 0; j < kQueriesPerThread; ++j) {
      QueryRequest request;
      request.k = 1 + (base_seed + j) % 10;
      if (j % 3 == 0) request.budget.max_cost = 40.0;
      std::future<QueryResponse> response;
      ASSERT_TRUE(server.Submit(request, &response).ok());
      responses.push_back(std::move(response));
    }
    for (auto& response : responses) {
      const QueryResponse served = response.get();
      // Faults are transient and replicated: every query must come back
      // answered - exactly, budget-certified, or (worst case) degraded.
      ASSERT_TRUE(served.status.ok()) << served.status;
      EXPECT_NE(served.outcome, ServeOutcome::kRejected);
      EXPECT_FALSE(served.result.entries.empty());
      answered.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread submitter_a(submit_loop, 0);
  std::thread submitter_b(submit_loop, 5);
  submitter_a.join();
  submitter_b.join();
  server.Shutdown(/*finish_queued=*/true);

  EXPECT_EQ(answered.load(), 2 * kQueriesPerThread);
  EXPECT_EQ(server.hub().queries_observed(), 2 * kQueriesPerThread);
  // The shared hub actually saw the fleet: per-replica service samples
  // and (after the workers' Resets) captured health exist.
  EXPECT_GT(server.hub().replica_service_count(0, 0), 0u);
  const server::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2 * kQueriesPerThread);
  EXPECT_EQ(stats.completed + stats.errors, 2 * kQueriesPerThread);
  EXPECT_EQ(stats.errors, 0u);
}

// Plans served over a server's /metrics counter, by where they came from.
double PlansServed(const QueryServer& server, const char* source) {
  return server.metrics().CounterSum("nc_server_plans_total",
                                     {{"source", source}});
}

// Submits every k at once and waits for all the answers.
std::vector<QueryResponse> ServeAll(QueryServer& server,
                                    const std::vector<size_t>& ks) {
  std::vector<std::future<QueryResponse>> futures(ks.size());
  for (size_t j = 0; j < ks.size(); ++j) {
    QueryRequest request;
    request.k = ks[j];
    NC_CHECK(server.Submit(request, &futures[j]).ok());
  }
  std::vector<QueryResponse> responses;
  for (auto& future : futures) responses.push_back(future.get());
  return responses;
}

// A standalone optimized run: the answer and Eq. 1 cost every server
// response for the same (k, cost model) must reproduce exactly.
struct Standalone {
  TopKResult result;
  double cost = 0.0;
};

Standalone RunStandalone(const Dataset& data, const ScoringFunction& scoring,
                         const CostModel& cost, size_t k) {
  SourceSet sources(&data, cost);
  Standalone out;
  NC_CHECK(RunOptimizedNC(&sources, scoring, k, SmallPlanner(), &out.result)
               .ok());
  out.cost = sources.accrued_cost();
  return out;
}

// The workers of one server run share one plan cache. n = 1000 over a
// 100-object sample scales k = 1..20 to just two k' values, so 4 workers
// plan at most 4 x 2 times however many queries they serve, and every
// answer matches a standalone run.
TEST(ServerTest, WorkersShareOnePlanCachePerRun) {
  const Dataset data = MakeData(71, 1000);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  std::vector<size_t> ks;
  for (int round = 0; round < 3; ++round) {
    for (size_t k = 1; k <= 20; ++k) ks.push_back(k);
  }
  std::vector<Standalone> expected;
  for (size_t k = 1; k <= 20; ++k) {
    expected.push_back(RunStandalone(data, avg, cost, k));
  }

  ServerConfig config;
  config.num_workers = 4;
  config.queue_capacity = ks.size();
  config.planner = SmallPlanner();
  QueryServer server(&avg, config, [&](size_t) {
    return std::make_unique<PlainStack>(&data, cost);
  });
  for (int run = 1; run <= 2; ++run) {
    SCOPED_TRACE(run);
    const double planned_before = PlansServed(server, "planned");
    const double cached_before = PlansServed(server, "cached");
    ASSERT_TRUE(server.Start().ok());
    const std::vector<QueryResponse> responses = ServeAll(server, ks);
    server.Shutdown(/*finish_queued=*/true);
    for (size_t j = 0; j < ks.size(); ++j) {
      const QueryResponse& response = responses[j];
      ASSERT_TRUE(response.status.ok()) << response.status;
      EXPECT_EQ(response.result, expected[ks[j] - 1].result) << "k=" << ks[j];
      EXPECT_EQ(response.accrued_cost, expected[ks[j] - 1].cost)
          << "k=" << ks[j];
    }
    // Each run starts from an empty cache: both signatures are planned
    // again after the restart.
    const double planned = PlansServed(server, "planned") - planned_before;
    const double cached = PlansServed(server, "cached") - cached_before;
    EXPECT_GE(planned, 2.0);
    EXPECT_LE(planned, 4.0 * 2.0);
    EXPECT_EQ(planned + cached, static_cast<double>(ks.size()));
  }
}

// A worker whose cost model was downgraded plans under its own key: its
// answers are the downgraded scenario's, and the healthy workers keep
// theirs. The downgrade is the one a source death applies, made
// persistent through set_cost_model so that it is still in force when
// the next query plans (Reset revives a dead source).
TEST(ServerTest, DowngradedWorkerPlansUnderItsOwnKey) {
  const Dataset data = MakeData(72, 1000);
  const AverageFunction avg(2);
  // Cheap probes, so that withdrawing one changes the plan and its cost.
  const CostModel healthy = CostModel::Uniform(2, 1.0, 0.5);
  CostModel downgraded = healthy;
  downgraded.random_cost[1] = kImpossibleCost;
  std::vector<size_t> ks;
  for (int round = 0; round < 3; ++round) {
    for (size_t k = 1; k <= 20; ++k) ks.push_back(k);
  }

  ServerConfig config;
  config.num_workers = 4;
  config.queue_capacity = ks.size();
  config.planner = SmallPlanner();
  QueryServer server(&avg, config, [&](size_t index) {
    auto stack = std::make_unique<PlainStack>(&data, healthy);
    if (index == 0) NC_CHECK(stack->sources().set_cost_model(downgraded).ok());
    return stack;
  });
  ASSERT_TRUE(server.Start().ok());
  const std::vector<QueryResponse> responses = ServeAll(server, ks);
  server.Shutdown(/*finish_queued=*/true);

  size_t downgraded_served = 0;
  for (size_t j = 0; j < ks.size(); ++j) {
    const QueryResponse& response = responses[j];
    ASSERT_TRUE(response.status.ok()) << response.status;
    const bool on_downgraded = response.worker == 0;
    downgraded_served += on_downgraded ? 1 : 0;
    const Standalone expected = RunStandalone(
        data, avg, on_downgraded ? downgraded : healthy, ks[j]);
    EXPECT_EQ(response.result, expected.result) << "k=" << ks[j];
    EXPECT_EQ(response.accrued_cost, expected.cost)
        << "k=" << ks[j] << " worker=" << response.worker;
  }
  EXPECT_GT(downgraded_served, 0u);
  // Two cost models, two k' values each: at most workers x 4 plans.
  EXPECT_LE(PlansServed(server, "planned"), 4.0 * 4.0);
}

}  // namespace
}  // namespace nc
