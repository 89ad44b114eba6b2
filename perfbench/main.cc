// End-to-end server benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Drives a QueryServer through one workload (workload.h) from this one
// process, through public APIs only, and checks every answer against the
// brute-force oracle. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs half the time untraced and half with the server's cost-center
// profiler on, and reports the per-layer split of the traced half. A
// human-readable table goes to stderr.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/cost_model.h"
#include "access/source.h"
#include "cache/cache.h"
#include "checker.h"
#include "common/stats.h"
#include "loadgen.h"
#include "obs/profiler.h"
#include "replica/replica.h"
#include "scoring/scoring_function.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using nc::obs::CostCenter;

// The open loop is valid only while the generator keeps its schedule:
// its 99th-percentile lateness must stay under this.
constexpr double kLateSlackMs = 20.0;

// The traced pass splits mean service time into profiled cost centers,
// the measured stall, and the residual (engine.unattributed_ms_per_query:
// the engine loop outside the named centers, session and server
// overhead). The split is accepted when the residual lies within this
// range, as a share of mean service time: the named parts may overshoot
// the whole only by measurement noise, and must explain at least half.
constexpr double kResidualFloor = -0.15;
constexpr double kResidualCeiling = 0.50;

// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;

constexpr size_t kQueueCapacity = 64;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') args->seconds = 0.0;
    } else if (flag == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0 &&
         args->trace >= 0 && !args->workload.empty();
}

// One worker's private stack: the generated dataset behind the Eq. 1
// cost model, plus the replica fleet when the workload has one. Built
// from the dataset (never a ScoreProvider) so the planner samples the
// real data.
class BenchStack : public nc::server::WorkerStack {
 public:
  BenchStack(const nc::Dataset* data, const WorkloadSpec& spec,
             uint64_t fleet_seed)
      : fleet_(fleet_seed),
        sources_(data, nc::CostModel::Uniform(spec.num_predicates,
                                              spec.sorted_cost,
                                              spec.random_cost)) {
    if (!spec.replicas) return;
    nc::ReplicaSetConfig set;
    set.routing = nc::RoutingPolicy::kLeastLatency;
    // Fires only on stragglers: a normal draw is at most 1.5 units.
    set.hedge.delay = 4.0;
    for (int r = 0; r < 2; ++r) {
      nc::ReplicaEndpoint endpoint;
      endpoint.faults.transient_rate = 0.02;
      endpoint.latency.jitter = 0.5;
      endpoint.latency.tail_probability = 0.05;
      endpoint.latency.tail_multiplier = 20.0;
      set.replicas.push_back(endpoint);
    }
    for (nc::PredicateId i = 0; i < spec.num_predicates; ++i) {
      NC_CHECK(fleet_.Configure(i, set).ok());
    }
    NC_CHECK(sources_.set_replica_fleet(&fleet_).ok());
  }

  nc::SourceSet& sources() override { return sources_; }

 private:
  nc::ReplicaFleet fleet_;  // Outlives sources_, which points at it.
  nc::SourceSet sources_;
};

// A started server over freshly generated inputs, warmed up. The inputs
// sit behind a pointer because every worker stack points at the dataset.
// Reset `server` before replacing or dropping `inputs`.
struct Deployment {
  std::unique_ptr<WorkloadInputs> inputs;
  std::unique_ptr<nc::server::QueryServer> server;
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Generates the inputs, builds every sorted order, starts the server and
// runs the warm-up. Wrong warm-up answers land in *warmup_failure.
Deployment SetUp(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 bool profiler, const nc::ScoringFunction& scoring,
                 const AnswerChecker& checker, std::string* warmup_failure) {
  Deployment d;
  d.inputs = std::make_unique<WorkloadInputs>(
      GenerateInputs(spec, seed, seconds));
  for (nc::PredicateId i = 0; i < spec.num_predicates; ++i) {
    d.inputs->data.SortedOrder(i);
  }
  nc::server::ServerConfig config;
  config.num_workers = spec.workers;
  config.queue_capacity = kQueueCapacity;
  config.simulated_access_stall_us = spec.stall_us;
  config.enable_cache = spec.cache;
  config.enable_profiler = profiler;
  const nc::Dataset* data = &d.inputs->data;
  d.server = std::make_unique<nc::server::QueryServer>(
      &scoring, config, [data, &spec, seed](size_t) {
        return std::make_unique<BenchStack>(data, spec, seed);
      });
  NC_CHECK(d.server->Start().ok());
  const PassResult warmup =
      RunClosedLoop(*d.server, spec.warmup_k, spec.workers, 1e9,
                    spec.warmup_requests, checker);
  if (warmup_failure->empty()) *warmup_failure = warmup.first_failure;
  return d;
}

// --- Layer counters, read through the server's public surfaces --------

struct LayerCounters {
  std::vector<double> self_ns, count;  // Per cost center.
  double sorted = 0, random = 0, retries = 0, faults = 0;
  double failovers = 0, hedges = 0, hedge_wins = 0;
  nc::cache::CacheStatsSnapshot cache;
};

LayerCounters ReadCounters(nc::server::QueryServer& server) {
  const nc::obs::MetricsRegistry& m = server.metrics();
  LayerCounters c;
  for (size_t i = 0; i < nc::obs::kNumCostCenters; ++i) {
    const nc::obs::LabelSet center = {
        {"center", nc::obs::CostCenterName(static_cast<CostCenter>(i))}};
    c.self_ns.push_back(m.CounterSum("nc_profile_self_ns_total", center));
    c.count.push_back(m.CounterSum("nc_profile_count_total", center));
  }
  c.sorted = m.CounterSum("nc_accesses_total", {{"type", "sorted"}});
  c.random = m.CounterSum("nc_accesses_total", {{"type", "random"}});
  c.retries = m.CounterSum("nc_access_retries_total");
  c.faults = m.CounterSum("nc_access_faults_total");
  c.failovers = m.CounterSum("nc_replica_failovers_total");
  c.hedges = m.CounterSum("nc_hedges_issued_total");
  c.hedge_wins = m.CounterSum("nc_hedge_wins_total");
  if (server.access_cache() != nullptr) {
    c.cache = server.access_cache()->Snapshot();
  }
  return c;
}

// Samples what one sleep_for(stall) really takes while the traced pass
// runs: the server's per-access stall hook sleeps the same way, under the
// same host load. It sleeps in bursts so that it adds little load itself.
class StallSampler {
 public:
  explicit StallSampler(size_t stall_us) : stall_(stall_us) {
    if (stall_us > 0) thread_ = std::thread([this] { Run(); });
  }
  ~StallSampler() { Stop(); }
  StallSampler(const StallSampler&) = delete;
  StallSampler& operator=(const StallSampler&) = delete;

  // Stops sampling. The mean sleep in milliseconds; 0 without a stall.
  double StopAndMeanMs() {
    Stop();
    return sleeps_ == 0 ? 0.0 : total_ms_ / static_cast<double>(sleeps_);
  }

 private:
  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  void Run() {
    while (!stop_) {
      for (int i = 0; i < 50; ++i) {
        const Clock::time_point start = Clock::now();
        std::this_thread::sleep_for(stall_);
        total_ms_ += SecondsSince(start) * 1000.0;
        ++sleeps_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  const std::chrono::microseconds stall_;
  std::atomic<bool> stop_{false};
  // Written only by thread_, read after it is joined.
  double total_ms_ = 0.0;
  size_t sleeps_ = 0;
  std::thread thread_;  // Last: starts after the members it uses.
};

// --- Reporting --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string Number(double v) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

struct Tally {
  size_t attempted = 0, answered = 0, correct = 0;
  std::vector<double> latency_us, service_us, queue_us, late_us;
  double cost = 0.0, accesses = 0.0, service_total_us = 0.0;
};

Tally Summarize(const PassResult& pass) {
  Tally t;
  t.attempted = pass.records.size();
  for (const RequestRecord& r : pass.records) {
    t.late_us.push_back(r.late_us);
    if (!r.answered) continue;
    ++t.answered;
    if (r.correct) ++t.correct;
    t.latency_us.push_back(r.latency_us);
    t.service_us.push_back(r.service_us);
    t.queue_us.push_back(std::max(0.0, r.latency_us - r.service_us));
    t.cost += r.cost;
    t.accesses += r.accesses;
    t.service_total_us += r.service_us;
  }
  return t;
}

double PerQuery(double total, const Tally& t) {
  return t.answered == 0 ? 0.0 : total / static_cast<double>(t.answered);
}

double Ms(const std::vector<double>& us, double q) {
  return us.empty() ? 0.0 : nc::Percentile(us, q) / 1000.0;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::vector<Metric> EndToEnd(const PassResult& pass, double setup_s) {
  const Tally t = Summarize(pass);
  return {
      {"latency_p50_ms", Ms(t.latency_us, 0.50), "ms"},
      {"latency_p99_ms", Ms(t.latency_us, 0.99), "ms"},
      {"qps", static_cast<double>(t.correct) / pass.window_s, "1/s"},
      {"cost_per_query", PerQuery(t.cost, t), "eq1_units"},
      {"cpu_ms_per_query", PerQuery(pass.cpu_s * 1000.0, t), "ms"},
      {"correct_frac",
       static_cast<double>(t.correct) / static_cast<double>(t.attempted),
       "ratio"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"setup_s", setup_s, "s"},
  };
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const PassResult& traced,
                             const LayerCounters& before,
                             const LayerCounters& after,
                             const nc::server::ServerStats& stats,
                             double untraced_service_mean_us, double stall_ms,
                             double offered_qps, std::string* residual_error) {
  const Tally t = Summarize(traced);
  const auto center = [&](CostCenter c, bool self_time) {
    const size_t i = static_cast<size_t>(c);
    return self_time ? after.self_ns[i] - before.self_ns[i]
                     : after.count[i] - before.count[i];
  };
  const auto ms_per_query = [&](double ns) { return PerQuery(ns / 1e6, t); };
  double profiled_ns = 0.0;
  for (size_t i = 0; i < nc::obs::kNumCostCenters; ++i) {
    // Queue wait is folded in as an external center; it is not service.
    if (static_cast<CostCenter>(i) == CostCenter::kServerQueue) continue;
    profiled_ns += after.self_ns[i] - before.self_ns[i];
  }
  const double service_ms = PerQuery(t.service_total_us, t) / 1000.0;
  const double stall_per_query = stall_ms * PerQuery(t.accesses, t);
  const double unattributed =
      service_ms - ms_per_query(profiled_ns) - stall_per_query;
  if (unattributed < kResidualFloor * service_ms ||
      unattributed > kResidualCeiling * service_ms) {
    *residual_error = "profiled centers + stall = " +
                      Number(service_ms - unattributed) + " ms of " +
                      Number(service_ms) + " ms service";
  }
  const double heap_ns = center(CostCenter::kCandidateHeap, true);
  const double heap_ops = center(CostCenter::kCandidateHeap, false);
  const double hedges = after.hedges - before.hedges;
  const double lookups = static_cast<double>(
      after.cache.hits() + after.cache.misses() - before.cache.hits() -
      before.cache.misses());
  const double busy = t.service_total_us / 1e6 /
                      (static_cast<double>(spec.workers) * traced.window_s);
  return {
      {"server.queue_wait_p50_ms", Ms(t.queue_us, 0.50), "ms"},
      {"server.queue_wait_p99_ms", Ms(t.queue_us, 0.99), "ms"},
      {"server.service_p50_ms", Ms(t.service_us, 0.50), "ms"},
      {"server.service_p99_ms", Ms(t.service_us, 0.99), "ms"},
      {"server.service_mean_ms", service_ms, "ms"},
      {"server.worker_busy_frac", busy, "ratio"},
      {"server.peak_queue_depth", static_cast<double>(stats.peak_queue_depth),
       "count"},
      {"planner.ms_per_query",
       ms_per_query(center(CostCenter::kOptimizerSimulate, true) +
                    center(CostCenter::kHillClimbStep, true)),
       "ms"},
      {"planner.simulations_per_query",
       PerQuery(center(CostCenter::kOptimizerSimulate, false), t), "count"},
      {"planner.hill_climb_steps_per_query",
       PerQuery(center(CostCenter::kHillClimbStep, false), t), "count"},
      {"engine.heap_ms_per_query", ms_per_query(heap_ns), "ms"},
      {"engine.heap_ops_per_query", PerQuery(heap_ops, t), "count"},
      {"engine.heap_ns_per_op", heap_ops == 0 ? 0.0 : heap_ns / heap_ops, "ns"},
      {"engine.certificate_ms_per_query",
       ms_per_query(center(CostCenter::kCertificateBuild, true)), "ms"},
      {"engine.unattributed_ms_per_query", unattributed, "ms"},
      {"access.sorted_per_query", PerQuery(after.sorted - before.sorted, t),
       "count"},
      {"access.random_per_query", PerQuery(after.random - before.random, t),
       "count"},
      {"access.ms_per_query",
       ms_per_query(center(CostCenter::kSortedAccess, true) +
                    center(CostCenter::kRandomAccess, true)),
       "ms"},
      {"access.retries_per_query", PerQuery(after.retries - before.retries, t),
       "count"},
      {"access.faults_per_query", PerQuery(after.faults - before.faults, t),
       "count"},
      {"access.stall_ms_per_query", stall_per_query, "ms"},
      {"cache.hit_rate",
       lookups == 0
           ? 0.0
           : static_cast<double>(after.cache.hits() - before.cache.hits()) /
                 lookups,
       "ratio"},
      {"cache.misses_per_query",
       PerQuery(static_cast<double>(after.cache.misses() -
                                    before.cache.misses()),
                t),
       "count"},
      {"cache.evictions_per_query",
       PerQuery(static_cast<double>(after.cache.evictions -
                                    before.cache.evictions),
                t),
       "count"},
      {"cache.inflight_merges_per_query",
       PerQuery(static_cast<double>(after.cache.inflight_merges -
                                    before.cache.inflight_merges),
                t),
       "count"},
      {"cache.probe_ms_per_query",
       ms_per_query(center(CostCenter::kCacheProbe, true)), "ms"},
      {"replica.failovers_per_query",
       PerQuery(after.failovers - before.failovers, t), "count"},
      {"replica.hedges_per_query", PerQuery(hedges, t), "count"},
      {"replica.hedge_win_rate",
       hedges == 0 ? 0.0 : (after.hedge_wins - before.hedge_wins) / hedges,
       "ratio"},
      {"replica.hedge_wait_ms_per_query",
       ms_per_query(center(CostCenter::kHedgeWait, true)), "ms"},
      {"obs.trace_overhead_frac",
       PerQuery(t.service_total_us, t) / untraced_service_mean_us - 1.0,
       "ratio"},
      {"loadgen.offered_qps", offered_qps, "1/s"},
      {"loadgen.late_p99_ms", Ms(t.late_us, 0.99), "ms"},
      {"loadgen.latency_samples", static_cast<double>(t.answered), "count"},
  };
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Seeded generation must be reproducible and seed-sensitive.
std::string CheckDeterminism(const WorkloadSpec& spec, uint64_t seed,
                             double seconds) {
  const std::string a = SerializeInputs(GenerateInputs(spec, seed, seconds));
  const std::string b = SerializeInputs(GenerateInputs(spec, seed, seconds));
  const std::string c =
      SerializeInputs(GenerateInputs(spec, seed + 1, seconds));
  if (a != b) return "one seed generated two different inputs";
  if (a == c) return "two seeds generated identical inputs";
  return "";
}

PassResult RunPass(nc::server::QueryServer& server, const WorkloadSpec& spec,
                   const WorkloadInputs& inputs, double seconds,
                   const AnswerChecker& checker) {
  if (spec.arrival_qps > 0.0) {
    return RunOpenLoop(server, inputs.ks, inputs.due_s,
                       kQueueCapacity + spec.workers, checker);
  }
  if (spec.restart_every == 0) {
    return RunClosedLoop(server, inputs.ks, spec.workers, seconds,
                         inputs.ks.size(), checker);
  }
  // Each epoch starts on a restarted server with an empty access cache:
  // fresh per-worker sessions (empty plan caches), and every source item
  // is fetched and billed again. Epochs run whole, so that every epoch
  // serves the same k multiset and the window ends on an epoch boundary.
  PassResult pass;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  for (size_t first = 0; first + spec.restart_every <= inputs.ks.size() &&
                         SecondsSince(start) < seconds;
       first += spec.restart_every) {
    server.Shutdown(/*finish_queued=*/true);
    server.access_cache()->Clear();
    NC_CHECK(server.Start().ok());
    const std::vector<size_t> epoch(
        inputs.ks.begin() + static_cast<std::ptrdiff_t>(first),
        inputs.ks.begin() +
            static_cast<std::ptrdiff_t>(first + spec.restart_every));
    PassResult part = RunClosedLoop(server, epoch, spec.workers,
                                    /*seconds=*/1e9, epoch.size(), checker);
    pass.records.insert(pass.records.end(), part.records.begin(),
                        part.records.end());
    if (pass.first_failure.empty()) pass.first_failure = part.first_failure;
  }
  pass.window_s = SecondsSince(start);
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  return pass;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const bool traced_run = args.trace == 1;
  // The traced run splits its time between an untraced reference pass
  // and the traced pass.
  const double pass_seconds = traced_run ? args.seconds / 2 : args.seconds;
  const std::unique_ptr<nc::ScoringFunction> scoring =
      nc::MakeScoringFunction(nc::ScoringKind::kAverage, spec->num_predicates);

  // The oracle and the corrupted-answer check, outside every timed
  // region. The determinism check, which holds three generations at
  // once, runs after the timed pass so that peak_rss_mb covers only
  // set-up and serving.
  std::vector<std::string> errors;
  const auto note = [&errors](const std::string& what, std::string why) {
    if (!why.empty()) errors.push_back(what + ": " + why);
  };
  std::vector<size_t> distinct = spec->k_values;
  distinct.insert(distinct.end(), spec->warmup_k.begin(), spec->warmup_k.end());
  const AnswerChecker checker(
      GenerateInputs(*spec, args.seed, pass_seconds).data, *scoring, distinct);
  const size_t largest_k = *std::max_element(distinct.begin(), distinct.end());
  note("corrupted-answer check", CorruptedAnswersAreCaught(checker, largest_k));

  std::string warmup_failure;
  const auto deploy = [&](bool profiler) {
    return SetUp(*spec, args.seed, pass_seconds, profiler, *scoring, checker,
                 &warmup_failure);
  };

  std::vector<Metric> metrics;
  PassResult reported;
  if (!traced_run) {
    std::vector<double> setup_times;
    Deployment d;
    for (int r = 0; r < kSetupRepeats; ++r) {
      // Drops the previous repetition (server first, as it points into
      // the inputs), so that no two set-ups are alive at once.
      d.server.reset();
      d.inputs.reset();
      const Clock::time_point start = Clock::now();
      d = deploy(/*profiler=*/false);
      setup_times.push_back(SecondsSince(start));
    }
    reported = RunPass(*d.server, *spec, *d.inputs, pass_seconds, checker);
    d.server->Shutdown(/*finish_queued=*/true);
    metrics = EndToEnd(reported, nc::Percentile(setup_times, 0.5));
  } else {
    Deployment plain = deploy(/*profiler=*/false);
    const Tally untraced =
        Summarize(RunPass(*plain.server, *spec, *plain.inputs, pass_seconds,
                          checker));
    plain.server.reset();

    Deployment d = deploy(/*profiler=*/true);
    const LayerCounters before = ReadCounters(*d.server);
    StallSampler stall(spec->stall_us);
    reported = RunPass(*d.server, *spec, *d.inputs, pass_seconds, checker);
    const double stall_ms = stall.StopAndMeanMs();
    const LayerCounters after = ReadCounters(*d.server);
    d.server->Shutdown(/*finish_queued=*/true);
    const double offered =
        static_cast<double>(reported.records.size()) / reported.window_s;
    std::string residual_error;
    metrics = PerLayer(*spec, reported, before, after, d.server->stats(),
                       PerQuery(untraced.service_total_us, untraced), stall_ms,
                       offered, &residual_error);
    note("layer split", residual_error);
    if (untraced.correct != untraced.attempted) {
      note("untraced pass", "wrong or missing answers");
    }
  }

  note("determinism", CheckDeterminism(*spec, args.seed, pass_seconds));
  note("warm-up", warmup_failure);
  note("pass", reported.first_failure);
  const Tally t = Summarize(reported);
  if (spec->arrival_qps > 0.0) {
    const double late_p99 = Ms(t.late_us, 0.99);
    if (late_p99 > kLateSlackMs) {
      note("open loop", "generator p99 lateness " + Number(late_p99) +
                            " ms exceeds " + Number(kLateSlackMs) + " ms");
    }
  }
  std::fprintf(stderr, "%s seed=%llu trace=%d: %zu requests, %.2f s window\n",
               spec->name, static_cast<unsigned long long>(args.seed),
               args.trace, t.attempted, reported.window_s);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "FAIL %s\n", e.c_str());
  }
  const size_t failed = t.attempted - t.correct;
  PrintResult(errors.empty() && failed == 0 && t.attempted > 0, t.attempted,
              failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
