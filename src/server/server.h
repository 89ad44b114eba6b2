// A concurrent top-k query server: many queries, one fleet.
//
// Everything below the engine was built for one query at a time: the
// SourceSet's cursors, the replica fleet's breakers and routing EWMAs,
// and the fault/jitter RNG streams are all mutable per-run state.
// QueryServer turns that single-query stack into a multi-query service
// without adding a single lock to the access hot path, by *confinement*
// rather than synchronization:
//
//   * Each worker thread builds its own private stack (SourceSet +
//     ReplicaFleet + FaultInjector + RNG streams) through the
//     WorkerStackFactory, on the worker's own thread, and never shares
//     it. The access path stays exactly as fast as the single-query
//     library.
//   * The ONE shared object is the server-wide TelemetryHub, which is
//     internally synchronized (obs/telemetry.h): cross-query latency
//     sketches, cost EWMAs, and fleet health (deaths, breakers, routing
//     EWMAs) flow between workers through the hub's capture/warm cycle,
//     so worker 3 routes around the replica worker 1 found dead.
//   * Plans are shared the same way, through one PlanCache per server
//     run: a lookup copies the plan out under a mutex, once per query,
//     never per access.
//   * Per-query isolation is the QueryBudget: each request carries its
//     own caps, applied to the worker's sources for exactly that query.
//
// Lifecycle: Start() spawns the workers; Submit() enqueues a request
// into a bounded admission queue (kResourceExhausted when full - the
// backpressure signal) and returns a future; Shutdown(bool) stops the
// server. Shutdown(true) finishes every accepted query normally.
// Shutdown(false) is the graceful fast drain: queries already executing
// are intercepted at their next access - the engine state is
// checkpointed (core/checkpoint.h) into the response and the budget is
// clamped so the engine emits a *certified anytime answer* - and queries
// still queued are flushed with kUnavailable. Nothing is abandoned
// without either an answer or a resumable checkpoint.
//
// Determinism: a fault-free query's answer depends only on (k, budget,
// stack configuration), never on which worker served it or what ran
// concurrently - the differential test in tests/server_test.cc asserts
// concurrent answers are bit-identical to a serial run's.
//
// See docs/SERVER.md for the full threading model.

#ifndef NC_SERVER_SERVER_H_
#define NC_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "access/budget.h"
#include "access/source.h"
#include "cache/cache.h"
#include "common/status.h"
#include "core/planner.h"
#include "core/result.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "obs/watchdog.h"
#include "scoring/scoring_function.h"
#include "server/stats_server.h"

namespace nc::server {

// One worker's thread-confined source stack: the SourceSet plus whatever
// backs it (dataset, replica fleet, fault injector - and thus every
// latency/retry/fault RNG stream). Subclass to own the backing objects;
// the server only ever calls sources(), from the owning worker's thread.
// Constructed and destroyed on that thread.
class WorkerStack {
 public:
  virtual ~WorkerStack() = default;

  // The worker's private access gateway. Must stay valid (and keep
  // pointing at the same object) for the stack's lifetime.
  virtual SourceSet& sources() = 0;
};

// Builds worker `index`'s stack. Invoked on that worker's own thread, so
// even construction is confined. Must return non-null, and every
// worker's stack must be configured identically (same dataset, scenario,
// policies, seeds): the server treats workers as interchangeable, and
// the drain checkpoint's resume contract assumes any equally-configured
// stack can finish the query.
using WorkerStackFactory =
    std::function<std::unique_ptr<WorkerStack>(size_t index)>;

struct ServerConfig {
  // Worker threads, each serving one query at a time. >= 1.
  size_t num_workers = 1;

  // Admission-queue capacity: queries waiting for a worker. Submit
  // refuses with kResourceExhausted when the backlog is full. >= 1.
  size_t queue_capacity = 64;

  // Planner options for every worker's QuerySession. The workers share
  // one PlanCache per server run (core/session.h): a plan made by one
  // worker serves every worker's queries with the same planner key.
  // Start() creates it empty and Shutdown() drops it.
  PlannerOptions planner;

  // Simulated network stall per performed access, in wall-clock
  // microseconds. A real web source spends its latency off-CPU while the
  // simulation substrate spends none, so on a small machine a CPU-bound
  // run would show no concurrency win; the stall restores the off-CPU
  // waiting so throughput scales with workers the way it does against
  // real sources. 0 (the default) disables it. Answers are identical
  // either way - the stall never touches the cost clock.
  size_t simulated_access_stall_us = 0;

  // --- Observability plane ---------------------------------------------

  // Live introspection endpoint (server/stats_server.h): /metrics
  // (Prometheus text), /healthz, /readyz, /varz (JSON). -1 (the default)
  // disables it; 0 binds an ephemeral loopback port (read it back with
  // stats_port()); anything else binds that port.
  int stats_port = -1;

  // Persistent warm-start telemetry. When set, Start() loads a
  // TelemetryHub snapshot ("nchub 1", obs/telemetry.h) from this path if
  // the file exists - so the restarted server routes, hedges, and
  // breaker-guards from everything the previous process learned, from
  // its very first access - and Shutdown() (both drain modes) writes the
  // hub back. A missing file is a cold start, not an error; a corrupt
  // one fails Start() loudly.
  std::string hub_snapshot_path;

  // Hierarchical per-query profiling (obs/profiler.h): each worker owns
  // a confined Profiler attached to its session; every served query's
  // per-cost-center breakdown feeds nc_profile_* metrics, the hub's
  // cross-query sketches, and the /profilez endpoint (which also
  // reports queue wait as the kServerQueue external center and drain
  // interceptions as kServerDrain / kCheckpointSerialize). Off by
  // default: the access path then pays one ShouldProfile branch per
  // scope and answers stay bit-identical either way.
  bool enable_profiler = false;

  // Request-scoped tracing: with a sink attached, every worker streams
  // its trace events - each stamped with the request's TraceContext
  // (trace/request/worker ids) plus explicit queue-wait and serve spans
  // - as JSONL lines through this synchronized sink. The sink must
  // outlive the server. nullptr disables tracing.
  obs::JsonlSink* trace_sink = nullptr;

  // Anomaly watchdog: with watchdog = true AND a baseline loaded from
  // hub_snapshot_path, a background thread periodically diffs the live
  // hub against the loaded baseline (obs/watchdog.h) and surfaces
  // regressions as nc_anomaly_* metrics, tracer events, and /varz rows.
  bool watchdog = false;
  obs::WatchdogOptions watchdog_options;

  // Cross-query access cache (cache/cache.h): ONE internally-synchronized
  // AccessCache shared by every worker's SourceSet, so worker 3 reuses
  // the sorted prefix and random scores worker 1 already paid for.
  // Billing stays honest: the source is billed once (by the worker that
  // performed the access); cache-served accesses charge cache.hit_cost
  // (default 0) to the served query. Disabled by default - the confined
  // stack then runs with no shared state on the access path at all.
  bool enable_cache = false;
  cache::CacheConfig cache;

  Status Validate() const;
};

// How the server disposed of one submitted query.
enum class ServeOutcome {
  // Ran to its natural end: exact, theta-approximate, degraded, or
  // budget-certified per its own request budget.
  kCompleted,
  // Intercepted by a fast drain: the response carries a certified
  // anytime answer and a resumable checkpoint. (When the query finished
  // naturally in the same breath as the interception, the answer may
  // even be exact; the checkpoint is present regardless.)
  kDrained,
  // Never executed: request validation failed at the worker, or the
  // query was still queued when the server shut down.
  kRejected,
  // Executed but the engine returned a non-OK status.
  kError,
};

// "completed", "drained", ... for logs and bench output.
const char* ServeOutcomeName(ServeOutcome outcome);

struct QueryRequest {
  size_t k = 1;

  // The per-query isolation primitive: caps on what this query may spend
  // (cost, deadline, per-predicate quotas - access/budget.h), enforced on
  // the serving worker's sources for exactly this query. Exhaustion
  // yields a certified anytime answer, not an error. Default: unlimited.
  QueryBudget budget;
};

struct QueryResponse {
  // The engine's status for executed queries; the refusal for rejected
  // ones.
  Status status;
  TopKResult result;
  ServeOutcome outcome = ServeOutcome::kRejected;
  // QuerySession's finer-grained disposition (kNone when never executed).
  QueryOutcome query_outcome = QueryOutcome::kNone;
  // Eq. 1 cost this query accrued on its worker's sources.
  double accrued_cost = 0.0;
  // Accesses the engine performed.
  size_t accesses = 0;
  // Index of the worker that served it.
  size_t worker = 0;
  // Wall-clock service time (queue wait excluded), microseconds.
  double wall_micros = 0.0;
  // kDrained only: the serialized engine checkpoint ("ncckpt" text,
  // core/checkpoint.h) captured at the interception point, under the
  // query's ORIGINAL budget. ParseCheckpoint + NCEngine::Resume on an
  // identically configured stack finishes the query bit-identically to
  // an uninterrupted run.
  std::string drain_checkpoint;
};

// Monotonic counters over the server's lifetime. submitted = completed +
// drained + errors + flushed + still-in-flight; rejected counts Submit
// refusals (never enqueued) plus worker-side validation failures.
struct ServerStats {
  size_t submitted = 0;
  size_t rejected = 0;
  size_t completed = 0;
  size_t drained = 0;
  size_t errors = 0;
  size_t flushed = 0;
  size_t peak_queue_depth = 0;
};

class QueryServer {
 public:
  // `scoring` must outlive the server. The factory is retained and
  // invoked once per worker from Start().
  QueryServer(const ScoringFunction* scoring, ServerConfig config,
              WorkerStackFactory factory);

  // A still-running server fast-drains (Shutdown(false)) on destruction.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Validates the config and spawns the workers. FailedPrecondition when
  // already running. A shut-down server may be Start()ed again.
  Status Start();

  // Enqueues a query. On OK, *response is fulfilled exactly once - with
  // an answer, a certified drain, or a flush rejection - never leaked.
  // kResourceExhausted when the queue is full (backpressure; retry
  // later), kUnavailable when the server is not accepting,
  // InvalidArgument for a malformed request (k == 0).
  Status Submit(QueryRequest request, std::future<QueryResponse>* response);

  // Stops accepting, stops the workers, joins them. finish_queued=true
  // serves every already-accepted query to its natural end first.
  // finish_queued=false is the graceful fast drain: in-flight queries
  // are checkpointed + budget-clamped into certified anytime answers at
  // their next access; queued queries are flushed with kUnavailable.
  // Idempotent; safe to call concurrently with Submit.
  void Shutdown(bool finish_queued);

  bool running() const;

  // The server-wide telemetry hub (internally synchronized). Shared by
  // every worker's session; readable at any time, including mid-load.
  obs::TelemetryHub& hub() { return hub_; }
  const obs::TelemetryHub& hub() const { return hub_; }

  // The server-wide metrics registry (internally synchronized): per-query
  // outcome counters, queue-wait/service histograms, per-predicate access
  // and cost-audit series, and the watchdog's nc_anomaly_* counters.
  // /metrics exposes it; it accumulates across Start/Shutdown cycles.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Port of the live introspection endpoint; 0 when disabled or not
  // running. With config.stats_port == 0 this is the ephemeral port the
  // OS picked.
  uint16_t stats_port() const;

  // The /varz document: a JSON snapshot of queue depth, per-worker
  // utilization, server stats, hub quantiles/cost/fleet health, the
  // latest cost audit, build provenance, tracer sink health, and
  // watchdog findings. Callable any time.
  std::string VarzJson() const;

  // The /profilez document: whether profiling is on, the most recent
  // query's full ProfileReport, and the hub's cross-query per-center
  // self-time quantiles. Callable any time.
  std::string ProfilezJson() const;

  // The anomaly watchdog; nullptr unless config.watchdog was set and a
  // baseline snapshot was loaded at Start.
  obs::AnomalyWatchdog* watchdog() { return watchdog_.get(); }

  // The shared cross-query access cache; nullptr unless
  // config.enable_cache. Created at the first Start() and kept across
  // Start/Shutdown cycles so a restarted server keeps its warm streams.
  cache::AccessCache* access_cache() { return cache_.get(); }
  const cache::AccessCache* access_cache() const { return cache_.get(); }

  // True when Start() warm-loaded a hub snapshot from
  // config.hub_snapshot_path.
  bool warm_started() const;

  ServerStats stats() const;

  size_t num_workers() const { return config_.num_workers; }

 private:
  struct Pending {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    // Trace identity minted at admission.
    uint64_t request_id = 0;
    uint64_t trace_id = 0;
    // Admission instant on the server's shared monotonic epoch, for the
    // queue-wait span.
    uint64_t admit_us = 0;
  };

  // Per-worker utilization meter, read lock-free by /varz.
  struct WorkerMeter {
    std::atomic<uint64_t> busy_us{0};
    std::atomic<uint64_t> queries{0};
  };

  void WorkerMain(size_t index);

  // Serves one accepted query on this worker's session + sources,
  // fulfilling its promise exactly once. `tracer` is the worker's
  // confined tracer (context installed per request); `profiler` the
  // worker's confined profiler, nullptr when profiling is off.
  void Serve(size_t index, QuerySession& session, SourceSet& sources,
             obs::QueryTracer& tracer, obs::Profiler* profiler,
             Pending pending);

  // Folds the trace sink's cumulative drop count into the
  // nc_tracer_dropped_lines counter (monotonic delta sync).
  void SyncTracerDropMetric();

  // Microseconds since the server's shared monotonic epoch.
  uint64_t EpochNowUs() const;

  static QueryResponse Rejected(Status status);

  const ScoringFunction* scoring_;
  ServerConfig config_;
  WorkerStackFactory factory_;
  // Declared before any worker can exist; outlives them all.
  obs::TelemetryHub hub_;
  // The loaded "nchub 1" snapshot, kept verbatim as the watchdog's
  // baseline (hub_ itself keeps learning and would drift).
  obs::TelemetryHub baseline_hub_;
  obs::MetricsRegistry metrics_;
  StatsServer stats_server_;
  // Assigned under mu_ by Start (replacing any stopped predecessor) so
  // /varz can read the pointer under mu_ concurrently.
  std::unique_ptr<obs::AnomalyWatchdog> watchdog_;
  // The shared cross-query cache (internally synchronized). Created once
  // at the first Start() - before the stats endpoint comes up, so /varz
  // never races the assignment - and never replaced thereafter.
  std::unique_ptr<cache::AccessCache> cache_;
  // The workers' shared plan cache for one server run: created by Start
  // before any worker exists, dropped by Shutdown after all are joined.
  std::unique_ptr<PlanCache> plan_cache_;
  bool warm_started_ = false;  // Guarded by mu_.

  // Shared monotonic anchor handed to every worker's tracer, so wall_us
  // from different workers is directly comparable. Set at Start.
  std::atomic<uint64_t> epoch_ns_{0};
  // Mixes into minted trace ids so two server runs do not collide.
  uint64_t trace_nonce_ = 0;  // Guarded by mu_.
  std::atomic<uint64_t> next_request_id_{0};
  // One meter per worker; rebuilt by Start (workers hold raw pointers).
  std::vector<std::unique_ptr<WorkerMeter>> meters_;

  // The most recent query's cost audit, mirrored for /varz.
  mutable std::mutex audit_mu_;
  obs::CostAudit last_audit_;
  uint64_t last_audit_request_ = 0;

  // The most recent query's profile, mirrored for /profilez.
  mutable std::mutex profile_mu_;
  obs::ProfileReport last_profile_;
  uint64_t last_profile_request_ = 0;

  // Last sink drop count already folded into nc_tracer_dropped_lines.
  std::atomic<uint64_t> tracer_drops_synced_{0};

  // Wall-clock instant of the last successful Start, for /healthz and
  // /varz build sections.
  std::atomic<uint64_t> start_unix_us_{0};

  // Serializes Start/Shutdown against each other (worker threads joined
  // outside mu_ so workers can finish queries that need it).
  std::mutex lifecycle_mu_;
  std::vector<std::thread> workers_;  // Guarded by lifecycle_mu_.

  mutable std::mutex mu_;  // Guards the queue and the flags below.
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool running_ = false;    // Start succeeded, Shutdown not yet finished.
  bool accepting_ = false;  // Submit admits new queries.
  bool stopping_ = false;   // Workers should exit when out of work;
                            // held until Shutdown returns.
  bool finish_queued_ = true;
  size_t peak_queue_depth_ = 0;

  // Read by workers' per-access hooks without mu_ - the drain signal
  // must reach a worker that is mid-query (and thus not looking at the
  // queue) cheaply.
  std::atomic<bool> draining_{false};

  std::atomic<size_t> submitted_{0};
  std::atomic<size_t> rejected_{0};
  std::atomic<size_t> completed_{0};
  std::atomic<size_t> drained_{0};
  std::atomic<size_t> errors_{0};
  std::atomic<size_t> flushed_{0};
};

}  // namespace nc::server

#endif  // NC_SERVER_SERVER_H_
