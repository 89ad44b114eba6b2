// The benchmark's three traffic mixes and their seeded inputs.
//
// A workload fixes the shape of one server deployment (dataset size,
// Eq. 1 cost regime, worker count, stall, replica fleet, access cache)
// and the shape of its traffic (open or closed loop, the k mix). The
// seed fixes everything random: the score table, the order of the k
// stream and the open-loop arrival schedule. The server only ever sees
// the generated dataset and the k of each request.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name = "";
  // The dataset is grid_side^num_predicates objects: one per cell of a
  // regular grid over the unit score cube, placed uniformly at random
  // inside its cell (a jittered grid). Every predicate is uniform and
  // the predicates are independent, as with plain uniform draws, but the
  // number of objects in any corner of the cube - the region a top-k
  // query reads - is fixed up to the cells its boundary cuts. Plain
  // draws leave that count Poisson, so the depth a query must read, and
  // with it every cost and time per query, would swing by 10-25% from
  // seed to seed.
  size_t grid_side = 0;
  size_t num_predicates = 0;
  double sorted_cost = 1.0;  // cs, every predicate.
  double random_cost = 1.0;  // cr, every predicate.
  // The k mix. The stream is seeded permutations of this list back to
  // back, so every prefix of |k_values| requests holds each value once
  // and the mix does not drift with the seed.
  std::vector<size_t> k_values;
  // Open loop: Poisson arrivals at this rate (requests per second).
  // 0 selects a closed loop with one caller per worker instead.
  double arrival_qps = 0.0;
  // Closed loop only: when nonzero, the requests run in epochs of this
  // many, each on a restarted server with an emptied access cache, so
  // that neither the per-worker plan caches nor the access cache warm
  // with run length (and thus with machine speed).
  size_t restart_every = 0;
  size_t workers = 1;
  size_t stall_us = 0;
  // Two-replica fleet per predicate with transient faults, stragglers,
  // fixed-delay hedging and least-latency routing.
  bool replicas = false;
  bool cache = false;
  // Warm-up requests (closed loop, `workers` callers) run during set-up,
  // drawn from `warmup_k`, cycled.
  std::vector<size_t> warmup_k;
  size_t warmup_requests = 0;
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Every workload name, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

struct WorkloadInputs {
  nc::Dataset data;
  // k of request i. Closed loops wrap around at the end.
  std::vector<size_t> ks;
  // Open loop only: request i is due this many seconds after the
  // window opens. Ascending.
  std::vector<double> due_s;
};

// Deterministic in (spec, seed, seconds).
WorkloadInputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                              double seconds);

// A byte image of every generated input, for the determinism self-test.
std::string SerializeInputs(const WorkloadInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
