#include "workload.h"

#include <cmath>

#include "common/rng.h"

namespace perfbench {
namespace {

std::vector<size_t> Range(size_t lo, size_t hi) {
  std::vector<size_t> out;
  for (size_t k = lo; k <= hi; ++k) out.push_back(k);
  return out;
}

// Sizes were chosen on a 4-vCPU x86 VM; perfbench/WORKLOADS.md gives the
// reasons.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> s(3);

    // Remote sources dominate: open loop at under a quarter of the
    // 16-worker capacity (~92 ms service, so ~170/s), every access stalls
    // off-CPU, replicas fault and straggle. Workers are mostly asleep, so
    // sixteen cost well under one core. Every stall pays the host's
    // wake-up latency on top of its nominal length, and that latency
    // grows when the host is busy: fewer, longer stalls (250 us rather
    // than 50 us) and a queue kept far below its knee, where a slower
    // host lengthens queue wait by little, stop that from swinging the
    // latency figures from run to run. The cache stays off: the stall
    // hook also fires on cache hits, so a cache would hide nothing here.
    s[0].name = "web-stall";
    s[0].grid_side = 32;  // 1024 objects.
    s[0].num_predicates = 2;
    s[0].sorted_cost = 1.0;
    s[0].random_cost = 2.0;
    s[0].k_values = Range(5, 15);
    s[0].arrival_qps = 40.0;
    s[0].workers = 16;
    s[0].stall_us = 250;
    s[0].replicas = true;
    s[0].warmup_k = Range(5, 15);
    s[0].warmup_requests = 88;

    // CPU-bound serving with warm plans: the candidate heap dominates.
    // Two busy workers on a 4-vCPU host leave room for the load
    // generator and for time the hypervisor steals.
    s[1].name = "cpu-hot";
    s[1].grid_side = 224;  // 50176 objects.
    s[1].num_predicates = 2;
    s[1].sorted_cost = 1.0;
    s[1].random_cost = 2.0;
    s[1].k_values = {10, 20, 50};
    s[1].workers = 2;
    s[1].warmup_k = {10, 20, 50};
    s[1].warmup_requests = 18;

    // Many query shapes over cheap random access (the paper's Example 2
    // regime): per-worker plan caches miss, the shared access cache fills
    // once per epoch and then mostly hits.
    s[2].name = "plan-churn";
    s[2].grid_side = 13;  // 2197 objects.
    s[2].num_predicates = 3;
    s[2].sorted_cost = 10.0;
    s[2].random_cost = 1.0;
    s[2].k_values = Range(1, 120);
    // One pass over the 120 shapes per epoch: every request is planned,
    // and the access cache is refilled from empty.
    s[2].restart_every = 120;
    s[2].workers = 3;
    s[2].cache = true;
    s[2].warmup_k = {120};
    s[2].warmup_requests = 6;
    return s;
  }();
  return specs;
}

// Independent streams per input kind, so that adding draws to one never
// shifts another.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void AppendBytes(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.emplace_back(spec.name);
  return names;
}

WorkloadInputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                              double seconds) {
  WorkloadInputs inputs;
  size_t n = 1;
  for (size_t i = 0; i < spec.num_predicates; ++i) n *= spec.grid_side;
  inputs.data = nc::Dataset(n, spec.num_predicates);
  nc::Rng jitter(StreamSeed(seed, 0));
  for (nc::ObjectId u = 0; u < n; ++u) {
    size_t cell = u;
    for (nc::PredicateId i = 0; i < spec.num_predicates; ++i) {
      const double lo = static_cast<double>(cell % spec.grid_side);
      cell /= spec.grid_side;
      inputs.data.SetScore(u, i, (lo + jitter.Uniform01()) /
                                     static_cast<double>(spec.grid_side));
    }
  }

  if (spec.arrival_qps > 0.0) {
    nc::Rng arrivals(StreamSeed(seed, 1));
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - arrivals.Uniform01()) / spec.arrival_qps;
      if (t >= seconds) break;
      inputs.due_s.push_back(t);
    }
  }
  // A closed loop cannot outrun this many requests in one run.
  const size_t length = spec.arrival_qps > 0.0 ? inputs.due_s.size() : 1 << 16;
  nc::Rng order(StreamSeed(seed, 2));
  std::vector<size_t> block = spec.k_values;
  while (inputs.ks.size() < length) {
    order.Shuffle(&block);
    for (size_t k : block) {
      if (inputs.ks.size() == length) break;
      inputs.ks.push_back(k);
    }
  }
  return inputs;
}

std::string SerializeInputs(const WorkloadInputs& inputs) {
  std::string out;
  const nc::Dataset& data = inputs.data;
  for (nc::PredicateId i = 0; i < data.num_predicates(); ++i) {
    for (nc::ObjectId u = 0; u < data.num_objects(); ++u) {
      const nc::Score s = data.score(u, i);
      AppendBytes(&out, &s, sizeof(s));
    }
  }
  AppendBytes(&out, inputs.ks.data(), inputs.ks.size() * sizeof(size_t));
  AppendBytes(&out, inputs.due_s.data(), inputs.due_s.size() * sizeof(double));
  return out;
}

}  // namespace perfbench
