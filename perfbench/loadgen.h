// Load generation against a running QueryServer, from one process.
//
// Closed loop: each client submits its next request only after its own
// previous answer arrived, and each client waits only on its own reply
// (collecting replies in submission order would leave workers idle
// behind slow requests and misreport queue wait).
//
// Open loop: requests are submitted on a precomputed schedule whatever
// the server's state, each timed from its due instant, and each
// completion is recorded as it happens by a pool of waiters large
// enough that no reply waits behind another.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "checker.h"
#include "server/server.h"

namespace perfbench {

struct RequestRecord {
  size_t k = 0;
  // False when Submit refused the request; no timing fields are set.
  bool answered = false;
  // Served, completed, exact and equal to the oracle.
  bool correct = false;
  // Due instant (open loop) or submit instant (closed loop) to answer.
  double latency_us = 0.0;
  // QueryResponse::wall_micros: the worker's service time.
  double service_us = 0.0;
  // Open loop: how late the generator submitted it.
  double late_us = 0.0;
  double cost = 0.0;
  double accesses = 0.0;
};

struct PassResult {
  // One per attempted request.
  std::vector<RequestRecord> records;
  // First request sent to last answer received.
  double window_s = 0.0;
  // Process CPU time (user + system) over the window.
  double cpu_s = 0.0;
  // The first wrong answer or refusal, for the log.
  std::string first_failure;
};

// Runs `clients` callers drawing k from `ks` in order, until `seconds`
// have passed or `max_requests` were sent.
PassResult RunClosedLoop(nc::server::QueryServer& server,
                         const std::vector<size_t>& ks, size_t clients,
                         double seconds, size_t max_requests,
                         const AnswerChecker& checker);

// Submits request i with k = ks[i] at due_s[i] seconds after the start.
// `waiters` must be at least the server's queue capacity plus workers,
// the most requests that can be outstanding at once.
PassResult RunOpenLoop(nc::server::QueryServer& server,
                       const std::vector<size_t>& ks,
                       const std::vector<double>& due_s, size_t waiters,
                       const AnswerChecker& checker);

// Process CPU seconds so far.
double ProcessCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
