// Every served answer is compared against the brute-force oracle.

#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <map>
#include <string>
#include <vector>

#include "core/result.h"
#include "data/dataset.h"
#include "scoring/scoring_function.h"
#include "server/server.h"

namespace perfbench {

class AnswerChecker {
 public:
  // Computes BruteForceTopK once per distinct k.
  AnswerChecker(const nc::Dataset& data, const nc::ScoringFunction& scoring,
                const std::vector<size_t>& ks);

  // Empty when `response` is a completed, exact answer whose entries
  // (object ids and scores, in rank order) equal the oracle's; otherwise
  // why it is not.
  std::string Check(size_t k, const nc::server::QueryResponse& response) const;

  // The oracle's response for k, shaped as a served one.
  nc::server::QueryResponse Expected(size_t k) const;

 private:
  std::map<size_t, nc::TopKResult> oracle_;
};

// Feeds the checker the oracle's own answer, which must pass, and
// corrupted copies of it (a swapped object id, a score off by one ulp, a
// dropped entry, two entries out of rank order, a non-exact outcome),
// each of which must be refused. Empty on success, else what slipped
// through.
std::string CorruptedAnswersAreCaught(const AnswerChecker& checker, size_t k);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
