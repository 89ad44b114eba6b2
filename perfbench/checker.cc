#include "checker.h"

#include <cmath>
#include <functional>
#include <utility>

#include "core/reference.h"

namespace perfbench {

using nc::server::QueryResponse;

AnswerChecker::AnswerChecker(const nc::Dataset& data,
                             const nc::ScoringFunction& scoring,
                             const std::vector<size_t>& ks) {
  for (size_t k : ks) {
    if (oracle_.count(k) == 0) {
      oracle_[k] = nc::BruteForceTopK(data, scoring, k);
    }
  }
}

std::string AnswerChecker::Check(size_t k,
                                 const QueryResponse& response) const {
  if (!response.status.ok()) return "status " + response.status.ToString();
  if (response.outcome != nc::server::ServeOutcome::kCompleted) {
    return std::string("outcome ") +
           nc::server::ServeOutcomeName(response.outcome);
  }
  if (response.query_outcome != nc::QueryOutcome::kExact) {
    return std::string("query outcome ") +
           nc::QueryOutcomeName(response.query_outcome);
  }
  const auto it = oracle_.find(k);
  if (it == oracle_.end()) return "no oracle for k=" + std::to_string(k);
  const std::vector<nc::TopKEntry>& want = it->second.entries;
  const std::vector<nc::TopKEntry>& got = response.result.entries;
  if (got.size() != want.size()) {
    return "k=" + std::to_string(k) + ": " + std::to_string(got.size()) +
           " entries, oracle has " + std::to_string(want.size());
  }
  for (size_t r = 0; r < want.size(); ++r) {
    if (!(got[r] == want[r])) {
      return "k=" + std::to_string(k) + " rank " + std::to_string(r) +
             ": served " + response.result.ToString() + ", oracle " +
             it->second.ToString();
    }
  }
  return "";
}

QueryResponse AnswerChecker::Expected(size_t k) const {
  QueryResponse response;
  response.status = nc::Status::OK();
  response.outcome = nc::server::ServeOutcome::kCompleted;
  response.query_outcome = nc::QueryOutcome::kExact;
  response.result = oracle_.at(k);
  return response;
}

std::string CorruptedAnswersAreCaught(const AnswerChecker& checker, size_t k) {
  const QueryResponse good = checker.Expected(k);
  if (std::string why = checker.Check(k, good); !why.empty()) {
    return "the oracle's own answer was refused: " + why;
  }
  if (good.result.entries.size() < 2) return "k must give two entries";
  using Corruption =
      std::pair<const char*, std::function<void(QueryResponse*)>>;
  const std::vector<Corruption> corruptions = {
      {"swapped object id",
       [](QueryResponse* r) { r->result.entries.back().object ^= 1; }},
      {"score off by one ulp",
       [](QueryResponse* r) {
         nc::Score& s = r->result.entries.front().score;
         s = std::nextafter(s, 0.0);
       }},
      {"dropped entry", [](QueryResponse* r) { r->result.entries.pop_back(); }},
      {"entries out of rank order",
       [](QueryResponse* r) {
         std::swap(r->result.entries[0], r->result.entries[1]);
       }},
      {"approximate outcome",
       [](QueryResponse* r) {
         r->query_outcome = nc::QueryOutcome::kApproximate;
       }},
  };
  for (const auto& [name, corrupt] : corruptions) {
    QueryResponse bad = good;
    corrupt(&bad);
    if (checker.Check(k, bad).empty()) {
      return std::string("a corrupted answer passed: ") + name;
    }
  }
  return "";
}

}  // namespace perfbench
