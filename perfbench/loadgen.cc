#include "loadgen.h"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using nc::server::QueryRequest;
using nc::server::QueryResponse;
using nc::server::QueryServer;

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// Fills the answer fields of `record` from a served response.
void Grade(const AnswerChecker& checker, const QueryResponse& response,
           RequestRecord* record, std::string* failure) {
  record->answered = true;
  record->service_us = response.wall_micros;
  record->cost = response.accrued_cost;
  record->accesses = static_cast<double>(response.accesses);
  std::string why = checker.Check(record->k, response);
  record->correct = why.empty();
  if (!record->correct && failure->empty()) *failure = std::move(why);
}

}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

PassResult RunClosedLoop(QueryServer& server, const std::vector<size_t>& ks,
                         size_t clients, double seconds, size_t max_requests,
                         const AnswerChecker& checker) {
  std::atomic<size_t> next{0};
  std::vector<std::vector<RequestRecord>> per_client(clients);
  std::vector<std::string> failures(clients);
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= max_requests || Clock::now() >= deadline) return;
        RequestRecord record;
        record.k = ks[i % ks.size()];
        QueryRequest request;
        request.k = record.k;
        std::future<QueryResponse> reply;
        const Clock::time_point sent = Clock::now();
        const nc::Status admitted = server.Submit(request, &reply);
        if (!admitted.ok()) {
          if (failures[c].empty()) failures[c] = admitted.ToString();
        } else {
          const QueryResponse response = reply.get();
          record.latency_us = MicrosBetween(sent, Clock::now());
          Grade(checker, response, &record, &failures[c]);
        }
        per_client[c].push_back(std::move(record));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PassResult pass;
  pass.window_s = MicrosBetween(start, Clock::now()) / 1e6;
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  for (size_t c = 0; c < clients; ++c) {
    pass.records.insert(pass.records.end(), per_client[c].begin(),
                        per_client[c].end());
    if (pass.first_failure.empty()) pass.first_failure = failures[c];
  }
  return pass;
}

PassResult RunOpenLoop(QueryServer& server, const std::vector<size_t>& ks,
                       const std::vector<double>& due_s, size_t waiters,
                       const AnswerChecker& checker) {
  struct Outstanding {
    size_t index = 0;
    Clock::time_point due;
    std::future<QueryResponse> reply;
  };
  PassResult pass;
  pass.records.resize(due_s.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Outstanding> jobs;  // Guarded by mu.
  bool done = false;             // Guarded by mu.
  std::vector<std::string> failures(waiters);

  std::vector<std::thread> pool;
  for (size_t w = 0; w < waiters; ++w) {
    pool.emplace_back([&, w] {
      for (;;) {
        Outstanding job;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !jobs.empty(); });
          if (jobs.empty()) return;
          job = std::move(jobs.front());
          jobs.pop_front();
        }
        const QueryResponse response = job.reply.get();
        RequestRecord& record = pass.records[job.index];
        record.latency_us = MicrosBetween(job.due, Clock::now());
        Grade(checker, response, &record, &failures[w]);
      }
    });
  }

  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  std::string refusal;
  for (size_t i = 0; i < due_s.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(due);
    RequestRecord& record = pass.records[i];
    record.k = ks[i];
    QueryRequest request;
    request.k = record.k;
    Outstanding job;
    job.index = i;
    job.due = due;
    const Clock::time_point sent = Clock::now();
    record.late_us = MicrosBetween(due, sent);
    const nc::Status admitted = server.Submit(request, &job.reply);
    if (!admitted.ok()) {
      if (refusal.empty()) refusal = admitted.ToString();
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      jobs.push_back(std::move(job));
    }
    cv.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (std::thread& t : pool) t.join();

  pass.window_s = MicrosBetween(start, Clock::now()) / 1e6;
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  pass.first_failure = refusal;
  for (const std::string& f : failures) {
    if (pass.first_failure.empty()) pass.first_failure = f;
  }
  return pass;
}

}  // namespace perfbench
