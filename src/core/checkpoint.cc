#include "core/checkpoint.h"

#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "access/trace_format.h"
#include "common/check.h"
#include "common/record_text.h"

namespace nc {

namespace {

template <typename A, typename B>
void WritePairs(RecordWriter* w, const std::vector<std::pair<A, B>>& values) {
  w->UInt(values.size());
  for (const auto& [a, b] : values) w->UInt(a).UInt(b);
}

template <typename A, typename B>
void ReadPairs(RecordCursor* c, std::vector<std::pair<A, B>>* out) {
  const uint64_t n = c->Count(2);
  for (uint64_t i = 0; i < n; ++i) {
    const A a = c->UIntAs<A>();
    out->emplace_back(a, c->UIntAs<B>());
  }
}

// An RNG stream state (Rng::SerializeState): empty when the stream is
// absent, else std::mt19937_64's state words and its position index, in
// plain decimal. Read word by word, so a corrupt state is refused here,
// with its line, and not later by Resume.
std::string ReadRngState(RecordReader* r, std::string_view key) {
  constexpr size_t kStateWords = std::mt19937_64::state_size;
  RecordCursor& c = r->Field(key);
  std::string state;
  size_t words = 0;
  while (c.ok() && !c.Done() && words <= kStateWords) {
    const uint64_t word = c.UInt();
    // The last word is the position index, at most the state size.
    if (words == kStateWords && word > kStateWords) c.Fail();
    if (words > 0) state += ' ';
    state += std::to_string(word);
    ++words;
  }
  if (c.ok() && words != 0 && words != kStateWords + 1) {
    r->Reject("RNG state must have " + std::to_string(kStateWords + 1) +
              " words");
  }
  return state;
}

}  // namespace

std::string SerializeCheckpoint(const EngineCheckpoint& ck) {
  RecordWriter w("ncckpt", ck.version);
  w.Record("k").UInt(ck.k);
  w.Record("m").UInt(ck.num_predicates);
  w.Record("n").UInt(ck.num_objects);
  w.Record("accesses").UInt(ck.accesses);
  w.Record("phase_accesses").UInt(ck.phase_accesses);
  w.Record("consecutive_failures").UInt(ck.consecutive_failures);
  w.Record("choice_width_total").Double(ck.choice_width_total);
  w.Record("universe_seeded").Flag(ck.universe_seeded);
  w.Record("complete_topk").Flag(ck.has_complete_topk);
  w.UInt(ck.complete_topk.size());
  for (const TopKEntry& e : ck.complete_topk) w.UInt(e.object).Double(e.score);
  w.Record("pool").UInt(ck.pool.size());
  for (const CandidateCheckpoint& c : ck.pool) {
    w.Record("cand").UInt(c.object).UInt(c.mask);
    for (const Score s : c.scores) w.Double(s);
  }
  w.Record("heap").UInt(ck.heap.size());
  for (const LazyBoundHeap::Entry& e : ck.heap) {
    w.UInt(e.object).Double(e.bound);
  }
  w.Record("policy").Rest(ck.policy_state);

  const SourceCheckpoint& src = ck.sources;
  w.Record("src_positions").UInts(src.positions);
  w.Record("src_last_seen").Doubles(src.last_seen);
  w.Record("src_accrued_cost").Double(src.accrued_cost);
  w.Record("src_last_penalty").Double(src.last_access_penalty);
  w.Record("src_total_penalty").Double(src.total_penalty);
  WritePairs(&w.Record("src_probed"), src.probed);
  w.Record("src_sorted_cost").Doubles(src.sorted_cost);
  w.Record("src_random_cost").Doubles(src.random_cost);
  w.Record("src_source_down").Flags(src.source_down);
  w.Record("src_breaker_consecutive").UInts(src.breaker_consecutive);
  w.Record("src_breaker_open").Flags(src.breaker_open);
  w.Record("src_breaker_open_until").Doubles(src.breaker_open_until);
  w.Record("src_latency_rng").Rest(src.latency_rng_state);
  w.Record("src_retry_rng").Rest(src.retry_rng_state);
  w.Record("src_has_injector").Flag(src.has_injector);
  w.Record("src_injector_rng").Rest(src.injector_rng_state);
  WritePairs(&w.Record("src_injector_attempts"), src.injector_attempts);
  WritePairs(&w.Record("src_injector_scripts"), src.injector_script_pos);
  w.Record("src_trace_enabled").Flag(src.trace_enabled);
  w.Record("src_attempt_trace").Rest(SerializeAttemptTrace(src.attempt_trace));

  const AccessStats& stats = src.stats;
  w.Record("stats_sorted_count").UInts(stats.sorted_count);
  w.Record("stats_random_count").UInts(stats.random_count);
  w.Record("stats_sorted_cost").Doubles(stats.sorted_cost_accrued);
  w.Record("stats_random_cost").Doubles(stats.random_cost_accrued);
  w.Record("stats_duplicate_random").UInt(stats.duplicate_random_count);
  w.Record("stats_retried").UInts(stats.retried_attempts);
  w.Record("stats_transient").UInt(stats.transient_failures);
  w.Record("stats_timeout").UInt(stats.timeout_failures);
  w.Record("stats_abandoned").UInt(stats.abandoned_accesses);
  w.Record("stats_deaths").UInt(stats.source_deaths);
  w.Record("stats_breaker_trips").UInts(stats.breaker_trips);
  w.Record("stats_breaker_fast_failures").UInt(stats.breaker_fast_failures);
  w.Record("stats_budget_refusals").UInt(stats.budget_refusals);
  w.Record("stats_replica_failovers").UInt(stats.replica_failovers);
  w.Record("stats_hedges_issued").UInt(stats.hedges_issued);
  w.Record("stats_hedge_wins").UInt(stats.hedge_wins);

  // --- Replica fleet (version 2) ---------------------------------------
  const ReplicaFleetState& fleet = src.fleet_state;
  w.Record("src_has_fleet").Flag(src.has_fleet);
  w.Record("fleet_latency_rng").Rest(fleet.latency_rng_state);
  WritePairs(&w.Record("fleet_rr_cursors"), fleet.rr_cursors);
  w.Record("fleet_slots").UInt(fleet.slots.size());
  for (const ReplicaSlotState& slot : fleet.slots) {
    const ReplicaRuntime& rt = slot.runtime;
    w.Record("fleet_slot").UInt(slot.predicate).UInt(slot.replica);
    w.UInt(rt.breaker_consecutive).Flag(rt.breaker_open);
    w.Double(rt.breaker_open_until).Flag(rt.dead).Flag(rt.has_ewma);
    w.Double(rt.ewma_latency).UInt(rt.served).UInt(rt.failovers);
    w.UInt(rt.breaker_trips).UInt(rt.hedges_issued).UInt(rt.hedge_wins);
    w.Double(rt.cost_accrued).UInt(rt.latency_count).Double(rt.latency_sum);
    w.Double(rt.latency_min).Double(rt.latency_max);
    w.UInt(slot.injector_attempts).UInt(slot.injector_script_pos);
    w.Record("fleet_slot_rng").Rest(slot.injector_rng_state);
  }
  return w.Finish();
}

Status ParseCheckpoint(const std::string& text, EngineCheckpoint* out) {
  NC_CHECK(out != nullptr);
  RecordReader r("ncckpt", text);
  EngineCheckpoint ck;
  uint64_t version = 0;
  NC_RETURN_IF_ERROR(r.Header({kEngineCheckpointVersion}, &version));
  ck.version = static_cast<uint32_t>(version);
  ck.k = r.Field("k").UInt();
  ck.num_predicates = r.Field("m").UInt();
  if (ck.num_predicates == 0 || ck.num_predicates > 64) {
    r.Reject("predicate count out of range");
  }
  ck.num_objects = r.Field("n").UInt();
  ck.accesses = r.Field("accesses").UInt();
  ck.phase_accesses = r.Field("phase_accesses").UInt();
  ck.consecutive_failures = r.Field("consecutive_failures").UInt();
  ck.choice_width_total = r.Field("choice_width_total").Double();
  ck.universe_seeded = r.Field("universe_seeded").Flag();
  {
    RecordCursor& c = r.Field("complete_topk");
    ck.has_complete_topk = c.Flag();
    const uint64_t n = c.Count(2);
    for (uint64_t i = 0; i < n; ++i) {
      const ObjectId object = c.UIntAs<ObjectId>();
      ck.complete_topk.push_back(TopKEntry{object, c.Double()});
    }
  }
  ck.pool.resize(static_cast<size_t>(r.CountField("pool", 1)));
  for (CandidateCheckpoint& cand : ck.pool) {
    RecordCursor& c = r.Field("cand");
    cand.object = c.UIntAs<ObjectId>();
    cand.mask = c.UInt();
    if (ck.num_predicates < 64 && (cand.mask >> ck.num_predicates) != 0) {
      r.Reject("cand mask names unknown predicates");
    }
    const int bits = __builtin_popcountll(cand.mask);
    for (int b = 0; b < bits; ++b) cand.scores.push_back(c.Double());
  }
  {
    RecordCursor& c = r.Field("heap");
    const uint64_t n = c.Count(2);
    for (uint64_t i = 0; i < n; ++i) {
      const ObjectId object = c.UIntAs<ObjectId>();
      ck.heap.push_back(LazyBoundHeap::Entry{c.Double(), object});
    }
  }
  ck.policy_state = r.Field("policy").Rest();

  SourceCheckpoint& src = ck.sources;
  r.Field("src_positions").UInts(&src.positions);
  r.Field("src_last_seen").Doubles(&src.last_seen);
  src.accrued_cost = r.Field("src_accrued_cost").Double();
  src.last_access_penalty = r.Field("src_last_penalty").Double();
  src.total_penalty = r.Field("src_total_penalty").Double();
  ReadPairs(&r.Field("src_probed"), &src.probed);
  r.Field("src_sorted_cost").Doubles(&src.sorted_cost);
  r.Field("src_random_cost").Doubles(&src.random_cost);
  r.Field("src_source_down").Flags(&src.source_down);
  r.Field("src_breaker_consecutive").UInts(&src.breaker_consecutive);
  r.Field("src_breaker_open").Flags(&src.breaker_open);
  r.Field("src_breaker_open_until").Doubles(&src.breaker_open_until);
  src.latency_rng_state = ReadRngState(&r, "src_latency_rng");
  src.retry_rng_state = ReadRngState(&r, "src_retry_rng");
  src.has_injector = r.Field("src_has_injector").Flag();
  src.injector_rng_state = ReadRngState(&r, "src_injector_rng");
  ReadPairs(&r.Field("src_injector_attempts"), &src.injector_attempts);
  ReadPairs(&r.Field("src_injector_scripts"), &src.injector_script_pos);
  src.trace_enabled = r.Field("src_trace_enabled").Flag();
  {
    const std::string trace(r.Field("src_attempt_trace").Rest());
    const Status status = ParseAttemptTrace(trace, &src.attempt_trace);
    if (!status.ok()) r.Reject(status.message());
  }

  AccessStats& stats = src.stats;
  r.Field("stats_sorted_count").UInts(&stats.sorted_count);
  r.Field("stats_random_count").UInts(&stats.random_count);
  r.Field("stats_sorted_cost").Doubles(&stats.sorted_cost_accrued);
  r.Field("stats_random_cost").Doubles(&stats.random_cost_accrued);
  stats.duplicate_random_count = r.Field("stats_duplicate_random").UInt();
  r.Field("stats_retried").UInts(&stats.retried_attempts);
  stats.transient_failures = r.Field("stats_transient").UInt();
  stats.timeout_failures = r.Field("stats_timeout").UInt();
  stats.abandoned_accesses = r.Field("stats_abandoned").UInt();
  stats.source_deaths = r.Field("stats_deaths").UInt();
  r.Field("stats_breaker_trips").UInts(&stats.breaker_trips);
  stats.breaker_fast_failures = r.Field("stats_breaker_fast_failures").UInt();
  stats.budget_refusals = r.Field("stats_budget_refusals").UInt();
  stats.replica_failovers = r.Field("stats_replica_failovers").UInt();
  stats.hedges_issued = r.Field("stats_hedges_issued").UInt();
  stats.hedge_wins = r.Field("stats_hedge_wins").UInt();

  ReplicaFleetState& fleet = src.fleet_state;
  src.has_fleet = r.Field("src_has_fleet").Flag();
  fleet.latency_rng_state = ReadRngState(&r, "fleet_latency_rng");
  ReadPairs(&r.Field("fleet_rr_cursors"), &fleet.rr_cursors);
  fleet.slots.resize(static_cast<size_t>(r.CountField("fleet_slots", 2)));
  for (ReplicaSlotState& slot : fleet.slots) {
    RecordCursor& c = r.Field("fleet_slot");
    ReplicaRuntime& rt = slot.runtime;
    slot.predicate = c.UIntAs<PredicateId>();
    slot.replica = c.UInt();
    rt.breaker_consecutive = c.UInt();
    rt.breaker_open = c.Flag();
    rt.breaker_open_until = c.Double();
    rt.dead = c.Flag();
    rt.has_ewma = c.Flag();
    rt.ewma_latency = c.Double();
    rt.served = c.UInt();
    rt.failovers = c.UInt();
    rt.breaker_trips = c.UInt();
    rt.hedges_issued = c.UInt();
    rt.hedge_wins = c.UInt();
    rt.cost_accrued = c.Double();
    rt.latency_count = c.UInt();
    rt.latency_sum = c.Double();
    rt.latency_min = c.Double();
    rt.latency_max = c.Double();
    slot.injector_attempts = c.UInt();
    slot.injector_script_pos = c.UInt();
    slot.injector_rng_state = ReadRngState(&r, "fleet_slot_rng");
  }
  NC_RETURN_IF_ERROR(r.Finish());
  *out = std::move(ck);
  return Status::OK();
}

}  // namespace nc
